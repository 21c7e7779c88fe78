package ids

import (
	"fmt"
	"sort"

	"hydrac/internal/sim"
	"hydrac/internal/task"
)

// ScanModel describes how a periodic scanning task covers its target:
// each job sweeps Objects artifacts sequentially, spending an equal
// share of the job's WCET on each. Progress advances only while the
// job executes, so preemptions stretch the wall-clock coverage of each
// artifact — exactly the effect HYDRA-C's continuous execution
// minimises (§1: an interrupted IDS gives the adversary a window).
type ScanModel struct {
	// WCET is the job's execution demand C.
	WCET task.Time
	// Objects is the number of artifacts one job covers (N files for
	// Tripwire, 1 for a whole-profile kernel-module check).
	Objects int
}

// sliceBounds returns the execution-progress window [start, end) a job
// spends on object k.
func (m ScanModel) sliceBounds(k int) (start, end task.Time) {
	n := task.Time(m.Objects)
	return m.WCET * task.Time(k) / n, m.WCET * task.Time(k+1) / n
}

// wallClockAt maps execution progress p (ticks of accumulated
// execution) within a job to the wall-clock instant it is reached,
// given the job's execution intervals. Returns −1 if the job never
// accumulates p ticks within the trace.
func wallClockAt(ivs []sim.Interval, p task.Time) task.Time {
	var acc task.Time
	for _, iv := range ivs {
		d := iv.Duration()
		if p <= acc+d {
			return iv.Start + (p - acc)
		}
		acc += d
	}
	return -1
}

// Detection is the outcome of a detection-latency query.
type Detection struct {
	// Detected reports whether any job in the trace catches the
	// attack.
	Detected bool
	// At is the wall-clock instant the scanner finishes re-reading the
	// tampered artifact (the paper's detection time reference point).
	At task.Time
	// Latency is At − AttackTime.
	Latency task.Time
	// Job is the index (within the task's trace) of the detecting job.
	Job int
}

// DetectionTime computes when a scanning task detects an attack that
// tampered with object victim at instant attack, given the task's
// execution trace from the simulator (jobs of one task, any order).
//
// A job detects the attack iff it *starts reading* the victim object
// at or after the attack instant — a scan pass that already moved past
// the object cannot see the modification, which is the evasion window
// the paper's continuous-monitoring argument is about. Detection is
// reported at the instant the victim's scan slice completes.
func DetectionTime(jobs []sim.JobRecord, m ScanModel, attack task.Time, victim int) (Detection, error) {
	if victim < 0 || victim >= m.Objects {
		return Detection{}, fmt.Errorf("ids: victim %d out of range [0,%d)", victim, m.Objects)
	}
	if m.WCET <= 0 || m.Objects <= 0 {
		return Detection{}, fmt.Errorf("ids: invalid scan model %+v", m)
	}
	ordered := append([]sim.JobRecord(nil), jobs...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Release < ordered[b].Release })

	pStart, pEnd := m.sliceBounds(victim)
	for idx, j := range ordered {
		readStart := wallClockAt(j.Intervals, pStart)
		readEnd := wallClockAt(j.Intervals, pEnd)
		if readStart < 0 || readEnd < 0 {
			continue // job truncated by the horizon before covering the victim
		}
		if readStart >= attack {
			return Detection{Detected: true, At: readEnd, Latency: readEnd - attack, Job: idx}, nil
		}
	}
	return Detection{}, nil
}
