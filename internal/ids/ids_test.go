package ids

import (
	"math/rand"
	"testing"

	"hydrac/internal/sim"
	"hydrac/internal/task"
)

func TestFileSystemHashingAndTamper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := NewFileSystem(rng, 10, 64)
	if fs.Len() != 10 {
		t.Fatalf("Len = %d", fs.Len())
	}
	base := fs.Snapshot()
	if bad := base.Scan(fs); len(bad) != 0 {
		t.Fatalf("clean store reported mismatches: %v", bad)
	}
	if !fs.Tamper(rng, 3) {
		t.Fatal("tamper reported no change")
	}
	bad := base.Scan(fs)
	if len(bad) != 1 || bad[0] != 3 {
		t.Fatalf("scan found %v, want [3]", bad)
	}
	if !base.CheckObject(fs, 3) {
		t.Error("CheckObject missed the tampered file")
	}
	if base.CheckObject(fs, 4) {
		t.Error("CheckObject false positive")
	}
}

func TestBaselineUnknownFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fs := NewFileSystem(rng, 2, 8)
	base := Baseline{} // empty database: everything is unknown
	if !base.CheckObject(fs, 0) {
		t.Error("unknown file must count as a violation")
	}
}

// A single uninterrupted job scanning 10 objects with WCET 100:
// object k is read during [10k, 10(k+1)).
func TestDetectionSingleJob(t *testing.T) {
	jobs := []sim.JobRecord{{
		Task: "tw", Release: 0, Finish: 100,
		Intervals: []sim.Interval{{Start: 0, End: 100, Core: 0}},
	}}
	m := ScanModel{WCET: 100, Objects: 10}

	// Attack at t=35 on object 7: slice [70,80) starts after 35 → detected at 80.
	d, err := DetectionTime(jobs, m, 35, 7)
	if err != nil || !d.Detected || d.At != 80 || d.Latency != 45 {
		t.Fatalf("got %+v, %v; want detect at 80", d, err)
	}

	// Attack at t=75 on object 7: the read began at 70 < 75 → this job
	// misses it; no further jobs → undetected.
	d, err = DetectionTime(jobs, m, 75, 7)
	if err != nil || d.Detected {
		t.Fatalf("evaded attack was detected: %+v", d)
	}
}

// Preemption stretches the wall-clock coverage: a job executing [0,50)
// and [200,250) reads object 7 (progress [70,80)) at wall clock
// [220,230).
func TestDetectionPreemptedJob(t *testing.T) {
	jobs := []sim.JobRecord{{
		Task: "tw", Release: 0, Finish: 250,
		Intervals: []sim.Interval{{Start: 0, End: 50, Core: 0}, {Start: 200, End: 250, Core: 1}},
	}}
	m := ScanModel{WCET: 100, Objects: 10}
	d, err := DetectionTime(jobs, m, 100, 7)
	if err != nil || !d.Detected {
		t.Fatalf("not detected: %+v %v", d, err)
	}
	if d.At != 230 || d.Latency != 130 {
		t.Fatalf("detection at %d (latency %d), want 230 (130)", d.At, d.Latency)
	}
}

// The second job catches what the first one already passed.
func TestDetectionNextJob(t *testing.T) {
	jobs := []sim.JobRecord{
		{Task: "tw", Release: 0, Finish: 100, Intervals: []sim.Interval{{Start: 0, End: 100}}},
		{Task: "tw", Release: 500, Finish: 600, Intervals: []sim.Interval{{Start: 500, End: 600}}},
	}
	m := ScanModel{WCET: 100, Objects: 10}
	d, err := DetectionTime(jobs, m, 75, 7)
	if err != nil || !d.Detected {
		t.Fatalf("not detected: %+v %v", d, err)
	}
	if d.Job != 1 || d.At != 580 {
		t.Fatalf("got job %d at %d, want job 1 at 580", d.Job, d.At)
	}
}

// Truncated job (horizon cut) must be skipped gracefully.
func TestDetectionTruncatedJob(t *testing.T) {
	jobs := []sim.JobRecord{{
		Task: "tw", Release: 0, Finish: -1,
		Intervals: []sim.Interval{{Start: 0, End: 30}},
	}}
	m := ScanModel{WCET: 100, Objects: 10}
	d, err := DetectionTime(jobs, m, 0, 7)
	if err != nil || d.Detected {
		t.Fatalf("truncated job produced detection: %+v %v", d, err)
	}
}

func TestDetectionValidation(t *testing.T) {
	m := ScanModel{WCET: 100, Objects: 10}
	if _, err := DetectionTime(nil, m, 0, 10); err == nil {
		t.Error("victim out of range accepted")
	}
	if _, err := DetectionTime(nil, ScanModel{WCET: 0, Objects: 10}, 0, 1); err == nil {
		t.Error("zero WCET accepted")
	}
}

// Whole-profile checker: Objects = 1 means a job detects iff it starts
// at or after the attack; detection at job completion.
func TestDetectionWholeJobGranularity(t *testing.T) {
	jobs := []sim.JobRecord{
		{Task: "kmod", Release: 0, Finish: 10, Intervals: []sim.Interval{{Start: 0, End: 10}}},
		{Task: "kmod", Release: 100, Finish: 110, Intervals: []sim.Interval{{Start: 100, End: 110}}},
	}
	m := ScanModel{WCET: 10, Objects: 1}
	d, err := DetectionTime(jobs, m, 5, 0)
	if err != nil || !d.Detected || d.At != 110 {
		t.Fatalf("got %+v %v, want detection at 110", d, err)
	}
}

// End-to-end: simulate the scanner under load, inject a real tamper
// into the synthetic store, and confirm the trace-based detection
// instant agrees with an actual baseline scan at that instant.
func TestDetectionEndToEnd(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT:    []task.RTTask{{Name: "nav", WCET: 24, Period: 50, Deadline: 50, Core: 0}},
		Security: []task.SecurityTask{
			{Name: "tw", WCET: 100, Period: 300, MaxPeriod: 1000, Priority: 0, Core: -1},
		},
	}
	out, err := sim.Run(ts, sim.Config{Policy: sim.SemiPartitioned, Horizon: 2000, RecordIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	fs := NewFileSystem(rng, 20, 32)
	base := fs.Snapshot()
	victim := 13
	attack := task.Time(333)
	fs.Tamper(rng, victim)

	jobs := out.JobsOf("tw")
	d, err := DetectionTime(jobs, ScanModel{WCET: 100, Objects: 20}, attack, victim)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Detected {
		t.Fatal("attack not detected within 2000 ticks despite periodic scans")
	}
	if d.At <= attack {
		t.Fatalf("detection at %d not after attack %d", d.At, attack)
	}
	// The store really is flagged by a full scan.
	if bad := base.Scan(fs); len(bad) != 1 || bad[0] != victim {
		t.Fatalf("real scan found %v", bad)
	}
}
