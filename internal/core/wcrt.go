package core

import (
	"sort"

	"hydrac/internal/task"
)

// System is the fixed platform the migrating band runs on: M identical
// cores, with the partitioned RT tasks of core m listed in
// RTCores[m]. A System with empty RTCores and M cores models pure
// global scheduling (used by the GLOBAL-TMax baseline).
type System struct {
	M       int
	RTCores [][]Demand
}

// NewSystem builds the analysis view of a validated task set whose RT
// tasks are already partitioned.
func NewSystem(ts *task.Set) *System {
	sys := &System{M: ts.Cores, RTCores: make([][]Demand, ts.Cores)}
	for m := 0; m < ts.Cores; m++ {
		for _, t := range ts.RTOnCore(m) {
			sys.RTCores[m] = append(sys.RTCores[m], Demand{WCET: t.WCET, Period: t.Period})
		}
	}
	return sys
}

// MaxFixpointIterations bounds the Eq. 7 iteration. Near the clamp
// boundary (every core's interference bound x − Cs + 1 binding at
// once) the naive recurrence can creep upward one tick per step, so
// with 2^40-scale tick resolutions an unbounded loop could take
// ~10^11 refinements to settle — an effective hang. A task that has
// not converged after this many refinements is reported unschedulable.
// The verdict is conservative and part of the analysis definition:
// internal/oracle applies the identical bound, so the differential
// corpus stays byte-identical even if a pathological set ever trips
// it. Paper-scale workloads converge orders of magnitude below it.
//
// The production kernel (Scratch.MigratingWCRT) advances at least one
// interference breakpoint per iteration instead of one tick, so it
// reaches the same verdicts in no more iterations than the naive
// creep; the budget is shared so the two kernels stay comparable.
const MaxFixpointIterations = 1 << 22

// fixedPoint runs Eq. 7 with the supplied total-interference function,
// one refinement at a time. It is the reference creep the staircase
// kernel is property-tested against, and the engine of
// migratingWCRTExhaustive.
func (sys *System) fixedPoint(cs, limit task.Time, omega func(task.Time) task.Time) (task.Time, bool) {
	x := cs
	for iter := 0; iter < MaxFixpointIterations; iter++ {
		next := omega(x)/task.Time(sys.M) + cs
		if next == x {
			return x, true
		}
		if next > limit || next < x {
			return task.Infinity, false
		}
		x = next
	}
	return task.Infinity, false
}

// omegaDominance is Eq. 6 with the carry-in set chosen by dominance:
// every higher-priority migrating task contributes its non-carry-in
// interference, and the at-most-(M−1) largest positive differences
// I(W^CI) − I(W^NC) are added on top. This is the readable reference
// form; the production path is Scratch.omegaLine, which computes the
// identical value without allocating and with the piece geometry the
// staircase jump needs.
func (sys *System) omegaDominance(x, cs task.Time, hp []Interferer) task.Time {
	var total task.Time
	for _, demands := range sys.RTCores {
		total += rtCoreInterference(x, cs, demands)
	}
	diffs := make([]task.Time, 0, len(hp))
	for _, h := range hp {
		inc := clampInterference(workloadNC(x, h.WCET, h.Period), x, cs)
		ici := clampInterference(workloadCI(x, h.WCET, h.Period, h.Resp), x, cs)
		total += inc
		if d := ici - inc; d > 0 {
			diffs = append(diffs, d)
		}
	}
	if len(diffs) > 0 {
		sort.Slice(diffs, func(i, j int) bool { return diffs[i] > diffs[j] })
		k := min(len(diffs), sys.M-1)
		for _, d := range diffs[:k] {
			total += d
		}
	}
	return total
}

// migratingWCRTExhaustive is the literal Eq. 8: the maximum over all
// partitions of hp into (Γ^NC, Γ^CI) with |Γ^CI| ≤ M−1 of the fixed
// point for that partition. If any partition diverges past limit the
// task is unschedulable. Its cost is exponential in C(n, ≤M−1), and
// tests are its only caller: they check that MigratingWCRT's dominance
// bound never lies below it.
func (sys *System) migratingWCRTExhaustive(cs task.Time, hp []Interferer, limit task.Time) (task.Time, bool) {
	var best task.Time
	n := len(hp)
	kmax := sys.M - 1
	ok := true
	var walk func(i, picked int, mask []bool)
	walk = func(i, picked int, mask []bool) {
		if !ok {
			return
		}
		if i == n {
			r, fine := sys.fixedPoint(cs, limit, func(x task.Time) task.Time {
				var total task.Time
				for _, demands := range sys.RTCores {
					total += rtCoreInterference(x, cs, demands)
				}
				for j, h := range hp {
					var w task.Time
					if mask[j] {
						w = workloadCI(x, h.WCET, h.Period, h.Resp)
					} else {
						w = workloadNC(x, h.WCET, h.Period)
					}
					total += clampInterference(w, x, cs)
				}
				return total
			})
			if !fine {
				ok = false
				return
			}
			if r > best {
				best = r
			}
			return
		}
		mask[i] = false
		walk(i+1, picked, mask)
		if picked < kmax {
			mask[i] = true
			walk(i+1, picked+1, mask)
			mask[i] = false
		}
	}
	walk(0, 0, make([]bool, n))
	if !ok {
		return task.Infinity, false
	}
	return best, true
}

// ResponseTimes computes, highest priority first, the WCRT of every
// migrating task in sec given the period vector periods (same order as
// sec). A task's carry-in bound needs its own response time, so the
// computation proceeds top-down, feeding each result into the
// interferer list of the tasks below. The returned slice parallels
// sec; entries are task.Infinity when the fixed point diverges past
// the task's own period bound (min(periods[i], limit rule): a security
// task with implicit deadline must finish within its period, and is
// hopeless past Tmax).
func (sys *System) ResponseTimes(sec []task.SecurityTask, periods []task.Time) []task.Time {
	sc := DefaultScratchPool.Get(sys)
	defer DefaultScratchPool.Put(sc)
	sc.ensure(len(sec))
	resp := make([]task.Time, len(sec))
	sc.responseTimes(sec, periods, resp, 0)
	return resp
}
