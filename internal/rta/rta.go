// Package rta implements classic uniprocessor fixed-priority
// preemptive response-time analysis (Joseph & Pandya / Audsley),
// the necessary-and-sufficient schedulability condition the paper
// assumes for the partitioned RT band (Eq. 1):
//
//	∃t ∈ (0, Dr] :  Cr + Σ_{τi ∈ hp(τr)} ⌈t/Ti⌉·Ci ≤ t
//
// The smallest such t is the worst-case response time, found by the
// usual fixed-point iteration starting from Cr.
package rta

import "hydrac/internal/task"

// Demand is one higher-priority interferer: a (WCET, Period) pair.
type Demand struct {
	WCET   task.Time
	Period task.Time
}

// MaxIterations bounds the fixed-point iteration of ResponseTime. A
// converging recurrence settles in a handful of steps per interferer;
// the cap only matters for near-overload demand, where x creeps up by
// a few ticks per step and, with a huge limit (or task.Infinity), the
// loop would otherwise run for practically ever. A task that has not
// converged after this many refinements is reported unschedulable —
// conservative, never wrong in the accepting direction.
const MaxIterations = 1 << 22

// ResponseTime returns the worst-case response time of a task with
// execution time wcet under interference from hp on one core, or
// (task.Infinity, false) if the iteration exceeds limit (the task's
// deadline or period bound): the task is then unschedulable.
//
// The iteration is x(0) = wcet; x(k+1) = wcet + Σ ⌈x(k)/Ti⌉·Ci and
// terminates at the least fixed point. The demand Σ ⌈y/Ti⌉·Ci is a
// staircase, constant between release boundaries, so when a refinement
// lands strictly below the next boundary the recurrence has already
// converged: re-evaluating at x(k+1) reads the same staircase step and
// returns x(k+1) unchanged. The loop exploits that to finish one
// boundary-crossing per iteration instead of creeping tick by tick
// through dense-release near-overload cores — same least fixed point,
// never more iterations than the naive creep.
//
// Termination is guaranteed for every limit including task.Infinity:
// a core whose higher-priority demand alone reaches 100% utilisation
// has no fixed point (Σ ⌈x/Ti⌉·Ci ≥ x·ΣCi/Ti ≥ x, so the recurrence
// strictly grows forever) and is rejected up front, and MaxIterations
// backstops near-overload creep the utilisation screen's floating-
// point sum cannot distinguish from exactly 1. CoreSchedulable runs it
// per task with the task's deadline as the limit.
func ResponseTime(wcet task.Time, hp []Demand, limit task.Time) (task.Time, bool) {
	if wcet > limit {
		return task.Infinity, false
	}
	var u float64
	for _, d := range hp {
		u += float64(d.WCET) / float64(d.Period)
	}
	if u >= 1 && wcet > 0 {
		// Exactly-100% (or more) higher-priority utilisation: the
		// recurrence has no fixed point for any positive wcet.
		return task.Infinity, false
	}
	x := wcet
	for iter := 0; iter < MaxIterations; iter++ {
		next := wcet
		// bound is the first window length where any ⌈y/Ti⌉ step
		// rises: the demand is constant on [x, bound).
		bound := task.Infinity
		for _, d := range hp {
			q := ceilDiv(x, d.Period)
			next += q * d.WCET
			// q·T ≥ x always; a smaller product is overflow wrap, and
			// skipping the bound update just forfeits the shortcut.
			if b := q * d.Period; b >= x && b+1 < bound {
				bound = b + 1
			}
		}
		if next == x {
			return x, true
		}
		if next > limit || next < x {
			// next < x cannot happen with non-negative demands but
			// guards against overflow wrap-around.
			return task.Infinity, false
		}
		if next < bound {
			// The refinement stayed on the same staircase step, so
			// the demand at next equals the demand at x and next is
			// the least fixed point.
			return next, true
		}
		x = next
	}
	return task.Infinity, false
}

// CoreSchedulable checks Eq. 1 for every RT task assigned to a single
// core: each task must have WCRT ≤ deadline given interference from
// the higher-priority tasks on the same core. The input must be the
// core's tasks sorted by priority (highest first), as produced by
// task.Set.RTOnCore.
func CoreSchedulable(tasks []task.RTTask) bool {
	hp := make([]Demand, 0, len(tasks))
	for _, t := range tasks {
		if _, ok := ResponseTime(t.WCET, hp, t.Deadline); !ok {
			return false
		}
		hp = append(hp, Demand{WCET: t.WCET, Period: t.Period})
	}
	return true
}

// SetSchedulable checks Eq. 1 on every core of a partitioned RT set.
func SetSchedulable(ts *task.Set) bool {
	for m := 0; m < ts.Cores; m++ {
		if !CoreSchedulable(ts.RTOnCore(m)) {
			return false
		}
	}
	return true
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0, b > 0.
func ceilDiv(a, b task.Time) task.Time {
	return (a + b - 1) / b
}
