// Package baseline implements the comparison schemes of the paper's
// evaluation (§5.1–5.2.3):
//
//   - HYDRA (DATE 2018): security tasks statically partitioned with a
//     greedy best-response allocation and per-core period minimisation
//     — the state of the art HYDRA-C is measured against.
//   - HYDRA-TMax: the same partitioned placement but with every period
//     pinned at Tmax (no period adaptation).
//   - GLOBAL-TMax: every task, RT included, scheduled by global
//     fixed-priority with periods at Tmax.
package baseline

import (
	"fmt"
	"sort"

	"hydrac/internal/core"
	"hydrac/internal/rta"
	"hydrac/internal/task"
)

// PartitionedResult is the outcome of a partitioned security scheme
// (HYDRA or HYDRA-TMax). Slices follow the order of ts.Security.
type PartitionedResult struct {
	Schedulable bool
	// Periods holds the assigned period per security task.
	Periods []task.Time
	// Resp holds the per-task WCRT on its host core.
	Resp []task.Time
	// Cores holds the core each security task was bound to.
	Cores []int
}

// Hydra reproduces the DATE 2018 scheme the paper compares against
// (§5.1.2, §5.2.3). It runs in two phases:
//
//  1. Greedy allocation, highest security priority first: for every
//     core compute the task's uniprocessor WCRT against the core's RT
//     tasks and the security tasks already bound there (with periods
//     still at Tmax), and bind the task to the core with the smallest
//     WCRT — the core offering the maximum monitoring frequency.
//  2. Per-core period minimisation, highest priority first: shrink
//     each task's period to the smallest value in [Rs, Tmax] that
//     keeps every lower-priority security task *on the same core*
//     schedulable (Rj ≤ Tmax_j), by logarithmic search.
//
// The difference from HYDRA-C's Algorithm 1 is exactly the paper's
// critique: the allocation is greedy per task with no global
// lookahead, and each core's optimisation only sees its own tasks.
func Hydra(ts *task.Set) (*PartitionedResult, error) {
	return partitioned(ts, true)
}

// HydraTMax is the HYDRA placement with periods pinned at Tmax: the
// same greedy core choice (smallest WCRT), but no period adaptation.
// It isolates the schedulability-vs-security trade-off of a fully
// partitioned system (§5.2.3).
func HydraTMax(ts *task.Set) (*PartitionedResult, error) {
	return partitioned(ts, false)
}

// HydraAggressive is the extreme form of HYDRA's greed, kept as an
// ablation: every task's period is pinned to its WCRT the moment it is
// placed (maximum frequency, zero lookahead). It finds the shortest
// possible periods for the highest-priority tasks but saturates cores
// and collapses schedulability at moderate utilisation — a quantified
// illustration of why Algorithm 1 constrains each period by all
// lower-priority tasks.
func HydraAggressive(ts *task.Set) (*PartitionedResult, error) {
	return aggressive(ts)
}

func prepare(ts *task.Set) ([][]rta.Demand, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	for _, t := range ts.RT {
		if t.Core < 0 {
			return nil, fmt.Errorf("RT task %s is not partitioned; run partition.Assign first", t.Name)
		}
	}
	if !rta.SetSchedulable(ts) {
		return nil, fmt.Errorf("RT band is not schedulable under Eq. 1")
	}
	demands := make([][]rta.Demand, ts.Cores)
	for m := 0; m < ts.Cores; m++ {
		for _, t := range ts.RTOnCore(m) {
			demands[m] = append(demands[m], rta.Demand{WCET: t.WCET, Period: t.Period})
		}
	}
	return demands, nil
}

func partitioned(ts *task.Set, minimizePeriods bool) (*PartitionedResult, error) {
	demands, err := prepare(ts)
	if err != nil {
		return nil, err
	}
	sec := ts.SecurityByPriority()
	n := len(sec)
	periods := make([]task.Time, n)
	cores := make([]int, n)

	// Phase 1: greedy min-WCRT allocation with everyone at Tmax.
	perCore := make([][]int, ts.Cores) // indices into sec, priority order
	for i, s := range sec {
		bestCore := -1
		var bestR task.Time
		for m := 0; m < ts.Cores; m++ {
			r, ok := rta.ResponseTime(s.WCET, demands[m], s.MaxPeriod)
			if !ok {
				continue
			}
			if bestCore == -1 || r < bestR {
				bestCore, bestR = m, r
			}
		}
		if bestCore == -1 {
			return &PartitionedResult{Schedulable: false}, nil
		}
		cores[i] = bestCore
		periods[i] = s.MaxPeriod
		perCore[bestCore] = append(perCore[bestCore], i)
		demands[bestCore] = append(demands[bestCore], rta.Demand{WCET: s.WCET, Period: s.MaxPeriod})
	}

	// Phase 2: per-core period minimisation, highest priority first.
	if minimizePeriods {
		for m := 0; m < ts.Cores; m++ {
			minimizeCore(ts, sec, perCore[m], m, periods)
		}
	}

	// Final response times under the chosen periods.
	resp := make([]task.Time, n)
	for m := 0; m < ts.Cores; m++ {
		rs := coreResponses(ts, sec, perCore[m], m, periods)
		for k, i := range perCore[m] {
			resp[i] = rs[k]
			if rs[k] > periods[i] {
				// Defensive: phase 2 never violates this.
				return &PartitionedResult{Schedulable: false}, nil
			}
		}
	}

	return report(ts, sec, periods, resp, cores), nil
}

// coreResponses computes the WCRT of the security tasks listed in idx
// (priority order) on core m under the current period vector.
// Unschedulable entries get task.Infinity.
func coreResponses(ts *task.Set, sec []task.SecurityTask, idx []int, m int, periods []task.Time) []task.Time {
	hp := make([]rta.Demand, 0, len(idx))
	for _, t := range ts.RTOnCore(m) {
		hp = append(hp, rta.Demand{WCET: t.WCET, Period: t.Period})
	}
	out := make([]task.Time, len(idx))
	for k, i := range idx {
		r, ok := rta.ResponseTime(sec[i].WCET, hp, sec[i].MaxPeriod)
		if !ok {
			r = task.Infinity
		}
		out[k] = r
		hp = append(hp, rta.Demand{WCET: sec[i].WCET, Period: periods[i]})
	}
	return out
}

// minimizeCore shrinks the periods of the core's security tasks in
// priority order, each constrained by the schedulability of the
// lower-priority tasks on the same core.
func minimizeCore(ts *task.Set, sec []task.SecurityTask, idx []int, m int, periods []task.Time) {
	for k := range idx {
		i := idx[k]
		rs := coreResponses(ts, sec, idx, m, periods)
		lo, hi := rs[k], sec[i].MaxPeriod
		star := hi
		for lo <= hi {
			mid := (lo + hi) / 2
			periods[i] = mid
			if coreFeasible(ts, sec, idx, m, periods, k) {
				star = mid
				hi = mid - 1
			} else {
				lo = mid + 1
			}
		}
		periods[i] = star
	}
}

// coreFeasible reports whether every task strictly below position k on
// the core still meets Rj ≤ Tmax_j under the current periods.
func coreFeasible(ts *task.Set, sec []task.SecurityTask, idx []int, m int, periods []task.Time, k int) bool {
	rs := coreResponses(ts, sec, idx, m, periods)
	for j := k + 1; j < len(idx); j++ {
		if rs[j] > sec[idx[j]].MaxPeriod {
			return false
		}
	}
	return true
}

// aggressive is the pin-to-WCRT placement used by HydraAggressive.
func aggressive(ts *task.Set) (*PartitionedResult, error) {
	demands, err := prepare(ts)
	if err != nil {
		return nil, err
	}
	sec := ts.SecurityByPriority()
	n := len(sec)
	periods := make([]task.Time, n)
	resp := make([]task.Time, n)
	cores := make([]int, n)
	for i, s := range sec {
		bestCore := -1
		var bestR task.Time
		for m := 0; m < ts.Cores; m++ {
			r, ok := rta.ResponseTime(s.WCET, demands[m], s.MaxPeriod)
			if !ok {
				continue
			}
			if bestCore == -1 || r < bestR {
				bestCore, bestR = m, r
			}
		}
		if bestCore == -1 {
			return &PartitionedResult{Schedulable: false}, nil
		}
		cores[i], resp[i], periods[i] = bestCore, bestR, bestR
		demands[bestCore] = append(demands[bestCore], rta.Demand{WCET: s.WCET, Period: bestR})
	}
	return report(ts, sec, periods, resp, cores), nil
}

// report reorders per-priority slices into ts.Security order.
func report(ts *task.Set, sec []task.SecurityTask, periods, resp []task.Time, cores []int) *PartitionedResult {
	out := &PartitionedResult{
		Schedulable: true,
		Periods:     make([]task.Time, len(sec)),
		Resp:        make([]task.Time, len(sec)),
		Cores:       make([]int, len(sec)),
	}
	for i, s := range sec {
		j := indexByName(ts.Security, s.Name)
		out.Periods[j] = periods[i]
		out.Resp[j] = resp[i]
		out.Cores[j] = cores[i]
	}
	return out
}

// ApplyPartitioned writes a partitioned result's periods and core
// bindings into a clone of ts for simulation.
func ApplyPartitioned(ts *task.Set, res *PartitionedResult) *task.Set {
	if !res.Schedulable {
		panic("baseline.ApplyPartitioned: result is not schedulable")
	}
	cp := ts.Clone()
	for i := range cp.Security {
		cp.Security[i].Period = res.Periods[i]
		cp.Security[i].Core = res.Cores[i]
	}
	return cp
}

func indexByName(sec []task.SecurityTask, name string) int {
	for i, s := range sec {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// GlobalResult is the outcome of the GLOBAL-TMax schedulability test.
type GlobalResult struct {
	Schedulable bool
	// RTResp and SecResp hold per-task WCRTs in the order of ts.RT and
	// ts.Security respectively (entries are task.Infinity for tasks
	// whose iteration diverged).
	RTResp  []task.Time
	SecResp []task.Time
}

// GlobalTMax checks global fixed-priority schedulability for the whole
// task set with security periods pinned at Tmax: RT tasks keep their
// RM priorities, security tasks sit below all of them, and everything
// may migrate. The test reuses the HYDRA-C engine with an empty
// partitioned band — which is exactly iterative global RTA with the
// M−1 carry-in bound. Schedulable iff Rr ≤ Dr for every RT task and
// Rs ≤ Tmax for every security task (§5.2.3).
func GlobalTMax(ts *task.Set) (*GlobalResult, error) {
	sc := core.DefaultScratchPool.Get(nil)
	defer core.DefaultScratchPool.Put(sc)
	return GlobalTMaxWith(ts, sc)
}

// GlobalTMaxWith is GlobalTMax on a caller-owned kernel workspace, so
// a service running the baseline per report can thread the scratch it
// already holds instead of borrowing another. Results are identical.
func GlobalTMaxWith(ts *task.Set, sc *core.Scratch) (*GlobalResult, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	sys := &core.System{M: ts.Cores}
	res := &GlobalResult{
		Schedulable: true,
		RTResp:      make([]task.Time, len(ts.RT)),
		SecResp:     make([]task.Time, len(ts.Security)),
	}

	type entry struct {
		wcet, period, limit task.Time
		rt                  bool
		index               int
	}
	var order []entry
	for _, t := range sortRTByPriority(ts.RT) {
		order = append(order, entry{wcet: t.WCET, period: t.Period, limit: t.Deadline, rt: true, index: indexRTByName(ts.RT, t.Name)})
	}
	for _, s := range ts.SecurityByPriority() {
		order = append(order, entry{wcet: s.WCET, period: s.MaxPeriod, limit: s.MaxPeriod, rt: false, index: indexByName(ts.Security, s.Name)})
	}

	// One scratch serves the whole top-down pass: every per-task
	// fixpoint below reuses its buffers (they grow to the band size on
	// the first pass and stay grown across pooled reuses).
	sc.Reset(sys)
	hp := make([]core.Interferer, 0, len(order))
	for _, e := range order {
		r, ok := sc.MigratingWCRT(e.wcet, hp, e.limit, core.Dominance)
		if !ok {
			r = task.Infinity
			res.Schedulable = false
			// Keep analysing the remaining tasks with a pessimistic
			// carry-in bound so the caller sees every miss.
			hp = append(hp, core.Interferer{WCET: e.wcet, Period: e.period, Resp: e.period})
		} else {
			hp = append(hp, core.Interferer{WCET: e.wcet, Period: e.period, Resp: r})
		}
		if e.rt {
			res.RTResp[e.index] = r
		} else {
			res.SecResp[e.index] = r
		}
	}
	return res, nil
}

func sortRTByPriority(rt []task.RTTask) []task.RTTask {
	out := append([]task.RTTask(nil), rt...)
	sort.Slice(out, func(i, j int) bool { return out[i].Priority < out[j].Priority })
	return out
}

func indexRTByName(rt []task.RTTask, name string) int {
	for i, t := range rt {
		if t.Name == name {
			return i
		}
	}
	return -1
}
