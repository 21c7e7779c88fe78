package core

import (
	"context"
	"fmt"

	"hydrac/internal/rta"
	"hydrac/internal/task"
)

// Hints carries state from a previous period-selection run so a
// near-identical set — the common case for a live admission session,
// where successive requests differ by one or two tasks — can be
// re-analysed in O(verification) instead of O(search).
//
// Hints never change the result. The previous period of a task is
// used only as a candidate: it is kept iff the analysis proves, in the
// NEW set's context, that it is exactly the value Algorithm 2's search
// would return (feasible, and either at the lower bound or with an
// infeasible predecessor — the definition of the least feasible
// period under the monotone-feasibility assumption the binary search
// itself rests on). A candidate that fails verification falls back to
// the full search for that task; a missing candidate always searches.
type Hints struct {
	// Periods maps security-task name → previously selected period.
	Periods map[string]task.Time
	// RTVerified tells the selector the caller has already established
	// RT-band feasibility (Eq. 1 on every core) for this exact set, so
	// the per-core RTA screen can be skipped. A session sets it when a
	// delta neither adds nor removes an RT task, because its committed
	// RT band already passed the screen.
	RTVerified bool
	// Prior, when set, is the exact output of a previous SCHEDULABLE
	// selection the caller certifies (see Prior). Unlike Periods, which
	// is advisory (verified per task, never trusted), Prior is a trust
	// declaration in the RTVerified mold: the selector adopts the
	// longest provably-unaffected priority prefix of the previous
	// result without re-verifying it, which is what makes a small delta
	// cost o(n) instead of O(n²) probe work. A caller that cannot meet
	// Prior's contract must leave it nil.
	Prior *Prior
}

// Prior is the previous selection's result in priority order, plus the
// implicit certification that lets the resumable path adopt its
// unchanged prefix outright. Supplying it asserts all of:
//
//   - Sec/Periods/Resp are the bit-exact output of a SelectPeriods*
//     run that returned Schedulable == true, with Sec in the
//     SecurityByPriority order of that run's set and Periods/Resp
//     aligned to it;
//   - that run analysed a set whose RT band — members, parameters and
//     core placement — is identical to the current set's;
//   - that run used the same Options (CarryIn mode in particular).
//
// Under that contract the adopted result is bit-identical to a cold
// run; see adoptablePrefix for the argument. The admission engine is
// the intended caller: it certifies its own committed output.
type Prior struct {
	// Sec is the previous set's security band in priority order.
	Sec []task.SecurityTask
	// Periods and Resp are the previous result per level of Sec.
	Periods, Resp []task.Time
}

// ResumeStats reports how much prior state a resumable selection
// reused; tests and the admission engine's metrics read it.
type ResumeStats struct {
	// Verified counts tasks whose hinted period was proven minimal
	// with at most two feasibility probes.
	Verified int
	// Searched counts tasks that ran the full Algorithm 2 search.
	Searched int
	// Adopted counts the leading priority levels taken verbatim from
	// Hints.Prior without any probing (the trusted-prefix fast path).
	Adopted int
}

// SelectPeriodsResumableWith is SelectPeriodsCtxWith with warm-start
// hints: identical results, bit for bit, with most of the per-task
// period searches replaced by two-probe verifications when the hints
// match. It runs on a caller-owned Scratch: a long-lived owner (the
// admission engine) re-primes one workspace per analysis instead of
// reallocating the kernel buffers on every delta. The scratch must not
// be shared across goroutines.
//
// This is the one Algorithm 1 loop: SelectPeriods, SelectPeriodsCtx
// and SelectPeriodsCtxWith run it with nil hints.
func SelectPeriodsResumableWith(ctx context.Context, ts *task.Set, opt Options, hints *Hints, sc *Scratch) (*Result, ResumeStats, error) {
	var stats ResumeStats
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if err := ts.Validate(); err != nil {
		return nil, stats, err
	}
	for _, t := range ts.RT {
		if t.Core < 0 {
			return nil, stats, fmt.Errorf("RT task %s is not partitioned; run partition.Assign first", t.Name)
		}
	}
	var h Hints
	if hints != nil {
		h = *hints
	}
	if !h.RTVerified && !rta.SetSchedulable(ts) {
		return nil, stats, fmt.Errorf("RT band is not schedulable under Eq. 1; HYDRA-C requires a feasible legacy system")
	}

	sys := NewSystem(ts)
	sec := ts.SecurityByPriority()
	n := len(sec)
	if n == 0 {
		return &Result{Schedulable: true, Periods: []task.Time{}, Resp: []task.Time{}}, stats, nil
	}

	// One scratch serves the whole analysis: every probe below reuses
	// its buffers, so the search loops run allocation-free.
	sc.Reset(sys)
	sc.ensure(n)

	// Line 1: every period at Tmax.
	periods := sc.periods[:0]
	for _, s := range sec {
		periods = append(periods, s.MaxPeriod)
	}
	sc.periods = periods

	// Trusted-prefix fast path: when the caller certifies the previous
	// run's output (Hints.Prior) and the leading priority levels are
	// provably unaffected by the delta, adopt their periods and
	// response times outright and start the real work at the first
	// changed level. This is what makes a tail-local delta on a
	// thousand-task band cost o(n) instead of O(n²) probe work.
	adopt := 0
	if pr := h.Prior; pr != nil && opt.CarryIn == Dominance {
		adopt = adoptablePrefix(sc, sec, pr)
	}
	stats.Adopted = adopt

	// Lines 2–4: if any task misses even at Tmax, the set is
	// unschedulable within the designer bounds. With an adopted prefix
	// the all-Tmax screen reduces to the suffix under the chain (prefix
	// final, suffix Tmax). Equivalence: a prefix task's Tmax-feasibility
	// depends only on the (identical) levels above it, so it cannot have
	// changed; a suffix task infeasible at all-Tmax is infeasible under
	// the tighter adopted chain too (periods only shrank); and a suffix
	// task feasible at all-Tmax is feasible under the adopted chain,
	// because the cold run would fix the same prefix (adoption's own
	// guarantee) while its searches maintain exactly that feasibility
	// invariant. The computed values are also the resp state the cold
	// loop would hold when reaching level `adopt`.
	resp := sc.resp[:n]
	if adopt > 0 {
		copy(periods, h.Prior.Periods[:adopt])
		copy(resp, h.Prior.Resp[:adopt])
	}
	sc.responseTimes(sec, periods, opt.CarryIn, resp, adopt)
	for i := adopt; i < n; i++ {
		if resp[i] > sec[i].MaxPeriod {
			return &Result{Schedulable: false}, stats, nil
		}
	}

	// Lines 5–9: from highest to lowest priority, shrink each period as
	// far as every lower-priority task tolerates. On entry to level i,
	// resp[i:] holds the exact response times under the fixed periods
	// above i and Tmax from i down.
	for i := adopt; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		lo, hi := resp[i], sec[i].MaxPeriod
		star := task.Time(-1)
		// A hint is the star iff cand is feasible and cand−1 is not
		// (or cand is the lower bound). Probing cand−1 first makes a
		// verified hint's last probe its star.
		if cand, ok := h.Periods[sec[i].Name]; ok && cand >= lo && cand <= hi {
			if (cand == lo || !lowerPrioritySchedulable(sc, sec, periods, resp, i, cand-1, opt.CarryIn)) &&
				lowerPrioritySchedulable(sc, sec, periods, resp, i, cand, opt.CarryIn) {
				star = cand
				stats.Verified++
			}
		}
		if star < 0 {
			star = logMinPeriod(ctx, sc, sec, periods, resp, i, lo, hi, opt.CarryIn)
			stats.Searched++
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		// Line 8: refresh the WCRT of every lower-priority task under
		// the newly fixed period by adopting the star probe's captured
		// response vector and component caches — they ARE the post-fix
		// state. When the search's last probe was not the star (it
		// ended on an infeasible candidate), the star is probed once
		// more, unchecked. That probe is feasible because star is
		// either a candidate whose probe already passed at this level,
		// or hi (Tmax): periods[i] is still Tmax, so a probe at hi
		// reproduces the incoming resp[i+1:], which the loop invariant
		// above keeps feasible (lines 2–4, then each level's adoption).
		// A search change that can return any other unprobed candidate
		// must check this probe.
		if sc.probeFrom != i || sc.probeCand != star {
			lowerPrioritySchedulable(sc, sec, periods, resp, i, star, opt.CarryIn)
		}
		periods[i] = star
		copy(resp[i+1:], sc.probeResp[i+1:n])
		copy(sc.rtAt[i+1:], sc.probeRT[i+1:n])
		copy(sc.ncAt[i+1:], sc.probeNC[i+1:n])
		copy(sc.ckAt[i+1:], sc.probeCK[i+1:n])
	}

	// Report in the original ts.Security order.
	outPeriods := make([]task.Time, n)
	outResp := make([]task.Time, n)
	byName := securityIndex(ts.Security)
	for i, s := range sec {
		j := byName[s.Name]
		outPeriods[j] = periods[i]
		outResp[j] = resp[i]
	}
	return &Result{Schedulable: true, Periods: outPeriods, Resp: outResp}, stats, nil
}

// adoptablePrefix returns the number of leading priority levels of sec
// whose previous results (pr) can be adopted without re-verification,
// or 0 when no level qualifies. The argument rests on two facts the
// kernel already depends on: a task's response time is a function of
// the RT band and the strictly-higher-priority security chain only,
// and Algorithm 2's per-candidate feasibility is monotone in the
// candidate (the assumption the binary search and the two-probe hint
// verification both rest on). Under them, level i's search repeats the
// previous run's probe trajectory verbatim — hence returns the
// bit-identical star — iff every probe verdict is preserved, which
// decomposes per conjunct:
//
//   - Level i's own response and the conjuncts of every surviving task
//     above the first change are literally the same computation (their
//     chains contain no changed task).
//   - A conjunct REMOVED by the delta can only have mattered at the
//     minimality probe (star−1); it provably did not whenever
//     star == resp, where minimality is pinned by the task's own
//     period ≥ response bound. So removals shrink the adoptable prefix
//     to the levels before the first star > resp.
//   - A conjunct ADDED by the delta can only flip a feasible probe at
//     cand ≥ star to infeasible. Every such probe chain dominates
//     (period-wise ≥, response-wise ≤, task by task) the chain D =
//     (surviving tasks at their previous periods, added tasks at
//     Tmax), so feasibility of every task under D — additionsFeasible
//     below — implies all those conjuncts pass. Infeasible probes stay
//     infeasible: added interference cannot make a failing task pass.
//
// Budget verdicts cannot drift inside the prefix: every adopted
// level's tail task is required to pass the warmable gate
// (Tmax − C < MaxFixpointIterations), under which a fixpoint provably
// resolves within the budget and the operational verdict equals the
// mathematical one.
func adoptablePrefix(sc *Scratch, sec []task.SecurityTask, pr *Prior) int {
	n := len(sec)
	if len(pr.Periods) != len(pr.Sec) || len(pr.Resp) != len(pr.Sec) {
		return 0
	}
	p := 0
	for p < n && p < len(pr.Sec) && sec[p] == pr.Sec[p] {
		p++
	}
	if p == 0 {
		return 0
	}
	// The budget gate over the new tail (see above; prefix tasks' own
	// conjuncts are identical computations and need no gate).
	for j := p; j < n; j++ {
		if !warmable(sec[j]) {
			return 0
		}
	}
	// Classify the differing tails. A task whose parameters changed
	// counts as removed AND added. Matching is by priority level — both
	// bands are in SecurityByPriority order with distinct priorities, so
	// a survivor (full struct equality) is found at its level by binary
	// search exactly as a name map would find it, and a task that kept
	// its name but moved levels fails the equality check either way.
	// This path runs on every warm admission; keeping it map-free is
	// what the allocs-admit-delta gate holds at zero growth.
	firstChanged := n
	for j := p; j < n; j++ {
		if oj := priorityLevel(pr.Sec, sec[j].Priority); oj < 0 || pr.Sec[oj] != sec[j] {
			firstChanged = j
			break
		}
	}
	removed := false
	for j := p; j < len(pr.Sec); j++ {
		if nj := priorityLevel(sec, pr.Sec[j].Priority); nj < 0 || sec[nj] != pr.Sec[j] {
			removed = true
			break
		}
	}
	if removed {
		for i := 0; i < p; i++ {
			if pr.Periods[i] != pr.Resp[i] {
				p = i
				break
			}
		}
		if p == 0 {
			return 0
		}
	}
	if firstChanged < n && !additionsFeasible(sc, sec, pr, firstChanged, removed) {
		return 0
	}
	return p
}

// additionsFeasible checks every task of sec from the first changed
// level down for feasibility under the dominating chain D: surviving
// tasks at their previous periods and responses, added tasks at Tmax.
// Surviving tasks warm-start from their previous response — a sound
// lower bound when nothing was removed (D only adds interference over
// the previous chain); with removals in play the bound direction is
// lost and the fixpoint restarts from C instead. Either way a failed
// or budget-limited fixpoint fails the check, which only costs the
// caller the fast path, never correctness.
func additionsFeasible(sc *Scratch, sec []task.SecurityTask, pr *Prior, firstChanged int, removed bool) bool {
	hp := sc.hp[:0]
	for j := 0; j < firstChanged; j++ {
		oj := priorityLevel(pr.Sec, sec[j].Priority)
		if oj < 0 || pr.Sec[oj] != sec[j] {
			sc.hp = hp[:0]
			return false // unreachable: firstChanged is the first such level
		}
		hp = append(hp, Interferer{WCET: sec[j].WCET, Period: pr.Periods[oj], Resp: pr.Resp[oj]})
	}
	ok := true
	for j := firstChanged; j < len(sec); j++ {
		cs, limit := sec[j].WCET, sec[j].MaxPeriod
		period, start := limit, cs
		if oj := priorityLevel(pr.Sec, sec[j].Priority); oj >= 0 && pr.Sec[oj] == sec[j] {
			period = pr.Periods[oj]
			if r := pr.Resp[oj]; !removed && r > start && r <= limit {
				start = r
			}
		}
		sc.primeHP(hp)
		r, fine := sc.fixpointPrimed(cs, start, limit)
		if !fine || r > limit {
			ok = false
			break
		}
		hp = append(hp, Interferer{WCET: cs, Period: period, Resp: r})
	}
	sc.hp = hp[:0]
	return ok
}

// priorityLevel returns the index in band — which must be in
// SecurityByPriority order, priorities distinct — of the task with the
// given priority, or -1 when no level has it. Hand-rolled so the warm
// admission path stays allocation-free.
func priorityLevel(band []task.SecurityTask, prio int) int {
	lo, hi := 0, len(band)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if band[mid].Priority < prio {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(band) && band[lo].Priority == prio {
		return lo
	}
	return -1
}
