package core

import (
	"context"
	"sort"

	"hydrac/internal/task"
)

// Result is the outcome of period selection for one task set.
type Result struct {
	// Schedulable reports whether every security task admits a period
	// within [Rs, Tmax] (Algorithm 1, lines 2–4).
	Schedulable bool
	// Periods holds the selected period T*s per security task, in the
	// same order as the input set's Security slice. Nil when
	// unschedulable.
	Periods []task.Time
	// Resp holds the final WCRT per security task (same order),
	// computed with every selected period in place.
	Resp []task.Time
}

// Options tunes SelectPeriods. The zero value is the paper's
// configuration.
type Options struct {
	// CarryIn selects the Eq. 8 maximisation strategy.
	CarryIn CarryInMode
	// LinearSearch replaces Algorithm 2's logarithmic search with a
	// downward linear scan. Exponentially slower; kept for the
	// ablation benchmark and as a test oracle.
	LinearSearch bool
	// SkipOptimization pins every period at Tmax after the feasibility
	// check — the "w/o period optimisation" reference of Fig. 7b.
	SkipOptimization bool
}

// SelectPeriods is Algorithm 1: given a task set whose RT tasks are
// already partitioned and schedulable, it chooses the minimum feasible
// period for every security task in priority order, so the security
// band executes as frequently as schedulability permits.
//
// The returned periods and response times follow the order of
// ts.Security. The input set is not modified.
func SelectPeriods(ts *task.Set, opt Options) (*Result, error) {
	return SelectPeriodsCtx(context.Background(), ts, opt)
}

// SelectPeriodsCtx is SelectPeriods with cancellation: the search is
// abandoned between priority levels and between binary-search probes
// when ctx is done, returning ctx.Err(). Analysis of a large set can
// take seconds; a service serving many clients needs to shed the work
// of a caller that hung up.
//
// The kernel workspace is borrowed from DefaultScratchPool for the
// duration of the call; services that thread their own scratch use
// SelectPeriodsCtxWith.
func SelectPeriodsCtx(ctx context.Context, ts *task.Set, opt Options) (*Result, error) {
	sc := DefaultScratchPool.Get(nil, SizeHint(ts))
	defer DefaultScratchPool.Put(sc)
	return SelectPeriodsCtxWith(ctx, ts, opt, sc)
}

// SelectPeriodsCtxWith is SelectPeriodsCtx on a caller-owned Scratch:
// identical results — a Reset re-primes every buffer — with zero
// steady-state allocations for callers that keep one workspace per
// worker (AnalyzeBatch, the sweep engine, the baselines). The scratch
// must not be shared across goroutines while the call runs, and the
// returned Result never aliases its buffers. It is the hint-free run
// of the one Algorithm 1 loop, SelectPeriodsResumableWith.
func SelectPeriodsCtxWith(ctx context.Context, ts *task.Set, opt Options, sc *Scratch) (*Result, error) {
	res, _, err := SelectPeriodsResumableWith(ctx, ts, opt, nil, sc)
	return res, err
}

// logMinPeriod is Algorithm 2: a logarithmic (binary) search over
// [lo, hi] for the smallest period of sec[i] that keeps every
// lower-priority security task schedulable (Rj ≤ Tmax_j). hi (= Tmax)
// is always feasible because Algorithm 1 verified it first, so the
// feasible set initialised with {Tmax} is never empty.
//
// The search probes lo before bisecting: lo = Rs is the least period
// any search could return, and on paper-scale workloads more than
// half of all searches end exactly there — one probe instead of
// log2(Tmax−Rs). When lo is infeasible the bisection proceeds on
// [lo+1, hi], which returns the identical star by the monotone-
// feasibility assumption Algorithm 2 itself rests on (the same
// argument as the two-probe hint verification, pinned by
// the differential oracle corpus).
func logMinPeriod(ctx context.Context, sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, lo, hi task.Time, mode CarryInMode) task.Time {
	if ctx.Err() != nil {
		return hi // the caller surfaces ctx.Err()
	}
	if lowerPrioritySchedulable(sc, sec, periods, resp, i, lo, mode) {
		return lo
	}
	lo++
	star := hi // T̂s initialised to {Tmax}; its minimum so far.
	for lo <= hi {
		if ctx.Err() != nil {
			return star // the caller surfaces ctx.Err()
		}
		mid := (lo + hi) / 2
		if lowerPrioritySchedulable(sc, sec, periods, resp, i, mid, mode) {
			if mid < star {
				star = mid
			}
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return star
}

// linearMinPeriod scans downward from hi; it is the brute-force oracle
// for Algorithm 2 and the ablation benchmark.
func linearMinPeriod(ctx context.Context, sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, lo, hi task.Time, mode CarryInMode) task.Time {
	star := hi
	for t := hi; t >= lo; t-- {
		if ctx.Err() != nil {
			return star // the caller surfaces ctx.Err()
		}
		if !lowerPrioritySchedulable(sc, sec, periods, resp, i, t, mode) {
			break
		}
		star = t
	}
	return star
}

// lowerPrioritySchedulable checks Algorithm 2 line 5: with sec[i]'s
// period set to cand (and every unprocessed task still at Tmax), does
// every lower-priority security task keep Rj ≤ Tmax_j? Response times
// are recomputed top-down from task i+1 because carry-in bounds of
// deeper tasks depend on the response times above them. The probe
// runs allocation-free on the scratch and restores periods[i]
// directly on every exit path (a deferred restore would cost a
// closure per probe of the binary search).
func lowerPrioritySchedulable(sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, cand task.Time, mode CarryInMode) bool {
	if mode == Dominance {
		if ok, decided := probeWarm(sc, sec, periods, resp, i, cand); decided {
			return ok
		}
	}
	saved := periods[i]
	periods[i] = cand

	hp := sc.hp[:0]
	for k := 0; k <= i; k++ {
		hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
	}
	ok := true
	for j := i + 1; j < len(sec); j++ {
		r, fine := sc.MigratingWCRT(sec[j].WCET, hp, sec[j].MaxPeriod, mode)
		if !fine || r > sec[j].MaxPeriod {
			ok = false
			sc.lastViol = j
			break
		}
		sc.probeResp[j] = r
		sc.probeRT[j] = -1
		hp = append(hp, Interferer{WCET: sec[j].WCET, Period: periods[j], Resp: r})
	}
	sc.hp = hp[:0]
	periods[i] = saved
	if ok {
		// Remember the full response vector of this feasible probe:
		// when the search settles on this candidate, the line-8
		// refresh can reuse it verbatim (same inputs, same fixpoints).
		sc.probeFrom, sc.probeCand = i, cand
	} else {
		sc.probeFrom = -1
	}
	return ok
}

// probeWarm is the warm-started form of the Algorithm 2 probe for
// the Dominance mode: identical verdict and identical captured
// response vector, with most per-task fixpoints collapsed to a single
// Ω evaluation. It reports decided = false only when a task's tick
// scale defeats the budget argument below; the caller then runs the
// cold probe.
//
// Two monotonicity facts carry the equivalence proof:
//
//  1. The pre-probe response vector bounds the in-probe one from
//     below. A probe only shrinks periods[i] (the candidate never
//     exceeds the period resp[] was computed under), which only adds
//     interference, and workloadCI is nondecreasing in the
//     interferer's response time (x̄ = C−1+T−R) — so by induction
//     down the chain every in-probe response time is ≥ its resp[]
//     entry.
//  2. Iterating the monotone refinement f(x) = ⌊Ω(x)/M⌋ + Cs from
//     any x₀ ≤ lfp converges to the SAME least fixed point
//     (fixpointPrimed). So starting each task's fixpoint at resp[j]
//     instead of Cs changes the refinement count, never the value —
//     and for the common task the probe does not move at all,
//     f(resp[j]) = resp[j] and one evaluation settles it.
//
// The skipped refinements make the iteration budget the one place the
// verdicts could drift: the naive creep from Cs lifts x by ≥ 1 tick
// per refinement, so a task with Tmax − Cs < MaxFixpointIterations
// provably resolves (converges or overruns Tmax) within the budget,
// and the warm start cannot disagree with a budget-exhaustion verdict
// that cannot happen. Tasks at 2^40-tick scales fail that gate and
// take the cold probe, whose line mode counts refinements faithfully.
// Exhaustive mode never comes here (the caller gates on Dominance).
func probeWarm(sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, cand task.Time) (feasible, decided bool) {
	saved := periods[i]
	periods[i] = cand
	hp := sc.hp[:0]
	for k := 0; k <= i; k++ {
		hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
	}
	sc.chg, sc.chgWild = sc.chg[:0], false
	if cand != saved {
		sc.chg = append(sc.chg, chainDelta{c: sec[i].WCET, oldP: saved, newP: cand, oldR: resp[i], newR: resp[i]})
	}
	// Victim-first rejection: the task that sank the previous probe
	// usually sinks this one too. Its response under the STALE chain
	// (resp[] entries for i+1..v−1, each a certified lower bound on
	// the in-probe value — probeWarm's fact 1) lower-bounds the
	// in-probe response by Ω-monotonicity, so a limit overrun here is
	// a sound verdict without touching the tasks in between. A pass
	// proves nothing and falls through to the full scan.
	if v := sc.lastViol; v > i && v < len(sec) {
		cs, limit := sec[v].WCET, sec[v].MaxPeriod
		if cs <= limit && limit-cs < MaxFixpointIterations {
			hpv := hp
			for j := i + 1; j < v; j++ {
				hpv = append(hpv, Interferer{WCET: sec[j].WCET, Period: periods[j], Resp: resp[j]})
			}
			r, _, _, _, fine := warmResp(sc, v, cs, limit, resp[v], hpv)
			if !fine || r > limit {
				sc.hp = hp[:0]
				periods[i] = saved
				sc.probeFrom = -1
				return false, true
			}
		}
	}
	verdict, certain := true, true
	for j := i + 1; j < len(sec); j++ {
		cs, limit := sec[j].WCET, sec[j].MaxPeriod
		if cs > limit {
			// The cold probe refuses this before iterating; the
			// verdict is chain-independent.
			verdict = false
			break
		}
		if limit-cs >= MaxFixpointIterations {
			certain = false
			break
		}
		r, rt, nc, ck, fine := warmResp(sc, j, cs, limit, resp[j], hp)
		if !fine || r > limit {
			verdict = false
			sc.lastViol = j
			break
		}
		sc.probeResp[j] = r
		sc.probeRT[j], sc.probeNC[j], sc.probeCK[j] = rt, nc, ck
		if r != resp[j] {
			sc.chg = append(sc.chg, chainDelta{c: cs, oldP: periods[j], newP: periods[j], oldR: resp[j], newR: r})
		}
		hp = append(hp, Interferer{WCET: cs, Period: periods[j], Resp: r})
	}
	sc.hp = hp[:0]
	periods[i] = saved
	if !certain {
		return false, false
	}
	if verdict {
		// Every entry above was the exact in-probe fixpoint, so the
		// captured vector is reusable for the line-8 refresh exactly
		// as the cold probe's is.
		sc.probeFrom, sc.probeCand = i, cand
	} else {
		sc.probeFrom = -1
	}
	return verdict, true
}

// recomputeBelow refreshes resp[i+1:] after periods[i] was fixed
// (Algorithm 1 line 8). resp[i] itself depends only on tasks above i
// and is already final.
func recomputeBelow(sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, mode CarryInMode) {
	hp := sc.hp[:0]
	for k := 0; k <= i; k++ {
		hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
	}
	// The component caches were last refreshed with sec[i] still
	// unfixed, i.e. periods[i] = Tmax_i: the chg list starts with that
	// period change and grows with every response this refresh moves,
	// exactly as in probeWarm.
	sc.chg, sc.chgWild = sc.chg[:0], false
	if oldP := sec[i].MaxPeriod; periods[i] != oldP {
		sc.chg = append(sc.chg, chainDelta{c: sec[i].WCET, oldP: oldP, newP: periods[i], oldR: resp[i], newR: resp[i]})
	}
	for j := i + 1; j < len(sec); j++ {
		cs, limit := sec[j].WCET, sec[j].MaxPeriod
		var r, rt, nc, ck task.Time
		var ok bool
		if mode == Dominance && cs <= limit && limit-cs < MaxFixpointIterations {
			// Warm-start from the previous response time: fixing
			// periods[i] only shrank a period, so the stale resp[j] is
			// a lower bound on the new fixpoint (probeWarm's facts 1–2
			// verbatim; the budget gate is the same too).
			r, rt, nc, ck, ok = warmResp(sc, j, cs, limit, resp[j], hp)
		} else {
			r, ok = sc.MigratingWCRT(cs, hp, limit, mode)
			rt = -1
		}
		if !ok {
			r = task.Infinity
			rt = -1
			// An unbounded response in the chain defeats the Lipschitz
			// bound arithmetic; exact layers remain available.
			sc.chgWild = true
		} else if r != resp[j] {
			sc.chg = append(sc.chg, chainDelta{c: cs, oldP: periods[j], newP: periods[j], oldR: resp[j], newR: r})
		}
		sc.rtAt[j], sc.ncAt[j], sc.ckAt[j] = rt, nc, ck
		resp[j] = r
		hp = append(hp, Interferer{WCET: sec[j].WCET, Period: periods[j], Resp: r})
	}
	sc.hp = hp[:0]
}

// warmResp resolves sec[j]'s response time against the (possibly
// perturbed) chain hp, for Dominance mode inside the budget gate. It
// layers three checks, cheapest first, around the cached component
// split Ω_j(resp[j]) = RT + ΣNC + top-k:
//
//  1. Bound layer, O(|chg|) arithmetic, no chain scan: the cached RT
//     part is chain-independent, the cached ΣNC part is corrected
//     EXACTLY for every period in sc.chg (two staircase reads each),
//     and the cached top-k bound is lifted by diffShift's Lipschitz
//     correction per perturbed entry. If even this upper bound keeps
//     f(resp[j]) ≤ resp[j], the pre-probe response is already the
//     least fixed point reachable from below (fact 2 in probeWarm).
//  2. Exact layer: re-run only the pruned top-k carry-in scan against
//     the live chain and recheck with the exact Ω.
//  3. The task genuinely moved: warm-started fixpoint.
//
// Returned rt/nc/ck are the components at r for re-caching (nc and rt
// exact, ck an upper bound after a layer-1 accept); rt = −1 when
// unavailable (line-mode convergence).
func warmResp(sc *Scratch, j int, cs, limit, rj task.Time, hp []Interferer) (r, rt, nc, ck task.Time, fine bool) {
	primed := false
	if cached := sc.rtAt[j]; cached >= 0 && !sc.chgWild && rj >= cs && rj <= limit {
		nc = sc.ncAt[j]
		ck = sc.ckAt[j]
		for k := range sc.chg {
			e := &sc.chg[k]
			if e.newP != e.oldP {
				nc += clampInterference(workloadNC(rj, e.c, e.newP), rj, cs) - clampInterference(workloadNC(rj, e.c, e.oldP), rj, cs)
			}
			ck += e.diffShift(rj, cs)
		}
		if (cached+nc+ck)/task.Time(sc.sysM)+cs <= rj {
			return rj, cached, nc, ck, true
		}
		sc.primeHP(hp)
		primed = true
		ck = sc.carryIn(rj, cs)
		if (cached+nc+ck)/task.Time(sc.sysM)+cs <= rj {
			return rj, cached, nc, ck, true
		}
	}
	if !primed {
		sc.primeHP(hp)
	}
	start := cs
	if rj > cs && rj <= limit {
		start = rj
	}
	r, ok := sc.fixpointPrimed(cs, start, limit)
	if ok && sc.lastY == r {
		return r, sc.lastRT, sc.lastNC, sc.lastCK, true
	}
	return r, -1, 0, 0, ok
}

func indexByName(sec []task.SecurityTask, name string) int {
	for i, s := range sec {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// securityIndex maps each security-task name to its index in sec,
// first occurrence winning — the same resolution rule as indexByName,
// built once instead of rescanned per task (the remap at the end of a
// selection was O(n²)).
func securityIndex(sec []task.SecurityTask) map[string]int {
	idx := make(map[string]int, len(sec))
	for i, s := range sec {
		if _, ok := idx[s.Name]; !ok {
			idx[s.Name] = i
		}
	}
	return idx
}

// Apply writes the selected periods into a clone of ts and returns it;
// convenient for feeding the simulator. It panics if res is not
// schedulable.
func Apply(ts *task.Set, res *Result) *task.Set {
	if !res.Schedulable {
		panic("core.Apply: result is not schedulable")
	}
	cp := ts.Clone()
	for i := range cp.Security {
		cp.Security[i].Period = res.Periods[i]
		cp.Security[i].Core = -1
	}
	return cp
}

// SortSecurityByPriority is a small helper for callers that need the
// priority order index mapping used by Result fields.
func SortSecurityByPriority(sec []task.SecurityTask) []task.SecurityTask {
	out := append([]task.SecurityTask(nil), sec...)
	sort.Slice(out, func(i, j int) bool { return out[i].Priority < out[j].Priority })
	return out
}
