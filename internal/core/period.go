package core

import (
	"context"

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

// Options is the last parameter of SelectPeriods and SelectPeriodsCtx.
// It has no field, because the analysis has one configuration: the
// paper's, with the dominance carry-in bound. It stays because the
// perfbench module, which builds against this package from its own
// go.mod, calls SelectPeriodsCtx(ctx, ts, Options{}).
type Options struct{}

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
func SelectPeriodsCtx(ctx context.Context, ts *task.Set, _ Options) (*Result, error) {
	sc := DefaultScratchPool.Get(nil)
	defer DefaultScratchPool.Put(sc)
	return SelectPeriodsCtxWith(ctx, ts, sc)
}

// SelectPeriodsCtxWith is SelectPeriodsCtx on a caller-owned Scratch:
// identical results — a Reset re-primes every buffer — with zero
// steady-state allocations for callers that keep one workspace per
// worker (AnalyzeBatch, the sweep engine, the baselines). The scratch
// must not be shared across goroutines while the call runs, and the
// returned Result never aliases its buffers. It is the hint-free run
// of the one Algorithm 1 loop, SelectPeriodsResumableWith.
func SelectPeriodsCtxWith(ctx context.Context, ts *task.Set, sc *Scratch) (*Result, error) {
	res, _, err := SelectPeriodsResumableWith(ctx, ts, nil, sc)
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
func logMinPeriod(ctx context.Context, sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, lo, hi task.Time) task.Time {
	if ctx.Err() != nil {
		return hi // the caller surfaces ctx.Err()
	}
	if lowerPrioritySchedulable(sc, sec, periods, resp, i, lo) {
		return lo
	}
	lo++
	star := hi // T̂s initialised to {Tmax}; its minimum so far.
	for lo <= hi {
		if ctx.Err() != nil {
			return star // the caller surfaces ctx.Err()
		}
		mid := (lo + hi) / 2
		if lowerPrioritySchedulable(sc, sec, periods, resp, i, mid) {
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

// lowerPrioritySchedulable is the Algorithm 2 probe (line 5): with
// sec[i]'s period set to cand (and every unprocessed task still at
// Tmax), does every lower-priority security task keep Rj ≤ Tmax_j?
// Response times are recomputed top-down from task i+1, because the
// carry-in bounds of deeper tasks depend on the response times above
// them, and each one is resolved by warmResp, which starts from the
// pre-probe value resp[j] instead of Cs wherever that is provably
// equivalent. Two monotonicity facts carry the equivalence:
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
//     (fixpointPrimed). So starting a task's fixpoint at resp[j]
//     instead of Cs changes the refinement count, never the value —
//     and for the common task the probe does not move at all,
//     f(resp[j]) = resp[j] and one evaluation settles it.
//
// A feasible probe leaves its response vector and component split in
// probeResp/probeRT/probeNC/probeCK, which Algorithm 1's line 8 adopts
// verbatim once the search settles on that candidate. The probe runs
// allocation-free on the scratch and restores periods[i] directly on
// every exit path (a deferred restore would cost a closure per probe
// of the binary search).
func lowerPrioritySchedulable(sc *Scratch, sec []task.SecurityTask, periods, resp []task.Time, i int, cand task.Time) bool {
	saved := periods[i]
	periods[i] = cand
	hp := sc.hp[:0]
	for k := 0; k <= i; k++ {
		hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
	}
	// chg lists the chain entries this probe perturbs relative to the
	// state the component caches were computed under: the candidate's
	// period, then every response the probe moves.
	sc.chg = sc.chg[:0]
	if cand != saved {
		sc.chg = append(sc.chg, chainDelta{c: sec[i].WCET, oldP: saved, newP: cand, oldR: resp[i], newR: resp[i]})
	}
	ok := true
	// Victim-first rejection: the task that sank the previous probe
	// usually sinks this one too. Its response under the STALE chain
	// (resp[] entries for i+1..v−1, each a certified lower bound on the
	// in-probe value by fact 1) lower-bounds the in-probe response by
	// Ω-monotonicity, so a limit overrun here is a sound verdict without
	// touching the tasks in between. A pass proves nothing and falls
	// through to the full scan.
	if v := sc.lastViol; v > i && v < len(sec) && warmable(sec[v]) {
		hpv := hp
		for j := i + 1; j < v; j++ {
			hpv = append(hpv, Interferer{WCET: sec[j].WCET, Period: periods[j], Resp: resp[j]})
		}
		r, _, _, _, fine := warmResp(sc, v, sec[v], resp[v], hpv)
		ok = fine && r <= sec[v].MaxPeriod
	}
	for j := i + 1; ok && j < len(sec); j++ {
		s := sec[j]
		r, rt, nc, ck, fine := warmResp(sc, j, s, resp[j], hp)
		if !fine || r > s.MaxPeriod {
			ok = false
			sc.lastViol = j
			break
		}
		sc.probeResp[j] = r
		sc.probeRT[j], sc.probeNC[j], sc.probeCK[j] = rt, nc, ck
		if r != resp[j] {
			sc.chg = append(sc.chg, chainDelta{c: s.WCET, oldP: periods[j], newP: periods[j], oldR: resp[j], newR: r})
		}
		hp = append(hp, Interferer{WCET: s.WCET, Period: periods[j], Resp: r})
	}
	sc.hp = hp[:0]
	periods[i] = saved
	if ok {
		sc.probeFrom, sc.probeCand = i, cand
	} else {
		sc.probeFrom = -1
	}
	return ok
}

// warmable reports whether s passes the budget gate under which a
// warm-started fixpoint provably agrees with the cold one. The
// skipped refinements make the iteration budget the one place a warm
// start could drift: the naive creep from Cs lifts x by ≥ 1 tick per
// refinement, so a task with Tmax − Cs < MaxFixpointIterations
// resolves (converges or overruns Tmax) within the budget, and a warm
// start cannot disagree with a budget-exhaustion verdict that cannot
// happen. Tasks at 2^40-tick scales fail the gate and run cold, where
// line mode counts refinements faithfully.
func warmable(s task.SecurityTask) bool {
	return s.WCET <= s.MaxPeriod && s.MaxPeriod-s.WCET < MaxFixpointIterations
}

// warmResp resolves sec[j]'s response time against the (possibly
// perturbed) chain hp. For a task that fails the warmable gate it is
// the cold MigratingWCRT from Cs. Otherwise it layers three checks,
// cheapest first, around the cached component split
// Ω_j(rj) = RT + ΣNC + top-k:
//
//  1. Bound layer, O(|chg|) arithmetic, no chain scan: the cached RT
//     part is chain-independent, the cached ΣNC part is corrected
//     EXACTLY for every period in sc.chg (two staircase reads each),
//     and the cached top-k bound is lifted by diffShift's Lipschitz
//     correction per perturbed entry. If even this upper bound keeps
//     f(rj) ≤ rj, the pre-probe response is already the least fixed
//     point reachable from below (fact 2 of lowerPrioritySchedulable).
//  2. Exact layer: re-run only the pruned top-k carry-in scan against
//     the live chain and recheck with the exact Ω.
//  3. The task genuinely moved: fixpoint warm-started at rj.
//
// Returned rt/nc/ck are the components at r for re-caching (nc and rt
// exact, ck an upper bound after a layer-1 accept); rt = −1 when
// unavailable (cold runs and line-mode convergences).
func warmResp(sc *Scratch, j int, s task.SecurityTask, rj task.Time, hp []Interferer) (r, rt, nc, ck task.Time, fine bool) {
	cs, limit := s.WCET, s.MaxPeriod
	if !warmable(s) {
		r, fine = sc.MigratingWCRT(cs, hp, limit)
		return r, -1, 0, 0, fine
	}
	primed := false
	if cached := sc.rtAt[j]; cached >= 0 && rj >= cs && rj <= limit {
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
