package core

import "hydrac/internal/task"

// This file is the hot Eq. 5–8 kernel: an allocation-free,
// staircase-accelerated evaluation of the interference function Ω and
// its Eq. 7 fixed point. The naive forms in wcrt.go (omegaDominance,
// fixedPoint) remain the readable reference — the Exhaustive mode and
// the equivalence property tests still run them — but every production
// path goes through a Scratch.
//
// Three observations drive the design:
//
//  1. The Eq. 7 refinement sequence is the contract. The iteration
//     budget (MaxFixpointIterations) is part of the analysis
//     definition — a set the naive creep abandons mid-iteration must
//     stay abandoned — so the kernel never changes WHICH refinements
//     happen, only how cheaply they are computed and counted.
//
//  2. Ω is piecewise LINEAR in the window length x. Every elementary
//     term — an Eq. 2 staircase, an Eq. 4 carry-in bound, the
//     x−Cs+1 interference clamp of Eqs. 3/5, and the top-(M−1)
//     dominance selection of Eq. 6 — is linear between breakpoints:
//     task release-structure edges, clamp crossovers, and changes of
//     the selected carry-in set. One pass over the tasks yields the
//     exact value, slope and next breakpoint of Ω at x (omegaLine).
//     On such a piece every refinement is three integer operations,
//     and when the slope is exactly M the stride is constant, so the
//     clamp-bound creep the iteration budget exists for — millions of
//     one-tick refinements — is counted in closed form and resolved
//     in O(1).
//
//  3. Creep betrays itself: slope-M pieces produce runs of EQUAL
//     short strides. The kernel therefore runs a lean value-only
//     evaluation (omegaValue — the naive arithmetic without the sort
//     or the allocations) and drops into the piecewise-linear escape
//     only when two consecutive strides match below creepStride;
//     after the piece is resolved it returns to the fast path. Long-
//     stride iterations — the common converging case — never pay for
//     piece geometry they would not use.
//
// Because both evaluators compute the identical Ω and the escape
// replays (or batch-counts) the identical refinements, results are
// bit-identical to the naive creep in every case, including the
// conservative MaxFixpointIterations verdicts. The equivalence is
// property-tested against the reference creep in scratch_test.go and
// pinned end-to-end by the differential oracle corpus.

// Scratch is the reusable per-analysis workspace of the kernel: the
// RT band flattened into structure-of-arrays form plus the buffers the
// fixpoint and the period-selection helpers need. One Scratch serves
// one analysis at a time — SelectPeriodsCtx borrows one, the admission
// engine and AnalyzeBatch's workers own one — and must never be shared
// across goroutines. Reset re-primes it for a new System, reusing all
// capacity, so steady-state analyses allocate nothing.
type Scratch struct {
	sys  *System
	sysM int

	// coreEnd delimits the RT band per core: core m's tasks span
	// rtWin[coreEnd[m−1]:coreEnd[m]] (built once per Reset).
	coreEnd []int

	// diffs is the Eq. 6 carry-in selection buffer.
	diffs []diffTerm

	// rtWin is the RT band's period-window cache: each task carries
	// its current period window [lo, hi) and the completed-jobs
	// workload qc, so the hot path computes an Eq. 2 workload with a
	// compare and a subtract instead of a 64-bit div+mod. A window is
	// a pure function of the window length, so it stays valid across
	// calls — the division reruns only when an evaluation leaves the
	// window on either side. One packed struct per task keeps the
	// walk on ~1.5 cache lines per four tasks.
	rtWin []rtWindow

	// probeResp/probeCand/probeFrom capture the response-time vector
	// of the most recent fully-feasible Algorithm 2 probe, so the
	// line-8 refresh after a search adopts the star probe's fixpoints
	// instead of re-running them.
	probeResp []task.Time
	probeCand task.Time
	probeFrom int

	// hp is the probe-scoped interferer buffer shared by the leaf
	// helpers (responseTimes, lowerPrioritySchedulable,
	// additionsFeasible), which never nest.
	hp []Interferer

	// hpWin caches the higher-priority migrating band's Eq. 2/4
	// staircases as period windows, exactly as rtWin does for the RT
	// band: primeHP loads it at every MigratingWCRT entry (the hp
	// set is fixed for the duration of one fixpoint), after which each
	// Eq. 5 term costs a compare and a subtract per iteration instead
	// of the two 64-bit divisions of workloadNC + workloadCI. Priming
	// keeps the longest prefix whose derived fields already match, so
	// the selection loops — which re-prime the same interferer prefix
	// hundreds of times per search — carry the warm window caches
	// across probes instead of rebuilding them.
	hpWin []hpWindow

	// topk is the bounded min-heap over the k = M−1 largest carry-in
	// differences (values only; the top-k SUM is selection-order
	// independent, so a value heap reproduces the reference sort).
	topk []task.Time

	// heapIdx is omegaLine's bounded min-heap of diff indices, ordered
	// by the reference selection key (value desc, slope desc, index
	// asc) so the selected SET — which the piece geometry depends on —
	// is exactly the reference's.
	heapIdx []int32

	// resp/periods back the per-analysis working vectors of the
	// period-selection entry points.
	resp, periods []task.Time

	// rtAt/ncAt/ckAt split Ω_j(resp[j]) = RT + ΣNC + top-k into its
	// components, cached per task under the currently stored
	// periods/resp state (valid iff rtAt[j] ≥ 0). rtAt and ncAt are
	// exact; ckAt is an upper bound on the top-k term (exact whenever
	// it was refreshed by an evaluation, possibly slack after
	// bound-layer accepts — the slack only costs an extra recheck
	// later, never correctness). The RT band depends only on the
	// window length; the non-carry-in sum moves only with a chain
	// entry's PERIOD, by an exact two-staircase-read correction; the
	// top-k term moves with periods and response times, bounded
	// per-entry by diffShift (a top-k sum is 1-Lipschitz in each
	// candidate). warmResp in period.go layers these: O(1) bound
	// check, then an exact pruned carry-in rescan, then the fixpoint.
	// probeRT/probeNC/probeCK capture the per-probe values the way
	// probeResp captures the responses; the line-8 capture promotes
	// them together. chg lists the chain entries the current probe has
	// perturbed relative to the cached state.
	rtAt, ncAt, ckAt, probeRT, probeNC, probeCK []task.Time
	chg                                         []chainDelta
	// lastViol remembers which task sank the most recent infeasible
	// probe: violators are sticky across a binary search, and a
	// victim-first recheck against the stale chain (a certified lower
	// bound on the in-probe interference) rejects most infeasible
	// candidates without touching the tasks in between.
	lastViol int

	// lastY/lastRT/lastNC/lastCK record the component split of the
	// most recent omegaValue evaluation, so a fixpoint that converges
	// on a value evaluation (lastY == result) hands its caller the
	// exact split for re-caching without extra work.
	lastY, lastRT, lastNC, lastCK task.Time

	// rtLine caches each core's unclamped Eq. 3 staircase sum as a
	// local line (value at y0, slope, valid on [y0, bp)): at large n a
	// refinement moves y far less than one piece, so the steady-state
	// RT-band read is O(cores) instead of O(RT tasks).
	rtLine []coreLine
}

// coreLine is one core's cached staircase-sum piece.
type coreLine struct {
	y0, v, s, bp task.Time
}

// chainDelta is one perturbed chain entry: an interferer whose period
// and/or recorded response time differs from the state the component
// caches were computed under.
type chainDelta struct {
	c, oldP, newP, oldR, newR task.Time
}

// diffShift bounds, from above, how much this entry's perturbation
// can raise the top-k dominance term at window length y for a task
// with WCET cs: replacing one candidate difference d by d' moves a
// top-k sum by at most max(0, d'−d) upward (1-Lipschitz per element;
// candidates below zero never enter, hence the floors). Inputs must
// be sane (responses at or below periods); the callers poison the
// bound layer otherwise.
func (e *chainDelta) diffShift(y, cs task.Time) task.Time {
	ncOld := clampInterference(workloadNC(y, e.c, e.oldP), y, cs)
	ncNew := ncOld
	if e.newP != e.oldP {
		ncNew = clampInterference(workloadNC(y, e.c, e.newP), y, cs)
	}
	dOld := clampInterference(workloadCI(y, e.c, e.oldP, e.oldR), y, cs) - ncOld
	dNew := clampInterference(workloadCI(y, e.c, e.newP, e.newR), y, cs) - ncNew
	if dOld < 0 {
		dOld = 0
	}
	if dNew < 0 {
		dNew = 0
	}
	if dNew > dOld {
		return dNew - dOld
	}
	return 0
}

// rtWindow is one staircase task's demand and current period window.
type rtWindow struct {
	c, t, qc, lo, hi task.Time
}

// hpWindow is one higher-priority migrating task's pair of cached
// staircases: the Eq. 2 non-carry-in workload over the window length
// y, and the Eq. 4 carry-in staircase over the shifted coordinate
// z = y − x̄ (its tail term min(y, C−1) is division-free and computed
// inline).
type hpWindow struct {
	nc   rtWindow
	ci   rtWindow
	xbar task.Time
	cm1  task.Time
}

// primeHP loads the interferer band into the scratch's staircase
// window caches. The windows start invalid (hi = −1) and fill lazily
// at first use, so priming costs one pass of plain stores — no
// divisions — and pays for itself from the second fixpoint iteration
// on.
//
// Priming preserves the longest already-loaded prefix whose derived
// fields (C, T, x̄) match the new band. The selection loops prime the
// same 0..i prefix for every probe and grow the chain one interferer
// per task, so in steady state a prime costs a prefix of equality
// compares plus one appended entry — the warm period windows (valid
// for any window length once filled, being pure functions of (C, T))
// survive instead of being rebuilt per MigratingWCRT entry.
func (sc *Scratch) primeHP(hp []Interferer) {
	hw := sc.hpWin
	p := 0
	for p < len(hw) && p < len(hp) {
		h := &hp[p]
		w := &hw[p]
		if w.nc.c != h.WCET || w.nc.t != h.Period || w.xbar != h.WCET-1+h.Period-h.Resp {
			break
		}
		p++
	}
	hw = hw[:p]
	for j := p; j < len(hp); j++ {
		h := &hp[j]
		hw = append(hw, hpWindow{
			nc:   rtWindow{c: h.WCET, t: h.Period, hi: -1},
			ci:   rtWindow{c: h.WCET, t: h.Period, hi: -1},
			xbar: h.WCET - 1 + h.Period - h.Resp,
			cm1:  h.WCET - 1,
		})
	}
	sc.hpWin = hw
}

// diffTerm is one higher-priority migrating task's carry-in minus
// non-carry-in interference difference — a plain value for the fast
// evaluator, a linear function of the window length (v, s) for the
// piecewise escape.
type diffTerm struct {
	v, s task.Time
	sel  bool
}

// NewScratch returns a workspace primed for sys (which may be nil;
// call Reset before use then).
func NewScratch(sys *System) *Scratch {
	sc := &Scratch{}
	if sys != nil {
		sc.Reset(sys)
	}
	return sc
}

// Reset primes the scratch for a new System, reusing every buffer.
func (sc *Scratch) Reset(sys *System) {
	sc.sys = sys
	sc.sysM = sys.M
	sc.rtWin = sc.rtWin[:0]
	sc.coreEnd = sc.coreEnd[:0]
	for _, demands := range sys.RTCores {
		for _, d := range demands {
			sc.rtWin = append(sc.rtWin, rtWindow{c: d.WCET, t: d.Period, hi: -1})
		}
		sc.coreEnd = append(sc.coreEnd, len(sc.rtWin))
	}
	if cap(sc.rtLine) < len(sc.coreEnd) {
		sc.rtLine = make([]coreLine, len(sc.coreEnd))
	}
	sc.rtLine = sc.rtLine[:len(sc.coreEnd)]
	for i := range sc.rtLine {
		sc.rtLine[i] = coreLine{y0: 1} // y0 > bp: primed invalid
	}
	if k := sys.M - 1; k > 0 {
		if cap(sc.topk) < k {
			sc.topk = make([]task.Time, 0, k)
		}
		if cap(sc.heapIdx) < k {
			sc.heapIdx = make([]int32, 0, k)
		}
	}
	sc.probeFrom = -1
	sc.lastViol = -1
}

// refill recomputes the task's period window at window length y. The
// first period — where every call starts, since the iteration begins
// at Cs — needs no division. The body must stay under the compiler's
// inlining budget: it sits on the innermost staircase walk, and a
// call here costs more than the division it wraps.
func (w *rtWindow) refill(y task.Time) {
	if y < w.t {
		w.lo, w.hi, w.qc = 0, w.t, 0
		return
	}
	q := y / w.t
	w.lo = q * w.t
	w.hi = satAdd(w.lo, w.t)
	w.qc = q * w.c
}

// rtCore reads one core's unclamped staircase sum through the cached
// line, rebuilding the piece from the core's windows only when y has
// left it. Exactness is the same argument as omegaLine's RT band: the
// sum is linear with slope = climbing windows until the first window
// crosses into its flat tail (lo+c) or its next period (hi).
func (sc *Scratch) rtCore(c int, wins []rtWindow, y task.Time) (v, s, bp task.Time) {
	cl := &sc.rtLine[c]
	if y >= cl.y0 && y < cl.bp {
		return cl.v + cl.s*(y-cl.y0), cl.s, cl.bp
	}
	bp = task.Infinity
	for i := range wins {
		win := &wins[i]
		if y >= win.hi || y < win.lo {
			win.refill(y)
		}
		if r := y - win.lo; r < win.c {
			v += win.qc + r
			s++
			if b := win.lo + win.c; b < bp {
				bp = b
			}
		} else {
			v += win.qc + win.c
			if win.hi < bp {
				bp = win.hi
			}
		}
	}
	cl.y0, cl.v, cl.s, cl.bp = y, v, s, bp
	return v, s, bp
}

// ensure pre-sizes the selection buffers for a security band of n
// tasks so the steady-state selection loops never grow them.
func (sc *Scratch) ensure(n int) {
	if cap(sc.hp) < n {
		sc.hp = make([]Interferer, 0, n)
	}
	if cap(sc.diffs) < n {
		sc.diffs = make([]diffTerm, 0, n)
	}
	if cap(sc.hpWin) < n {
		sc.hpWin = make([]hpWindow, 0, n)
	}
	if cap(sc.resp) < n {
		sc.resp = make([]task.Time, 0, n)
	}
	if cap(sc.periods) < n {
		sc.periods = make([]task.Time, 0, n)
	}
	if cap(sc.probeResp) < n {
		sc.probeResp = make([]task.Time, n)
	}
	sc.probeResp = sc.probeResp[:n]
	if cap(sc.chg) < n {
		sc.chg = make([]chainDelta, 0, n)
	}
	for _, b := range []*[]task.Time{&sc.rtAt, &sc.ncAt, &sc.ckAt, &sc.probeRT, &sc.probeNC, &sc.probeCK} {
		if cap(*b) < n {
			*b = make([]task.Time, n)
		}
		*b = (*b)[:n]
	}
	for i := range sc.rtAt {
		sc.rtAt[i] = -1
	}
	sc.probeFrom = -1
}

// replayCeiling bounds the in-piece offsets the replay multiplies the
// slope by; past it the kernel re-evaluates Ω instead, avoiding
// overflow on sets with 2^60-scale ticks. The fallback stays exact —
// an evaluation is stateless.
const replayCeiling task.Time = 1 << 50

// creepStride is the refinement stride below which a run of equal
// strides is treated as clamp-bound creep and handed to the
// piecewise-linear escape. The trigger is a pure evaluation-strategy
// switch — the refinement sequence is identical on both sides — so
// the value moves constant factors, never results.
const creepStride task.Time = 64

// MigratingWCRT computes the worst-case response time of a migrating
// task with execution time cs, under interference from the partitioned
// RT band of the scratch's System and the higher-priority migrating
// tasks hp (whose periods and response times are already known). The
// fixed-point iteration (Eq. 7)
//
//	x ← ⌊Ω(x)/M⌋ + Cs
//
// starts at x = Cs and stops at the least fixed point, or reports
// failure once x exceeds limit (the task is then unschedulable within
// its period bound, §4.4). It runs the refinement sequence of the
// reference creep (fixedPoint over omegaDominance), with clamp-bound
// creep resolved through the piecewise-linear form of Ω instead of one
// full evaluation per tick, and makes no steady-state allocations. The
// Exhaustive mode delegates to the literal Eq. 8 enumeration (a test
// oracle; it allocates freely).
func (sc *Scratch) MigratingWCRT(cs task.Time, hp []Interferer, limit task.Time, mode CarryInMode) (task.Time, bool) {
	if cs > limit {
		return task.Infinity, false
	}
	if mode == Exhaustive {
		return sc.sys.migratingWCRTExhaustive(cs, hp, limit)
	}
	sc.primeHP(hp)
	return sc.fixpointPrimed(cs, cs, limit)
}

// fixpointPrimed runs the Eq. 7 refinement on the already-primed
// interferer band, starting from start — which must be a sound lower
// bound on the least fixed point (cs always is; the warm-started
// probes pass the pre-probe response time, see warmResp). Iterating
// a monotone f from any x₀ ≤ lfp climbs monotonically to the SAME
// least fixed point — f(x₀) < x₀ would put a fixed point below x₀ by
// Knaster–Tarski, contradicting x₀ ≤ lfp — so the start only changes
// how many refinements are spent, never the result.
//
// A convergence decided by a value evaluation leaves the exact Ω
// component split in lastY/lastRT/lastNC (lastY == result then);
// line-mode convergences do not refresh them, which callers detect by
// lastY ≠ result.
func (sc *Scratch) fixpointPrimed(cs, start, limit task.Time) (task.Time, bool) {
	m := task.Time(sc.sysM)
	x := start
	iters := 0
	lastStride := task.Time(-1)
	// One line build walks every interferer; a pruned value evaluation
	// walks a small prefix. Line mode therefore has to save that many
	// evaluations to break even, so the switch waits for a stall — a
	// run of short, non-growing strides — proportional to the band
	// size before engaging. Pure evaluation strategy: the refinement
	// sequence is identical on both sides of the trigger.
	stallFor := 2 + (len(sc.hpWin)+len(sc.rtWin))/32
	stalled := 0
	for iters < MaxFixpointIterations {
		iters++
		next := sc.omegaValue(x, cs)/m + cs
		if next == x {
			return x, true
		}
		if next > limit || next < x {
			return task.Infinity, false
		}
		stride := next - x
		x = next
		if stride >= creepStride || stride > lastStride || lastStride < 0 {
			lastStride = stride
			stalled = 0
			continue
		}
		lastStride = stride
		if stalled++; stalled < stallFor {
			continue
		}
		stalled = 0
		lastStride = -1

		// A short stride that failed to grow: the signature of a
		// creep region (slope-M pieces hold their stride constant;
		// growth phases strictly lengthen it), where the naive creep
		// would grind one full evaluation per refinement. Switch to
		// line mode:
		// one line evaluation per piece, the in-piece refinements
		// replayed at three integer ops each — or counted in closed
		// form when the slope really is M. Line mode is sticky across
		// consecutive creeping pieces (a creep region is many short
		// pieces in a row) and hands back to the fast path as soon as
		// a long stride shows the creep is over.
	lineMode:
		for iters < MaxFixpointIterations {
			omega, slope, bp := sc.omegaLine(x, cs)
			x0 := x
			for iters < MaxFixpointIterations {
				if x-x0 >= replayCeiling {
					break // refresh the line before the products get risky
				}
				iters++
				next := (omega+slope*(x-x0))/m + cs
				if next == x {
					return x, true
				}
				if next > limit || next < x {
					return task.Infinity, false
				}
				if next >= bp {
					// Crossed into the next piece.
					crossed := next - x
					x = next
					if crossed >= creepStride {
						break lineMode // long stride: creep over, fast path resumes
					}
					break
				}
				if slope == m {
					// Constant stride δ = next − x through the rest of
					// the piece: count the remaining refinements in
					// closed form instead of one at a time. This is
					// the MaxFixpointIterations pathology reduced to
					// O(1).
					delta := next - x
					steps := (bp - next + delta - 1) / delta // refinements from next to reach ≥ bp
					if firstPast := (limit-next)/delta + 1; firstPast <= steps {
						// One of them overshoots the limit first.
						return task.Infinity, false
					}
					if steps > task.Time(MaxFixpointIterations-iters) {
						// The naive creep exhausts the budget inside
						// the piece: the same conservative verdict.
						return task.Infinity, false
					}
					iters += int(steps)
					x = next + steps*delta
					break
				}
				// slope ≠ M: the gap f(y) − y strictly drifts
				// (shrinking toward the fixed point below M, growing
				// past the breakpoint above it), so this loop is
				// short.
				x = next
			}
		}
	}
	return task.Infinity, false
}

// omegaValue evaluates Eq. 6 at window length y exactly as
// omegaDominance does — same workload formulas, same clamp, same
// top-(M−1) dominance sum — without the sort, the allocations, or any
// piece bookkeeping: every staircase (RT band and, via primeHP, the
// migrating band) reads through its period window, so the
// steady-state cost per task is a compare and a subtract. It is the
// kernel's fast-path evaluator. The RT and non-carry-in components it
// computes are recorded in lastY/lastRT/lastNC for the exact per-task
// caches (see warmResp).
func (sc *Scratch) omegaValue(y, cs task.Time) task.Time {
	capv := y - cs + 1
	var rt task.Time
	start := 0
	rtWin := sc.rtWin
	for c, end := range sc.coreEnd {
		w, _, _ := sc.rtCore(c, rtWin[start:end], y)
		start = end
		if w > capv {
			w = capv
		}
		rt += w
	}
	// Non-carry-in band: each interferer's clamped Eq. 2 term, read
	// through its period window.
	var ncSum task.Time
	if y > 0 {
		hw := sc.hpWin
		for j := range hw {
			w := &hw[j].nc
			if y >= w.hi || y < w.lo {
				w.refill(y)
			}
			r := y - w.lo
			if r > w.c {
				r = w.c
			}
			ncSum += min(w.qc+r, capv)
		}
	}
	ck := sc.carryIn(y, cs)
	sc.lastY, sc.lastRT, sc.lastNC, sc.lastCK = y, rt, ncSum, ck
	return rt + ncSum + ck
}

// carryIn evaluates the Eq. 5/6 dominance term — the sum of the
// at-most-(M−1) largest positive carry-in minus non-carry-in
// differences — in one pass over the band, skipping every entry with
// x̄ ≥ y before reading its staircases. A skipped entry cannot
// contribute: with z = y − x̄ ≤ 0 the carry-in bound collapses to
// min(y, C−1), which the non-carry-in floor W^NC(y) ≥ min(y, C)
// matches or beats under the shared clamp, so its difference is never
// positive and the reference selection skips it identically. Each
// scanned entry's Eq. 2 term is read inline, so the scan stands alone:
// warmResp's exact recheck pays for this pass only, with the other Ω
// components served from its caches.
func (sc *Scratch) carryIn(y, cs task.Time) task.Time {
	k := sc.sysM - 1
	if k <= 0 || y <= 0 {
		return 0
	}
	capv := y - cs + 1
	hw := sc.hpWin
	// A bounded min-heap of the k largest differences. The heap keys
	// on values alone — the top-k SUM is selection-order independent,
	// so ties resolve to the same total as the reference sort, whatever
	// order the band is scanned in. An entry displaces the root only
	// when strictly larger.
	heap := sc.topk[:0]
	for j := range hw {
		h := &hw[j]
		if h.xbar >= y {
			continue
		}
		ci := min(y, h.cm1)
		if z := y - h.xbar; z > 0 {
			w := &h.ci
			if z >= w.hi || z < w.lo {
				w.refill(z)
			}
			r := z - w.lo
			if r > w.c {
				r = w.c
			}
			ci += w.qc + r
		}
		if ci > capv {
			ci = capv
		}
		w := &h.nc
		if y >= w.hi || y < w.lo {
			w.refill(y)
		}
		r := y - w.lo
		if r > w.c {
			r = w.c
		}
		nc := w.qc + r
		if nc > capv {
			nc = capv
		}
		d := ci - nc
		if d <= 0 {
			continue
		}
		if len(heap) < k {
			heap = append(heap, d)
			siftUpTime(heap, len(heap)-1)
		} else if d > heap[0] {
			heap[0] = d
			siftDownTime(heap)
		}
	}
	sc.topk = heap
	var omega task.Time
	for _, d := range heap {
		omega += d
	}
	return omega
}

// siftUpTime restores the min-heap property after appending h[i].
func siftUpTime(h []task.Time, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDownTime restores the min-heap property after replacing h[0].
func siftDownTime(h []task.Time) {
	i, n := 0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && h[r] < h[l] {
			s = r
		}
		if h[i] <= h[s] {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// omegaLine evaluates Eq. 6 at window length y exactly as
// omegaDominance does, and additionally reports the slope of Ω and the
// next breakpoint bp > y such that Ω is linear with that slope on
// [y, bp). It allocates nothing in steady state. The interferer band
// must be primed (primeHP) — MigratingWCRT always has.
func (sc *Scratch) omegaLine(y, cs task.Time) (omega, slope, bp task.Time) {
	capv := y - cs + 1
	bp = task.Infinity

	// Eq. 3: the partitioned RT band, one clamped staircase sum per
	// core, read through the same period windows as the fast path.
	start := 0
	rtWin := sc.rtWin
	for c, end := range sc.coreEnd {
		wv, ws, wb := sc.rtCore(c, rtWin[start:end], y)
		start = end
		v, s, b := clampLine(y, cs, wv, ws, wb, capv)
		omega += v
		slope += s
		if b < bp {
			bp = b
		}
	}

	// Eq. 5: higher-priority migrating tasks. Every task contributes
	// its non-carry-in interference; the carry-in/non-carry-in
	// differences feed the top-(M−1) dominance selection (skipped
	// entirely when M == 1, where the carry-in set is empty).
	k := sc.sysM - 1
	diffs := sc.diffs[:0]
	hw := sc.hpWin
	for j := range hw {
		h := &hw[j]
		nv, ns, nb := h.nc.lineAt(y)
		nv, ns, nb = clampLine(y, cs, nv, ns, nb, capv)
		omega += nv
		slope += ns
		if nb < bp {
			bp = nb
		}
		if k > 0 {
			cv, cslope, cb := h.lineCI(y)
			cv, cslope, cb = clampLine(y, cs, cv, cslope, cb, capv)
			if cb < bp {
				bp = cb
			}
			diffs = append(diffs, diffTerm{v: cv - nv, s: cslope - ns})
		}
	}
	sc.diffs = diffs

	if len(diffs) > 0 {
		// Select the at-most-k largest positive differences. The
		// selected SET (not just its sum) shapes the piece — slope and
		// breakpoint depend on which members are in — so the selection
		// reproduces the reference's max-extraction order exactly:
		// value ties break toward the larger slope (the selection then
		// matches Ω's forward behaviour and stays stable for at least
		// one tick), remaining ties toward the lower index. That total
		// order lets a bounded min-heap of indices replace the k-pass
		// scan: the k best under the order are the k the passes pick.
		nsel := 0
		if len(diffs) <= k {
			for i := range diffs {
				if diffs[i].v > 0 {
					diffs[i].sel = true
					nsel++
					omega += diffs[i].v
					slope += diffs[i].s
				}
			}
		} else {
			ih := sc.heapIdx[:0]
			for i := range diffs {
				if diffs[i].v <= 0 {
					continue
				}
				if len(ih) < k {
					ih = append(ih, int32(i))
					siftUpDiff(diffs, ih, len(ih)-1)
				} else if diffWorse(diffs, ih[0], int32(i)) {
					ih[0] = int32(i)
					siftDownDiff(diffs, ih)
				}
			}
			sc.heapIdx = ih
			for _, i := range ih {
				diffs[i].sel = true
				omega += diffs[i].v
				slope += diffs[i].s
			}
			nsel = len(ih)
		}
		// The piece ends wherever the selected set could change: a
		// selected difference decaying to zero, a non-positive one
		// turning positive while slots are free, or an unselected one
		// overtaking a selected one with smaller slope. The overtake
		// cut uses a conservative proxy instead of the pairwise scan:
		// the line (vmin, smin) built from the minimum selected value
		// and minimum selected slope lies at or below every selected
		// line for offsets ≥ 0, so an unselected line crosses it no
		// later than it crosses any real selected line. A bp that is
		// merely early is harmless — the piece ends sooner and the next
		// build re-evaluates exactly — while a late one would be a bug;
		// the proxy errs only early.
		vmin, smin := task.Infinity, task.Infinity
		for i := range diffs {
			d := &diffs[i]
			if !d.sel {
				continue
			}
			if d.v < vmin {
				vmin = d.v
			}
			if d.s < smin {
				smin = d.s
			}
			if d.s < 0 {
				if b := satAdd(y, floorDiv(d.v-1, -d.s)+1); b < bp {
					bp = b
				}
			}
		}
		for i := range diffs {
			d := &diffs[i]
			if d.sel {
				continue
			}
			if d.v <= 0 && d.s <= 0 {
				continue
			}
			if d.v <= 0 && nsel < k {
				if b := satAdd(y, floorDiv(-d.v, d.s)+1); b < bp {
					bp = b
				}
				continue
			}
			if nsel > 0 && d.s > smin {
				if b := satAdd(y, floorDiv(vmin-d.v, d.s-smin)+1); b < bp {
					bp = b
				}
			}
		}
	}

	if bp <= y {
		bp = y + 1
	}
	return omega, slope, bp
}

// diffWorse reports whether diffs[a] ranks strictly below diffs[b]
// under omegaLine's selection order: value descending, slope
// descending, index ascending. The order is total (indices are
// distinct), so the k best under it are exactly the k entries the
// reference max-extraction passes pick.
func diffWorse(diffs []diffTerm, a, b int32) bool {
	da, db := &diffs[a], &diffs[b]
	if da.v != db.v {
		return da.v < db.v
	}
	if da.s != db.s {
		return da.s < db.s
	}
	return a > b
}

// siftUpDiff restores the min-heap-by-diffWorse property after
// appending h[i].
func siftUpDiff(diffs []diffTerm, h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !diffWorse(diffs, h[i], h[p]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDownDiff restores the min-heap-by-diffWorse property after
// replacing h[0].
func siftDownDiff(diffs []diffTerm, h []int32) {
	i, n := 0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && diffWorse(diffs, h[r], h[l]) {
			s = r
		}
		if !diffWorse(diffs, h[s], h[i]) {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// lineAt is workloadNC (Eq. 2) as a linear piece read through the
// cached window: value and slope at window length y, plus the
// absolute position of the next kink.
func (w *rtWindow) lineAt(y task.Time) (v, s, b task.Time) {
	if y <= 0 {
		// Below one tick the workload is pinned at zero; the first
		// job's ramp starts at y = 0.
		if w.c > 0 {
			return 0, 1, satAdd(y, w.c)
		}
		return 0, 0, task.Infinity
	}
	if y >= w.hi || y < w.lo {
		w.refill(y)
	}
	r := y - w.lo
	if r < w.c {
		return w.qc + r, 1, satAdd(y, w.c-r)
	}
	return w.qc + w.c, 0, satAdd(y, w.t-r)
}

// lineCI is workloadCI (Eq. 4) as a linear piece, read through the
// cached shifted window.
func (h *hpWindow) lineCI(y task.Time) (v, s, b task.Time) {
	var hv, hs, hb task.Time
	if y <= h.xbar {
		// The shifted staircase has not started: flat zero through
		// xbar, first ramp tick at xbar+1.
		hv, hs, hb = 0, 0, satAdd(h.xbar, 1)
	} else {
		hv, hs, hb = h.ci.lineAt(y - h.xbar)
		hb = satAdd(h.xbar, hb)
	}
	tv, ts, tb := h.cm1, task.Time(0), task.Infinity
	if y < h.cm1 {
		tv, ts, tb = y, 1, h.cm1+1
	}
	return hv + tv, hs + ts, min(hb, tb)
}

// clampLine applies the Eq. 3/5 interference clamp min(w, y−Cs+1) to a
// linear workload piece (wv, ws) valid until wb, tightening the kink
// to the clamp crossover when the two lines meet inside the piece
// (the clamp line has slope 1, so a crossover from below needs
// ws ≥ 2). While the clamp binds the term ignores the workload's
// internal kinks entirely, so the piece extends past wb to wherever
// the clamp could first release: the workload never shrinks, hence
// w(y) ≥ wv, and the cap line y−cs+1 cannot reach wv before
// y = wv + cs. That one observation turns the clamp-bound creep — the
// regime the iteration budget exists for — from a kink-by-kink walk
// into a single piece per clamp release.
func clampLine(y, cs, wv, ws, wb, capv task.Time) (task.Time, task.Time, task.Time) {
	if wv <= capv {
		b := wb
		if ws >= 2 {
			if cb := satAdd(y, floorDiv(capv-wv, ws-1)+1); cb < b {
				b = cb
			}
		}
		return wv, ws, b
	}
	b := satAdd(wv, cs)
	if ws >= 1 && wb > b {
		// The workload line outruns the cap line for as long as it
		// stays structurally valid, so the clamp holds to wb too.
		b = wb
	}
	return capv, 1, b
}

// responseTimes is ResponseTimes on the scratch, restricted to
// sec[from:]: it fills resp[from:] top-down under a chain whose first
// `from` levels are final (periods and resp[:from] filled in) and
// whose remaining levels run at periods[from:], reusing the interferer
// buffer. Each converged value's Ω component split is cached for
// warmResp. Lines 2–4 run it with from = 0; a prefix-adopted selection
// runs it from the first level it did not adopt.
func (sc *Scratch) responseTimes(sec []task.SecurityTask, periods []task.Time, mode CarryInMode, resp []task.Time, from int) {
	hp := sc.hp[:0]
	for k := 0; k < from; k++ {
		hp = append(hp, Interferer{WCET: sec[k].WCET, Period: periods[k], Resp: resp[k]})
	}
	for i := from; i < len(sec); i++ {
		s := sec[i]
		r, ok := sc.MigratingWCRT(s.WCET, hp, s.MaxPeriod, mode)
		sc.rtAt[i] = -1
		if ok && mode != Exhaustive && sc.lastY == r {
			sc.rtAt[i], sc.ncAt[i], sc.ckAt[i] = sc.lastRT, sc.lastNC, sc.lastCK
		}
		if !ok {
			// A diverged task still interferes with lower-priority
			// ones; bound its carry-in pessimistically with R = T so
			// the analysis of the rest remains sound.
			resp[i] = task.Infinity
			hp = append(hp, Interferer{WCET: s.WCET, Period: periods[i], Resp: periods[i]})
			continue
		}
		resp[i] = r
		hp = append(hp, Interferer{WCET: s.WCET, Period: periods[i], Resp: r})
	}
	sc.hp = hp[:0]
}

// floorDiv returns ⌊a/b⌋ for b > 0 and any a (Go's / truncates toward
// zero, which differs for negative a).
func floorDiv(a, b task.Time) task.Time {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// satAdd adds a delta to a position, saturating at task.Infinity
// instead of wrapping (periods near the 2^62 sentinel would otherwise
// overflow the breakpoint arithmetic).
func satAdd(a, b task.Time) task.Time {
	if s := a + b; s >= a {
		return s
	}
	return task.Infinity
}
