// Package admit implements the incremental admission engine: a live,
// continuously analysed task set that absorbs deltas (add/remove a
// task or two) without re-running the full period-selection pipeline
// from scratch. Algorithm 1 of the paper is a batch procedure; an
// admission-control service sees long runs of near-identical requests,
// so the engine keeps the analysed state warm and re-derives only what
// a delta can actually affect:
//
//   - Per-core RT fixpoints are memoized in an LRU keyed by
//     task.CoreHash — a delta that leaves a core's RT tasks untouched
//     never re-runs that core's Eq. 1 iteration.
//   - Security-band periods are warm-started through core.Hints: the
//     previous period of each surviving task is verified minimal in
//     the new context with two feasibility probes, falling back to the
//     full Algorithm 2 search per task when verification fails.
//
// Correctness is by construction, not by trust: every committed state
// is analysed by the same equations as a cold run, and the hint
// machinery provably returns the identical result (see core.Hints).
// The differential oracle corpus (internal/oracle) and the session
// tests pin the bit-for-bit equivalence against cold analyses.
package admit

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"hydrac/internal/core"
	"hydrac/internal/lru"
	"hydrac/internal/partition"
	"hydrac/internal/rta"
	"hydrac/internal/task"
)

// Config parameterises an Engine.
type Config struct {
	// Opts tunes Algorithm 1 exactly as for core.SelectPeriods.
	Opts core.Options
	// Heuristic places incoming unassigned RT tasks (and the base set,
	// when it arrives fully unassigned).
	Heuristic partition.Heuristic
	// CoreCache bounds the per-core fixpoint LRU; 0 means 8× the core
	// count (every live core plus history of recent deltas).
	CoreCache int
	// NextFitCursor seeds the next-fit placement rotation. Zero for
	// fresh sessions; a recovered session restores the cursor its
	// predecessor persisted so placements after recovery land on the
	// same cores they would have in the uninterrupted engine.
	NextFitCursor int
}

// Stats describes how much work one Apply actually did.
type Stats struct {
	// CoresChecked counts cores whose RTA fixpoint was recomputed;
	// CoresFromCache counts cores served from the memo.
	CoresChecked, CoresFromCache int
	// Selection carries the verify/search split of the period
	// selection (zero when the security band is empty).
	Selection core.ResumeStats
	// FullSelection reports that no warm-start hints were available —
	// the engine fell back to a cold-equivalent selection (first
	// analysis, or the previous committed state was unschedulable).
	FullSelection bool
}

// Outcome is the result of applying one delta.
type Outcome struct {
	// Set is the analysed candidate set (the committed state iff
	// Admitted). RT tasks are fully placed. The caller owns it.
	Set *task.Set
	// Result is the period-selection outcome over Set, in the order of
	// Set.Security.
	Result *core.Result
	// Admitted reports whether the delta was committed. A delta whose
	// resulting security band is unschedulable is denied — the
	// engine's state is unchanged — unless it is removal-only
	// (removals never worsen schedulability and must stay applicable
	// even from an unschedulable base).
	Admitted bool
	// Stats describes the incremental work done.
	Stats Stats
}

// Engine is the live admission state. All methods are safe for
// concurrent use; deltas are serialized in arrival order and the
// committed-delta log records that order for deterministic replay.
type Engine struct {
	mu    sync.Mutex
	cfg   Config
	set   *task.Set // committed state; RT fully placed
	hints map[string]task.Time
	// prior is the committed selection in priority order — the trusted
	// input of core.Hints.Prior. The engine can certify its contract by
	// construction: prior is always the bit-exact output of its own
	// last schedulable analysis, and it is only handed to the kernel
	// when the delta leaves the RT band untouched. Nil after an
	// unschedulable commit, like hints. It points into priorBuf, whose
	// backing arrays (and the ord permutation) are reused across
	// commits so the steady-state admission path rebuilds the prior
	// without allocating — the allocs-admit-delta regression case gates
	// that count.
	prior    *core.Prior
	priorBuf core.Prior
	ord      priorOrder
	// coreCache memoizes one core's Eq. 1 verdict under its CoreHash —
	// the fixpoint iteration's outcome, which is all the pipeline
	// gates on.
	coreCache *lru.Cache[string, bool]
	// scratch is the engine's reusable kernel workspace: one analysis
	// at a time (serialized by mu), re-primed per delta so
	// steady-state admissions run the Eq. 5–8 fixpoints without
	// allocating. Never handed out to callers.
	scratch *core.Scratch
	nextFit int // next-fit cursor across incremental placements
	log     []task.Delta
	// onCommit, when set, is invoked for every delta that will commit —
	// after analysis admits it, before the state installs. An error
	// aborts the commit (the delta is neither installed nor logged), so
	// a persistence layer can make "committed" mean "durable".
	onCommit func(d task.Delta, state *task.Set, cursor int) error
}

// SetOnCommit installs the commit hook. It must be called before the
// engine is shared across goroutines (a recovery manager sets it
// between replay and serving); the hook runs under the engine lock
// and must not call back into the engine or retain state (the
// committed set is engine-owned).
func (e *Engine) SetOnCommit(f func(d task.Delta, state *task.Set, cursor int) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onCommit = f
}

// Cursor returns the next-fit placement cursor of the committed
// state, the value Config.NextFitCursor restores.
func (e *Engine) Cursor() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nextFit
}

// New builds an engine over base and runs the initial full analysis.
// A base whose RT tasks all arrive unassigned is partitioned with the
// configured heuristic first; mixed sets are rejected for the same
// reason Analyzer.Analyze rejects them (the heuristic will not move
// pinned tasks). The base is committed unconditionally — it describes
// the system as it already runs — even when its security band is
// unschedulable at Tmax; an RT band infeasible under Eq. 1 is an
// error, exactly as in a cold analysis.
func New(ctx context.Context, base *task.Set, cfg Config) (*Engine, *Outcome, error) {
	if err := base.Validate(); err != nil {
		return nil, nil, err
	}
	cp := base.Clone()
	assigned, unassigned := 0, 0
	for _, t := range cp.RT {
		if t.Core < 0 {
			unassigned++
		} else {
			assigned++
		}
	}
	switch {
	case unassigned == 0:
		// already placed
	case assigned > 0:
		return nil, nil, fmt.Errorf("%d of %d RT tasks are pinned and %d unassigned; pin all cores or none (the heuristic will not move pinned tasks)", assigned, len(base.RT), unassigned)
	default:
		if err := partition.AssignCtx(ctx, cp, cfg.Heuristic); err != nil {
			return nil, nil, fmt.Errorf("partitioning RT tasks: %w", err)
		}
	}
	cacheSize := cfg.CoreCache
	if cacheSize <= 0 {
		cacheSize = 8 * cp.Cores
	}
	e := &Engine{cfg: cfg, coreCache: lru.New[string, bool](cacheSize), scratch: core.NewScratch(nil), nextFit: cfg.NextFitCursor}
	out, err := e.analyse(ctx, cp, false)
	if err != nil {
		return nil, nil, err
	}
	out.Admitted = true
	e.commit(cp, out.Result)
	return e, out, nil
}

// Apply analyses the committed state with d applied and commits it if
// admitted (see Outcome.Admitted). On error — an unknown name, a
// placement failure, an RT band infeasible under Eq. 1, a validation
// failure, or a cancelled ctx — the engine state is untouched.
func (e *Engine) Apply(ctx context.Context, d task.Delta) (*Outcome, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyLocked(ctx, d)
}

// Update is Apply with replace semantics: every added task's name must
// already be admitted, and is removed first in the same atomic delta.
// The existence check runs under the engine lock, so it cannot race
// with concurrent removals.
func (e *Engine) Update(ctx context.Context, d task.Delta) (*Outcome, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	have := make(map[string]bool, len(e.set.RT)+len(e.set.Security))
	for _, t := range e.set.RT {
		have[t.Name] = true
	}
	for _, s := range e.set.Security {
		have[s.Name] = true
	}
	upd := task.Delta{
		Remove:      append([]string(nil), d.Remove...),
		AddRT:       d.AddRT,
		AddSecurity: d.AddSecurity,
	}
	for _, t := range d.AddRT {
		if !have[t.Name] {
			return nil, fmt.Errorf("cannot update %q: no such task in the admitted set (use Admit to add it)", t.Name)
		}
		upd.Remove = append(upd.Remove, t.Name)
	}
	for _, s := range d.AddSecurity {
		if !have[s.Name] {
			return nil, fmt.Errorf("cannot update %q: no such task in the admitted set (use Admit to add it)", s.Name)
		}
		upd.Remove = append(upd.Remove, s.Name)
	}
	return e.applyLocked(ctx, upd)
}

// applyLocked is the body of Apply; e.mu must be held.
func (e *Engine) applyLocked(ctx context.Context, d task.Delta) (*Outcome, error) {
	if d.Empty() {
		return nil, fmt.Errorf("empty delta")
	}
	cand := e.set.Clone()
	cursor := e.nextFit
	rtRemoved, err := removeTasks(cand, d.Remove)
	if err != nil {
		return nil, err
	}
	rtIdentical := !rtRemoved && len(d.AddRT) == 0
	for _, t := range d.AddRT {
		if t.Core < 0 {
			m, next, err := e.place(cand, t, cursor)
			if err != nil {
				return nil, err
			}
			t.Core, cursor = m, next
		}
		cand.RT = append(cand.RT, t)
	}
	cand.Security = append(cand.Security, d.AddSecurity...)
	if err := cand.Validate(); err != nil {
		return nil, err
	}
	out, err := e.analyse(ctx, cand, rtIdentical)
	if err != nil {
		return nil, err
	}
	out.Admitted = out.Result.Schedulable || d.RemovalOnly()
	if out.Admitted {
		// Log a private copy: the caller keeps ownership of d's slices.
		logged := task.Delta{
			Remove:      append([]string(nil), d.Remove...),
			AddRT:       append([]task.RTTask(nil), d.AddRT...),
			AddSecurity: append([]task.SecurityTask(nil), d.AddSecurity...),
		}
		if e.onCommit != nil {
			// Persistence before installation: once the hook returns,
			// the delta is durable; if it fails, the engine state (and
			// the log) stay exactly as before, so memory and disk
			// never diverge.
			if err := e.onCommit(logged, cand, cursor); err != nil {
				return nil, fmt.Errorf("commit hook: %w", err)
			}
		}
		e.commit(cand, out.Result)
		e.nextFit = cursor
		e.log = append(e.log, logged)
	}
	return out, nil
}

// analyse runs the memoized RT screen and the warm-started period
// selection over cand (which must be validated and fully placed).
// rtIdentical certifies the RT band (members, parameters, placement)
// is unchanged from the committed state, unlocking the trusted-prefix
// fast path. It does not commit.
func (e *Engine) analyse(ctx context.Context, cand *task.Set, rtIdentical bool) (*Outcome, error) {
	stats := Stats{}
	if err := e.rtScreen(cand, &stats); err != nil {
		return nil, err
	}
	var prior *core.Prior
	if rtIdentical {
		prior = e.prior
	}
	hints := &core.Hints{Periods: e.hints, RTVerified: true, Prior: prior}
	stats.FullSelection = e.hints == nil
	res, rstats, err := core.SelectPeriodsResumableWith(ctx, cand, e.cfg.Opts, hints, e.scratch)
	if err != nil {
		return nil, err
	}
	stats.Selection = rstats
	return &Outcome{Set: cand.Clone(), Result: res, Stats: stats}, nil
}

// rtScreen is the memoized per-core Eq. 1 check. It stops at the
// first unschedulable core, whose index the error names.
func (e *Engine) rtScreen(cand *task.Set, stats *Stats) error {
	for m := 0; m < cand.Cores; m++ {
		tasks := cand.RTOnCore(m)
		key := task.CoreHash(tasks)
		sched, ok := e.coreCache.Get(key)
		if !ok {
			sched = rta.CoreSchedulable(tasks)
			e.coreCache.Add(key, sched)
			stats.CoresChecked++
		} else {
			stats.CoresFromCache++
		}
		if !sched {
			return fmt.Errorf("RT band is not schedulable under Eq. 1 (core %d); HYDRA-C requires a feasible legacy system", m)
		}
	}
	return nil
}

// commit installs cand as the live state and refreshes the selection
// hints (cleared when the new state is unschedulable — there are no
// periods to warm-start from).
func (e *Engine) commit(cand *task.Set, res *core.Result) {
	e.set = cand
	if !res.Schedulable {
		e.hints = nil
		e.prior = nil
		return
	}
	e.hints = make(map[string]task.Time, len(cand.Security))
	for i, s := range cand.Security {
		e.hints[s.Name] = res.Periods[i]
	}
	// Rebuild the prior in priority order through the reused index
	// permutation (priorities are distinct per Validate, so the order
	// is unique and matches SecurityByPriority exactly).
	e.ord.sec = cand.Security
	e.ord.idx = e.ord.idx[:0]
	for i := range cand.Security {
		e.ord.idx = append(e.ord.idx, i)
	}
	sort.Sort(&e.ord)
	pb := &e.priorBuf
	pb.Sec, pb.Periods, pb.Resp = pb.Sec[:0], pb.Periods[:0], pb.Resp[:0]
	for _, j := range e.ord.idx {
		pb.Sec = append(pb.Sec, cand.Security[j])
		pb.Periods = append(pb.Periods, res.Periods[j])
		pb.Resp = append(pb.Resp, res.Resp[j])
	}
	e.ord.sec = nil // no retained alias into the committed set
	e.prior = pb
}

// priorOrder sorts an index permutation by security priority without
// allocating: a pointer receiver keeps the sort.Interface conversion
// off the heap, and the idx slice is engine-owned and reused.
type priorOrder struct {
	idx []int
	sec []task.SecurityTask
}

func (p *priorOrder) Len() int           { return len(p.idx) }
func (p *priorOrder) Less(i, j int) bool { return p.sec[p.idx[i]].Priority < p.sec[p.idx[j]].Priority }
func (p *priorOrder) Swap(i, j int)      { p.idx[i], p.idx[j] = p.idx[j], p.idx[i] }

// place finds a core for one incoming unassigned RT task among the
// candidate set's current placement, honouring the configured
// heuristic without moving any already-placed task (hardware affinity
// of the running system is a hard constraint — this is single-task
// bin packing, not a re-partition). cursor carries the next-fit
// rotation state; the possibly-advanced cursor is returned alongside
// the chosen core.
func (e *Engine) place(cand *task.Set, t task.RTTask, cursor int) (int, int, error) {
	util := make([]float64, cand.Cores)
	for _, rt := range cand.RT {
		if rt.Core >= 0 {
			util[rt.Core] += rt.Utilization()
		}
	}
	fits := func(m int) bool {
		onCore := cand.RTOnCore(m)
		probe := t
		probe.Core = m
		i := sort.Search(len(onCore), func(i int) bool { return onCore[i].Priority > probe.Priority })
		onCore = append(onCore, task.RTTask{})
		copy(onCore[i+1:], onCore[i:])
		onCore[i] = probe
		return rta.CoreSchedulable(onCore)
	}
	best := -1
	var bestKey float64
	switch e.cfg.Heuristic {
	case partition.NextFit:
		for k := 0; k < cand.Cores; k++ {
			m := (cursor + k) % cand.Cores
			if fits(m) {
				return m, m, nil
			}
		}
	case partition.FirstFit:
		for m := 0; m < cand.Cores; m++ {
			if fits(m) {
				return m, cursor, nil
			}
		}
	case partition.WorstFit:
		for m := 0; m < cand.Cores; m++ {
			if fits(m) && (best == -1 || util[m] < bestKey) {
				best, bestKey = m, util[m]
			}
		}
	default: // BestFit
		for m := 0; m < cand.Cores; m++ {
			if fits(m) && (best == -1 || util[m] > bestKey) {
				best, bestKey = m, util[m]
			}
		}
	}
	if best == -1 {
		return 0, 0, partition.ErrInfeasible{Task: t.Name}
	}
	return best, cursor, nil
}

// removeTasks drops the named tasks from cand in place, preserving
// slice order, and reports whether any RT task was removed. Every
// name must match exactly one task.
func removeTasks(cand *task.Set, names []string) (rtRemoved bool, err error) {
	for _, name := range names {
		found := false
		for i, t := range cand.RT {
			if t.Name == name {
				cand.RT = append(cand.RT[:i], cand.RT[i+1:]...)
				found = true
				rtRemoved = true
				break
			}
		}
		if found {
			continue
		}
		for i, s := range cand.Security {
			if s.Name == name {
				cand.Security = append(cand.Security[:i], cand.Security[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			return rtRemoved, fmt.Errorf("cannot remove %q: no such task in the admitted set", name)
		}
	}
	return rtRemoved, nil
}

// Snapshot returns a copy of the committed state.
func (e *Engine) Snapshot() *task.Set {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.set.Clone()
}

// Log returns a copy of the committed deltas in commit order. A serial
// replay of Log over the same base set through a fresh engine
// reproduces the committed state exactly — the property the
// concurrency stress tests assert.
func (e *Engine) Log() []task.Delta {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]task.Delta(nil), e.log...)
}
