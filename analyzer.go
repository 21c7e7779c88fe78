package hydrac

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"hydrac/internal/baseline"
	"hydrac/internal/core"
	"hydrac/internal/lru"
	"hydrac/internal/partition"
	"hydrac/internal/sim"
	"hydrac/internal/sweep"
)

// Scheme names an analysis scheme for WithBaselines and the verdicts
// it produces.
type Scheme string

const (
	// SchemeHydraC is the paper's contribution (Algorithm 1); it is
	// always run — the others are opt-in comparison baselines.
	SchemeHydraC Scheme = "hydra-c"
	// SchemeHydra is the DATE 2018 partitioned baseline with per-core
	// period minimisation.
	SchemeHydra Scheme = "hydra"
	// SchemeHydraAggressive pins each period to its WCRT on placement.
	SchemeHydraAggressive Scheme = "hydra-aggressive"
	// SchemeHydraTMax keeps the partitioned placement with periods at
	// Tmax.
	SchemeHydraTMax Scheme = "hydra-tmax"
	// SchemeGlobalTMax checks global fixed-priority schedulability
	// with periods at Tmax.
	SchemeGlobalTMax Scheme = "global-tmax"
)

// ParseScheme maps the wire/CLI spelling of a baseline scheme to its
// Scheme value.
func ParseScheme(s string) (Scheme, error) {
	switch sch := Scheme(s); sch {
	case SchemeHydra, SchemeHydraAggressive, SchemeHydraTMax, SchemeGlobalTMax:
		return sch, nil
	case SchemeHydraC:
		return "", fmt.Errorf("scheme %q is the primary analysis, not a baseline", s)
	default:
		return "", fmt.Errorf("unknown scheme %q (hydra | hydra-aggressive | hydra-tmax | global-tmax)", s)
	}
}

// ParseHeuristic maps the CLI/wire spelling of a partitioning
// heuristic (the same strings Heuristic.String prints) to its value.
func ParseHeuristic(s string) (PartitionHeuristic, error) {
	for _, h := range []PartitionHeuristic{BestFit, FirstFit, WorstFit, NextFit} {
		if h.String() == s {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown heuristic %q (best-fit | first-fit | worst-fit | next-fit)", s)
}

// Analyzer is the long-lived entry point to the HYDRA-C analysis
// pipeline: validate → partition (when the RT tasks arrive unassigned)
// → Algorithm 1 period selection → configured baselines → optional
// simulation. It is immutable after New and safe for concurrent use;
// one Analyzer is meant to serve many requests, amortising its report
// cache across repeated admission traffic.
type Analyzer struct {
	heuristic PartitionHeuristic
	opts      Options
	baselines []Scheme
	simulate  bool
	simCfg    SimConfig
	workers   int
	cache     *lru.Cache[string, *cacheEntry]
	// pool recycles kernel workspaces across analyses: Analyze borrows
	// one per call, AnalyzeBatch pins one per sweep chunk, and the
	// baseline stage reuses whichever scratch the pipeline already
	// holds. Results are bit-identical to fresh-scratch runs (a Reset
	// re-primes every buffer); the pool only removes the steady-state
	// allocations.
	pool *core.ScratchPool
}

// cacheEntry is one cached analysis: the canonical report plus the
// lazily rendered envelope bytes a cache hit is served with. rep is
// immutable once stored; enc is written at most once per entry under
// the usual benign same-bytes race (two goroutines encoding the same
// canonical report produce identical slices).
type cacheEntry struct {
	rep *Report
	enc atomic.Pointer[[]byte]
}

// AnalyzerOption configures an Analyzer at construction.
type AnalyzerOption func(*Analyzer) error

// WithHeuristic selects the bin-packing heuristic used when a set
// arrives with unpartitioned RT tasks (default BestFit, the paper's
// choice).
func WithHeuristic(h PartitionHeuristic) AnalyzerOption {
	return func(a *Analyzer) error {
		switch h {
		case BestFit, FirstFit, WorstFit, NextFit:
			a.heuristic = h
			return nil
		default:
			return fmt.Errorf("unknown partition heuristic %v", h)
		}
	}
}

// WithOptions tunes Algorithm 1 (carry-in mode, search strategy); the
// zero value is the paper's configuration.
func WithOptions(opt Options) AnalyzerOption {
	return func(a *Analyzer) error {
		a.opts = opt
		return nil
	}
}

// WithBaselines adds comparison schemes to every report, in the given
// order.
func WithBaselines(schemes ...Scheme) AnalyzerOption {
	return func(a *Analyzer) error {
		for _, s := range schemes {
			if _, err := ParseScheme(string(s)); err != nil {
				return err
			}
		}
		a.baselines = append(a.baselines, schemes...)
		return nil
	}
}

// WithSimulation makes the Analyzer simulate every admitted set under
// cfg and attach the summary to the report. cfg.Seed keeps runs
// deterministic.
func WithSimulation(cfg SimConfig) AnalyzerOption {
	return func(a *Analyzer) error {
		if cfg.Horizon <= 0 {
			return fmt.Errorf("simulation horizon must be positive, got %d", cfg.Horizon)
		}
		a.simulate = true
		a.simCfg = cfg
		return nil
	}
}

// WithCache keeps the canonical reports of the n most recently
// analysed task sets, keyed by TaskSet.Hash. n <= 0 disables caching
// (the default).
func WithCache(n int) AnalyzerOption {
	return func(a *Analyzer) error {
		a.cache = lru.New[string, *cacheEntry](n)
		return nil
	}
}

// WithBatchWorkers fixes the AnalyzeBatch worker-pool size; 0 (the
// default) uses GOMAXPROCS. Results are identical at any value.
func WithBatchWorkers(n int) AnalyzerOption {
	return func(a *Analyzer) error {
		a.workers = n
		return nil
	}
}

// New builds an Analyzer from functional options. The zero
// configuration runs exactly the paper's pipeline: best-fit
// partitioning when needed, Algorithm 1 with the dominance carry-in
// bound, no baselines, no simulation, no cache.
func New(options ...AnalyzerOption) (*Analyzer, error) {
	a := &Analyzer{heuristic: BestFit, pool: core.DefaultScratchPool}
	for _, opt := range options {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Analyze runs the full pipeline on ts and returns its report. The
// input set is never modified. ctx cancels the analysis between
// pipeline stages, between period-search probes, and periodically
// inside the simulator; the first observed ctx.Err() is returned.
//
// The returned report is the caller's to keep: it never aliases cache
// state. FromCache and Timing describe this call; everything else is
// canonical (identical for identical input).
func (a *Analyzer) Analyze(ctx context.Context, ts *TaskSet) (*Report, error) {
	start := time.Now()
	entry, tm, cached, err := a.analyzeShared(ctx, ts, nil)
	if err != nil {
		return nil, err
	}
	out := entry.rep.Clone()
	if tm == nil {
		tm = &Timing{}
	}
	tm.TotalNS = time.Since(start).Nanoseconds()
	out.Timing = tm
	out.FromCache = cached
	return out, nil
}

// AnalyzeEnvelope is the service hot path: it returns the versioned
// report envelope exactly as WriteReport renders it, as bytes ready
// for one response Write. A cache miss behaves like Analyze (the
// envelope carries per-call Timing); a cache hit is served from the
// entry's pre-encoded bytes — no report clone, no JSON marshal — so
// the envelope of a hit is canonical: FromCache is true and Timing is
// absent (a replayed byte slice cannot carry a per-call stamp).
//
// The returned bytes are shared with the cache (every future hit of
// the same set replays the same slice); callers must treat them as
// read-only — write them out or copy them, never modify or append in
// place.
func (a *Analyzer) AnalyzeEnvelope(ctx context.Context, ts *TaskSet) ([]byte, bool, error) {
	start := time.Now()
	entry, tm, cached, err := a.analyzeShared(ctx, ts, nil)
	if err != nil {
		return nil, false, err
	}
	if cached {
		if b := entry.enc.Load(); b != nil {
			return *b, true, nil
		}
		b, err := entry.hitEnvelope()
		if err != nil {
			return nil, false, err
		}
		return b, true, nil
	}
	out := entry.rep.Clone()
	if tm == nil {
		tm = &Timing{}
	}
	tm.TotalNS = time.Since(start).Nanoseconds()
	out.Timing = tm
	b, err := marshalReportEnvelope(out)
	if err != nil {
		return nil, false, err
	}
	return b, false, nil
}

// hitEnvelope renders (once) and memoizes the canonical cache-hit
// bytes of an entry.
func (e *cacheEntry) hitEnvelope() ([]byte, error) {
	hit := e.rep.Clone()
	hit.FromCache = true
	b, err := marshalReportEnvelope(hit)
	if err != nil {
		return nil, err
	}
	e.enc.Store(&b)
	return b, nil
}

// AnalyzeBatch analyses many sets in parallel over the deterministic
// sweep engine: reports arrive in input order and are bit-identical
// at any worker count (they carry no Timing and never set FromCache).
// Any per-set error aborts the batch; an unschedulable set is not an
// error — its report says so.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, sets []*TaskSet) ([]*Report, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	type slot struct {
		idx int
		rep *Report
	}
	// Each sweep chunk is processed by one goroutine, so the chunk's
	// partial pins one pooled scratch, re-primed per item: the whole
	// batch runs the kernel without per-analysis workspace churn. The
	// scratch returns to the pool at merge time (merge runs after all
	// workers stop); on an aborted run the unreturned scratches are
	// simply collected — a sync.Pool holds no resources.
	type partial struct {
		slots []slot
		sc    *core.Scratch
	}
	merged, err := sweep.Run(
		sweep.Config{Groups: len(sets), PerGroup: 1, Workers: a.workers, Context: ctx},
		func() *partial { return &partial{} },
		func(p *partial, it sweep.Item) error {
			if p.sc == nil {
				p.sc = a.pool.Get(nil)
			}
			entry, _, _, err := a.analyzeShared(ctx, sets[it.Group], p.sc)
			if err != nil {
				return fmt.Errorf("task set %d: %w", it.Group, err)
			}
			p.slots = append(p.slots, slot{idx: it.Group, rep: entry.rep.Clone()})
			return nil
		},
		func(dst, src *partial) {
			dst.slots = append(dst.slots, src.slots...)
			a.pool.Put(src.sc)
			src.sc = nil
		},
	)
	if err != nil {
		return nil, err
	}
	out := make([]*Report, len(sets))
	for _, s := range merged.slots {
		out[s.idx] = s.rep
	}
	return out, nil
}

// Baseline runs a single comparison scheme on ts (partitioning the RT
// band first if needed) without the HYDRA-C selection: the CLI's
// -scheme runs and spot checks. BaselineVerdict.ApplyTo turns a
// schedulable verdict into a configured set for Simulate.
func (a *Analyzer) Baseline(ctx context.Context, ts *TaskSet, scheme Scheme) (*BaselineVerdict, error) {
	if _, err := ParseScheme(string(scheme)); err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	cp := ts
	if scheme != SchemeGlobalTMax {
		// Partitioned schemes need a placed RT band; GLOBAL-TMax
		// schedules everything globally and must keep working on sets
		// no partitioning heuristic can place.
		var err error
		if cp, _, err = a.partitioned(ctx, ts); err != nil {
			return nil, err
		}
	}
	return a.runBaseline(cp, scheme, nil)
}

// analyzeShared is the cache-aware core of Analyze/AnalyzeBatch. It
// returns the cache entry holding the canonical report (no Timing,
// FromCache unset) — callers must Clone entry.rep before exposing it.
// sc, when non-nil, is the caller's pinned kernel workspace; nil
// borrows one from the pool for the duration of the analysis.
func (a *Analyzer) analyzeShared(ctx context.Context, ts *TaskSet, sc *core.Scratch) (*cacheEntry, *Timing, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, false, err
	}
	// Hash before validating: only validated sets are ever cached, and
	// the hash covers every analysis-relevant field, so a hit means
	// this exact content already passed Validate — the hot path skips
	// straight to the entry.
	key := ts.Hash()
	if entry, ok := a.cache.Get(key); ok {
		return entry, nil, true, nil
	}
	if err := ts.Validate(); err != nil {
		return nil, nil, false, err
	}
	if sc == nil {
		sc = a.pool.Get(nil)
		defer a.pool.Put(sc)
	}
	rep, tm, err := a.analyzeCanonical(ctx, ts, key, sc)
	if err != nil {
		return nil, nil, false, err
	}
	entry := &cacheEntry{rep: rep}
	// Two goroutines may compute the same key concurrently; both
	// arrive at the same canonical report, so the race is benign.
	a.cache.Add(key, entry)
	return entry, tm, false, nil
}

// partitioned returns a clone of ts with every RT task placed,
// running the configured heuristic when the input arrives fully
// unassigned. Mixed sets are rejected: the packing heuristic would
// silently move explicitly pinned tasks (hardware affinity is a hard
// constraint), so a set must arrive either fully placed or fully
// free.
func (a *Analyzer) partitioned(ctx context.Context, ts *TaskSet) (*TaskSet, string, error) {
	assigned, unassigned := 0, 0
	for _, t := range ts.RT {
		if t.Core < 0 {
			unassigned++
		} else {
			assigned++
		}
	}
	cp := ts.Clone()
	switch {
	case unassigned == 0:
		return cp, "", nil
	case assigned > 0:
		return nil, "", fmt.Errorf("%d of %d RT tasks are pinned and %d unassigned; pin all cores or none (the heuristic will not move pinned tasks)", assigned, len(ts.RT), unassigned)
	default:
		if err := partition.AssignCtx(ctx, cp, a.heuristic); err != nil {
			return nil, "", fmt.Errorf("partitioning RT tasks: %w", err)
		}
		return cp, a.heuristic.String(), nil
	}
}

// analyzeCanonical runs the pipeline for one uncached set on the
// caller's scratch.
func (a *Analyzer) analyzeCanonical(ctx context.Context, ts *TaskSet, key string, sc *core.Scratch) (*Report, *Timing, error) {
	tm := &Timing{}
	t0 := time.Now()
	cp, heur, err := a.partitioned(ctx, ts)
	if err != nil {
		return nil, nil, err
	}
	if heur != "" {
		tm.PartitionNS = time.Since(t0).Nanoseconds()
	}

	t0 = time.Now()
	res, err := core.SelectPeriodsCtxWith(ctx, cp, a.opts, sc)
	if err != nil {
		return nil, nil, err
	}
	tm.SelectionNS = time.Since(t0).Nanoseconds()
	rep, err := a.buildReport(ctx, cp, res, heur, key, tm, sc)
	if err != nil {
		return nil, nil, err
	}
	return rep, tm, nil
}

// buildReport shapes the canonical report for an analysed, fully
// placed set and runs the configured baseline and simulation stages.
// It is shared between the cold pipeline (analyzeCanonical) and the
// incremental session path, which is how session reports stay
// byte-identical to cold reports of the same set. sc, when non-nil,
// is reused by the GLOBAL-TMax baseline (the selection that held it
// is finished by now and results never alias scratch buffers); nil
// makes the baseline borrow from the pool.
func (a *Analyzer) buildReport(ctx context.Context, cp *TaskSet, res *core.Result, heur, key string, tm *Timing, sc *core.Scratch) (*Report, error) {
	rep := &Report{
		Scheme:      SchemeHydraC,
		Schedulable: res.Schedulable,
		Heuristic:   heur,
		TaskSetHash: key,
		Cores:       cp.Cores,
		RT:          make([]RTAssignment, 0, len(cp.RT)),
		Tasks:       make([]SecurityVerdict, 0, len(cp.Security)),
	}
	for _, t := range cp.RT {
		rep.RT = append(rep.RT, RTAssignment{Name: t.Name, Core: t.Core})
	}
	for i, s := range cp.Security {
		v := SecurityVerdict{Name: s.Name, MaxPeriod: s.MaxPeriod, Core: -1}
		if res.Schedulable {
			v.Period, v.WCRT = res.Periods[i], res.Resp[i]
		}
		rep.Tasks = append(rep.Tasks, v)
	}

	if len(a.baselines) > 0 {
		t0 := time.Now()
		for _, scheme := range a.baselines {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := a.runBaseline(cp, scheme, sc)
			if err != nil {
				return nil, err
			}
			rep.Baselines = append(rep.Baselines, *v)
		}
		tm.BaselinesNS = time.Since(t0).Nanoseconds()
	}

	if a.simulate && res.Schedulable {
		t0 := time.Now()
		out, err := sim.RunCtx(ctx, core.Apply(cp, res), a.simCfg)
		if err != nil {
			return nil, err
		}
		tm.SimulationNS = time.Since(t0).Nanoseconds()
		rep.Simulation = &SimSummary{
			Policy:                 a.simCfg.Policy.String(),
			Horizon:                out.Horizon,
			ContextSwitches:        out.ContextSwitches,
			Migrations:             out.Migrations,
			RTDeadlineMisses:       out.RTDeadlineMisses,
			SecurityDeadlineMisses: out.SecurityDeadlineMisses,
			Utilization:            out.Utilization(),
		}
	}
	return rep, nil
}

// runBaseline executes one comparison scheme on an already
// partitioned set and shapes its verdict. sc, when non-nil, is the
// kernel workspace the GLOBAL-TMax scheme reuses.
func (a *Analyzer) runBaseline(ts *TaskSet, scheme Scheme, sc *core.Scratch) (*BaselineVerdict, error) {
	v := &BaselineVerdict{Scheme: scheme}
	switch scheme {
	case SchemeHydra, SchemeHydraAggressive, SchemeHydraTMax:
		var res *baseline.PartitionedResult
		var err error
		switch scheme {
		case SchemeHydra:
			res, err = baseline.Hydra(ts)
		case SchemeHydraAggressive:
			res, err = baseline.HydraAggressive(ts)
		default:
			res, err = baseline.HydraTMax(ts)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		v.Schedulable = res.Schedulable
		if res.Schedulable {
			for _, t := range ts.RT {
				v.Placement = append(v.Placement, RTAssignment{Name: t.Name, Core: t.Core})
			}
			for i, s := range ts.Security {
				v.Tasks = append(v.Tasks, SecurityVerdict{
					Name: s.Name, Period: res.Periods[i], WCRT: res.Resp[i],
					MaxPeriod: s.MaxPeriod, Core: res.Cores[i],
				})
			}
		}
	case SchemeGlobalTMax:
		var res *baseline.GlobalResult
		var err error
		if sc != nil {
			res, err = baseline.GlobalTMaxWith(ts, sc)
		} else {
			res, err = baseline.GlobalTMax(ts)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		v.Schedulable = res.Schedulable
		for i, t := range ts.RT {
			v.RT = append(v.RT, RTVerdict{Name: t.Name, WCRT: res.RTResp[i], Deadline: t.Deadline})
		}
		for i, s := range ts.Security {
			v.Tasks = append(v.Tasks, SecurityVerdict{
				Name: s.Name, Period: s.MaxPeriod, WCRT: res.SecResp[i],
				MaxPeriod: s.MaxPeriod, Core: -1,
			})
		}
	default:
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	return v, nil
}
