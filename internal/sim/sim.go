// Package sim is a discrete-event simulator for partitioned
// fixed-priority preemptive multicore scheduling with a lowest-priority
// security band that either migrates across cores (HYDRA-C's
// semi-partitioned policy), stays pinned (HYDRA), or for which the
// whole task set is scheduled globally (GLOBAL). It substitutes for
// the paper's PREEMPT_RT Linux rover testbed (§5.1): the quantities
// the paper measures — intrusion-detection latency, context switches,
// response times — are all scheduling-level observables that the
// simulator reproduces exactly at integer-tick resolution.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"hydrac/internal/task"
)

// Policy selects how tasks may move between cores.
type Policy int

const (
	// SemiPartitioned pins RT tasks to their cores and lets security
	// tasks migrate to any idle core — the HYDRA-C runtime model.
	SemiPartitioned Policy = iota
	// FullyPartitioned pins both bands: security tasks run only on
	// their bound core — the HYDRA runtime model.
	FullyPartitioned
	// Global lets every task, RT included, run on any core — the
	// GLOBAL-TMax runtime model.
	Global
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SemiPartitioned:
		return "semi-partitioned"
	case FullyPartitioned:
		return "fully-partitioned"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config controls one simulation run.
type Config struct {
	// Policy is the migration model (default SemiPartitioned).
	Policy Policy
	// Horizon is the simulated duration in ticks; the run covers
	// [0, Horizon).
	Horizon task.Time
	// Offsets optionally delays the first release of named tasks;
	// the paper's trials randomise attack instants against a running
	// schedule, which per-trial phase offsets emulate.
	Offsets map[string]task.Time
	// RecordIntervals keeps every execution interval of every job;
	// required by the intrusion-detection substrate and the Gantt
	// renderer, off by default to keep long sweeps cheap.
	RecordIntervals bool
	// StopOnDeadlineMiss aborts the run at the first RT deadline miss
	// (useful in conformance tests where a miss is a hard failure).
	StopOnDeadlineMiss bool
	// ReleaseJitter makes tasks sporadic rather than strictly
	// periodic: each inter-arrival is the period plus a uniform random
	// delay of at most this many ticks. The WCRT analysis covers
	// sporadic arrivals, so analysis-accepted sets must still meet
	// every deadline under any jitter.
	ReleaseJitter task.Time
	// ExecutionVariation, in [0, 1), makes actual execution demand
	// vary per job: each job runs for a uniform fraction in
	// [1−ExecutionVariation, 1] of its WCET (never more, as WCET is
	// the bound). 0 means every job consumes exactly its WCET.
	ExecutionVariation float64
	// Seed drives the jitter/variation randomness; runs are
	// reproducible for a fixed seed.
	Seed int64
	// DebugChecks enables internal invariant checking at every
	// scheduling event (work conservation, band ordering). Meant for
	// tests; a violated invariant aborts the run with an error.
	DebugChecks bool
}

// band separates the two priority classes: every RT task outranks
// every security task.
type band int

const (
	bandRT band = iota
	bandSecurity
)

// taskInfo is the static view of one task inside the engine.
type taskInfo struct {
	name     string
	band     band
	priority int // within the band; lower = higher priority
	wcet     task.Time
	period   task.Time
	deadline task.Time // relative; security tasks: = period
	core     int       // pinned core or -1 (migrating)
	offset   task.Time
}

// job is one released instance.
type job struct {
	info      *taskInfo
	index     int
	release   task.Time
	deadline  task.Time // absolute
	remaining task.Time
	started   bool
	lastCore  int
	finish    task.Time
	intervals []Interval
}

// before orders jobs by scheduling precedence: band, then priority,
// then earlier release, then name for determinism.
func (j *job) before(o *job) bool {
	if j.info.band != o.info.band {
		return j.info.band < o.info.band
	}
	if j.info.priority != o.info.priority {
		return j.info.priority < o.info.priority
	}
	if j.release != o.release {
		return j.release < o.release
	}
	return j.info.name < o.info.name
}

// Run simulates ts under cfg. The set must be validated, RT tasks
// partitioned (unless Policy is Global) and every security task must
// carry an assigned period; FullyPartitioned additionally requires
// security core bindings.
func Run(ts *task.Set, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), ts, cfg)
}

// RunCtx is Run with cancellation: the event loop checks ctx every
// few scheduling events and aborts with ctx.Err() when it is done.
// Long horizons over large sets simulate millions of events; a caller
// that timed out must not keep a core busy to the horizon.
func RunCtx(ctx context.Context, ts *task.Set, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon must be positive, got %d", cfg.Horizon)
	}
	infos := make([]*taskInfo, 0, len(ts.RT)+len(ts.Security))
	for _, t := range ts.RT {
		core := t.Core
		if cfg.Policy == Global {
			core = -1
		} else if core < 0 {
			return nil, fmt.Errorf("sim: RT task %s has no core binding under %v", t.Name, cfg.Policy)
		}
		infos = append(infos, &taskInfo{
			name: t.Name, band: bandRT, priority: t.Priority,
			wcet: t.WCET, period: t.Period, deadline: t.Deadline,
			core: core, offset: cfg.Offsets[t.Name],
		})
	}
	for _, s := range ts.Security {
		if s.Period <= 0 {
			return nil, fmt.Errorf("sim: security task %s has no assigned period", s.Name)
		}
		core := -1
		switch cfg.Policy {
		case FullyPartitioned:
			if s.Core < 0 {
				return nil, fmt.Errorf("sim: security task %s has no core binding under %v", s.Name, cfg.Policy)
			}
			core = s.Core
		}
		infos = append(infos, &taskInfo{
			name: s.Name, band: bandSecurity, priority: s.Priority,
			wcet: s.WCET, period: s.Period, deadline: s.Period,
			core: core, offset: cfg.Offsets[s.Name],
		})
	}

	if cfg.ExecutionVariation < 0 || cfg.ExecutionVariation >= 1 {
		return nil, fmt.Errorf("sim: execution variation %v outside [0, 1)", cfg.ExecutionVariation)
	}
	if cfg.ReleaseJitter < 0 {
		return nil, fmt.Errorf("sim: negative release jitter %d", cfg.ReleaseJitter)
	}
	eng := &engine{ctx: ctx, cfg: cfg, cores: ts.Cores, infos: infos, rng: rand.New(rand.NewSource(cfg.Seed))}
	return eng.run()
}

// engine holds the mutable simulation state.
type engine struct {
	ctx   context.Context
	cfg   Config
	cores int
	infos []*taskInfo
	rng   *rand.Rand

	now         task.Time
	nextRelease []task.Time
	jobCount    []int
	ready       []*job // released, unfinished
	running     []*job // per core; nil = idle
	result      *Result
}

func (e *engine) run() (*Result, error) {
	e.nextRelease = make([]task.Time, len(e.infos))
	e.jobCount = make([]int, len(e.infos))
	for i, info := range e.infos {
		e.nextRelease[i] = info.offset
	}
	e.running = make([]*job, e.cores)
	e.result = newResult(e.cores, e.cfg.Horizon)

	// Cancellation is polled every eventsPerCtxCheck events, not every
	// event: ctx.Err() takes a lock and the loop body is only a few
	// microseconds for small sets.
	events := 0
	for e.now < e.cfg.Horizon {
		if events++; events&(eventsPerCtxCheck-1) == 0 {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		e.releaseDue()
		prev := append([]*job(nil), e.running...)
		e.dispatch()
		e.accountSwitches(prev)
		if e.cfg.DebugChecks {
			if err := e.checkInvariants(); err != nil {
				return nil, err
			}
		}

		delta := e.nextEventDelta()
		if delta <= 0 {
			return nil, fmt.Errorf("sim: stalled at t=%d", e.now)
		}
		if e.now+delta > e.cfg.Horizon {
			delta = e.cfg.Horizon - e.now
		}
		e.advance(delta)
		if e.cfg.StopOnDeadlineMiss && e.result.RTDeadlineMisses > 0 {
			break
		}
	}
	e.finishOpenJobs()
	return e.result, nil
}

// eventsPerCtxCheck is the cancellation polling stride; a power of two
// so the check compiles to a mask.
const eventsPerCtxCheck = 1024

// releaseDue releases every job whose release time is now.
func (e *engine) releaseDue() {
	for i, info := range e.infos {
		for e.nextRelease[i] <= e.now {
			demand := info.wcet
			if e.cfg.ExecutionVariation > 0 {
				low := float64(demand) * (1 - e.cfg.ExecutionVariation)
				demand = task.Time(low + e.rng.Float64()*(float64(demand)-low))
				if demand < 1 {
					demand = 1
				}
			}
			j := &job{
				info:      info,
				index:     e.jobCount[i],
				release:   e.nextRelease[i],
				deadline:  e.nextRelease[i] + info.deadline,
				remaining: demand,
				lastCore:  -1,
			}
			e.jobCount[i]++
			e.ready = append(e.ready, j)
			e.nextRelease[i] += info.period
			if e.cfg.ReleaseJitter > 0 {
				e.nextRelease[i] += e.rng.Int63n(int64(e.cfg.ReleaseJitter) + 1)
			}
		}
	}
}

// dispatch assigns ready jobs to cores for the next slice:
// highest-priority pinned RT job per core first, then the migrating
// pool (and pinned security jobs) in global priority order over the
// remaining idle cores.
func (e *engine) dispatch() {
	for m := range e.running {
		e.running[m] = nil
	}
	taken := make(map[*job]bool)

	// Pinned RT jobs claim their cores.
	for m := 0; m < e.cores; m++ {
		var best *job
		for _, j := range e.ready {
			if j.info.band == bandRT && j.info.core == m && (best == nil || j.before(best)) {
				best = j
			}
		}
		if best != nil {
			e.running[m] = best
			taken[best] = true
		}
	}

	// Everything else — migrating RT (Global policy), migrating and
	// pinned security — competes in precedence order for free cores.
	pool := make([]*job, 0, len(e.ready))
	for _, j := range e.ready {
		if !taken[j] && (j.info.band == bandSecurity || j.info.core < 0) {
			pool = append(pool, j)
		}
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a].before(pool[b]) })
	for _, j := range pool {
		if j.info.core >= 0 {
			// Pinned security job: only its own core, and only below
			// whatever pinned RT job holds it.
			if e.running[j.info.core] == nil {
				e.running[j.info.core] = j
			}
			continue
		}
		// Prefer the core the job last ran on to avoid gratuitous
		// migrations, then any free core.
		if j.lastCore >= 0 && e.running[j.lastCore] == nil {
			e.running[j.lastCore] = j
			continue
		}
		for m := 0; m < e.cores; m++ {
			if e.running[m] == nil {
				e.running[m] = j
				break
			}
		}
	}
}

// accountSwitches compares consecutive assignments, counting context
// switches (a core changes occupant, idle transitions included, as
// perf's cs counter would) and migrations (a job resumes on a
// different core than it last executed on).
func (e *engine) accountSwitches(prev []*job) {
	for m := 0; m < e.cores; m++ {
		cur := e.running[m]
		if prev[m] != cur && (prev[m] != nil || cur != nil) {
			e.result.ContextSwitches++
		}
		if cur != nil {
			if cur.lastCore >= 0 && cur.lastCore != m && cur.started {
				e.result.Migrations++
			}
		}
	}
}

// nextEventDelta returns the time to the next release or completion.
func (e *engine) nextEventDelta() task.Time {
	delta := task.Infinity
	for i := range e.infos {
		if d := e.nextRelease[i] - e.now; d < delta {
			delta = d
		}
	}
	for _, j := range e.running {
		if j != nil && j.remaining < delta {
			delta = j.remaining
		}
	}
	return delta
}

// advance executes the current assignment for delta ticks.
func (e *engine) advance(delta task.Time) {
	end := e.now + delta
	for m, j := range e.running {
		if j == nil {
			continue
		}
		if !j.started {
			j.started = true
			e.result.record(j.info.name).Starts++
		}
		j.remaining -= delta
		j.lastCore = m
		e.result.CoreBusy[m] += delta
		if e.cfg.RecordIntervals {
			j.intervals = appendInterval(j.intervals, Interval{Start: e.now, End: end, Core: m})
		}
		if j.remaining == 0 {
			j.finish = end
			e.completeJob(j, end)
		}
	}
	e.ready = compactReady(e.ready)
	e.now = end
}

// completeJob finalises accounting for a finished job.
func (e *engine) completeJob(j *job, t task.Time) {
	rec := e.result.record(j.info.name)
	resp := t - j.release
	rec.Completed++
	if resp > rec.MaxResponse {
		rec.MaxResponse = resp
	}
	rec.TotalResponse += resp
	missed := t > j.deadline
	if missed {
		rec.DeadlineMisses++
		if j.info.band == bandRT {
			e.result.RTDeadlineMisses++
		} else {
			e.result.SecurityDeadlineMisses++
		}
	}
	if e.cfg.RecordIntervals {
		e.result.JobLog = append(e.result.JobLog, JobRecord{
			Task: j.info.name, Index: j.index,
			Release: j.release, Finish: t, Deadline: j.deadline,
			Missed: missed, Intervals: j.intervals,
		})
	}
}

// finishOpenJobs logs jobs still incomplete at the horizon so traces
// remain usable (their Finish stays -1).
func (e *engine) finishOpenJobs() {
	if !e.cfg.RecordIntervals {
		return
	}
	for _, j := range e.ready {
		if j.remaining > 0 {
			e.result.JobLog = append(e.result.JobLog, JobRecord{
				Task: j.info.name, Index: j.index,
				Release: j.release, Finish: -1, Deadline: j.deadline,
				Missed: e.cfg.Horizon > j.deadline, Intervals: j.intervals,
			})
		}
	}
	sort.Slice(e.result.JobLog, func(a, b int) bool {
		x, y := e.result.JobLog[a], e.result.JobLog[b]
		if x.Release != y.Release {
			return x.Release < y.Release
		}
		return x.Task < y.Task
	})
}

// compactReady drops finished jobs.
func compactReady(ready []*job) []*job {
	out := ready[:0]
	for _, j := range ready {
		if j.remaining > 0 {
			out = append(out, j)
		}
	}
	return out
}

// appendInterval merges contiguous same-core slices to keep traces
// small.
func appendInterval(ivs []Interval, iv Interval) []Interval {
	if n := len(ivs); n > 0 && ivs[n-1].End == iv.Start && ivs[n-1].Core == iv.Core {
		ivs[n-1].End = iv.End
		return ivs
	}
	return append(ivs, iv)
}
