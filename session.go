package hydrac

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"hydrac/internal/core"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

// Delta is one incremental admission request against a live session:
// removals by name, then additions, in one atomic step. See the
// documentation on the underlying type for the defaulting rules (added
// tasks must carry explicit priorities).
type Delta = task.Delta

// DecodeDelta reads one delta from its JSON wire format (the body of
// POST /v1/session/{id}/admit).
func DecodeDelta(r io.Reader) (*Delta, error) { return task.DecodeDelta(r) }

// EncodeDelta writes one delta as indented JSON.
func EncodeDelta(w io.Writer, d *Delta) error { return task.EncodeDelta(w, d) }

// DecodeDeltaLog reads a JSON array of deltas — the replay format of
// `hydrac admit -deltas`.
func DecodeDeltaLog(r io.Reader) ([]Delta, error) { return task.DecodeDeltaLog(r) }

// EncodeDeltaLog writes a delta sequence in the format DecodeDeltaLog
// reads.
func EncodeDeltaLog(w io.Writer, ds []Delta) error { return task.EncodeDeltaLog(w, ds) }

// Session is a live admission session: an analysed task set that
// absorbs deltas incrementally. Where Analyze re-runs the full
// pipeline per request, a session warm-starts Algorithm 1 from its
// committed selection: surviving periods are verified with two probes
// (falling back to the full search task by task when verification
// fails), the unchanged priority prefix is adopted outright when the
// RT band is untouched, and the Eq. 1 screen runs only when a delta
// adds or removes an RT task — so every report is byte-identical to a
// cold Analyze of the same set, just cheaper to produce.
//
// Sessions are safe for concurrent use: deltas serialize in arrival
// order, and the commit hook sees them in that order.
//
// A session's reports always describe its own placed set: RT tasks
// arriving unassigned are placed at session creation (heuristic
// placement is recorded in the RT assignments, not in the Heuristic
// field), and incoming unassigned RT tasks are placed one at a time
// without moving admitted tasks.
type Session struct {
	a *Analyzer

	mu sync.Mutex
	// set is the committed state, RT fully placed. It is never
	// mutated: every delta works on a clone, so reports can be built
	// from a committed set outside the lock.
	set   *TaskSet
	hints map[string]Time
	// prior is the committed selection in priority order — the trusted
	// input of core.Hints.Prior. The session certifies its contract by
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
	// scratch is the session's kernel workspace: one analysis at a
	// time (serialized by mu), re-primed per delta so steady-state
	// admissions run the Eq. 5–8 fixpoints without allocating.
	scratch *core.Scratch
	nextFit int // next-fit cursor across incremental placements
	hook    CommitHook
}

// SessionConfig carries restoration state for sessions that resume a
// previous life — the durable session store (internal/store) recovers
// a session by replaying its persisted deltas over a snapshot and
// needs the placement cursor restored alongside the set, so
// post-recovery placements are byte-identical to the never-restarted
// session's.
type SessionConfig struct {
	// NextFitCursor seeds the next-fit placement rotation; zero for
	// fresh sessions. Pair it with the PlacementCursor of the session
	// whose state is being restored.
	NextFitCursor int
}

// CommitHook observes every committed delta of a session: it runs
// under the session's serialization lock after a delta is admitted
// but BEFORE it is installed, and an error aborts the commit, leaving
// the session unchanged. That ordering lets a persistence layer make
// "committed" imply "durable": append-and-fsync in the hook, and no
// acknowledged delta can be lost to a crash. The hook is the only
// record of committed deltas a session keeps. d is the caller's
// delta, state the set as it will be once installed and cursor the
// matching placement cursor; the hook must not retain d or state (the
// session owns state) or call back into the session.
type CommitHook func(d Delta, state *TaskSet, cursor int) error

// NewSession opens a session over base and returns the initial
// report. The base set is committed even when its security band is
// unschedulable — it describes the system as it already runs; an RT
// band infeasible under Eq. 1 is an error, as in Analyze.
func (a *Analyzer) NewSession(ctx context.Context, base *TaskSet) (*Session, *Report, error) {
	return a.NewSessionWith(ctx, base, SessionConfig{})
}

// NewSessionWith is NewSession with restoration state; see
// SessionConfig.
func (a *Analyzer) NewSessionWith(ctx context.Context, base *TaskSet, cfg SessionConfig) (*Session, *Report, error) {
	if err := base.Validate(); err != nil {
		return nil, nil, err
	}
	cp, _, err := a.partitioned(ctx, base)
	if err != nil {
		return nil, nil, err
	}
	s := &Session{a: a, scratch: core.NewScratch(nil), nextFit: cfg.NextFitCursor}
	res, err := core.SelectPeriodsCtxWith(ctx, cp, s.scratch)
	if err != nil {
		return nil, nil, err
	}
	s.commit(cp, res)
	rep, err := s.report(ctx, cp, res)
	if err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// SetCommitHook installs the session's commit hook (see CommitHook).
// Set it before the session is shared across goroutines: the durable
// store attaches it between recovery replay (which must not re-log
// the deltas being replayed) and serving.
func (s *Session) SetCommitHook(f CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = f
}

// PlacementCursor returns the committed state's next-fit placement
// cursor — the value a recovered successor must restore through
// SessionConfig for post-recovery placements to match this session's.
func (s *Session) PlacementCursor() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextFit
}

// Set returns a copy of the committed task set (fully placed).
func (s *Session) Set() *TaskSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set.Clone()
}

// Admit applies one delta. The returned report describes the set with
// the delta applied; admitted reports whether the delta was COMMITTED
// — false means the admission was denied (the security band would be
// unschedulable) and the session state is unchanged. Removal-only
// deltas always commit: removals never worsen schedulability, and the
// report of a removal from a still-unschedulable base is committed
// with Schedulable == false, which is why callers must branch on
// admitted, not on Report.Schedulable. A delta that removes a task
// and adds one of the same name replaces it. Errors — unknown names,
// infeasible RT placements, an RT band infeasible under Eq. 1,
// validation failures, a failed commit hook — also leave the state
// unchanged.
func (s *Session) Admit(ctx context.Context, d Delta) (rep *Report, admitted bool, err error) {
	cand, res, _, admitted, err := s.apply(ctx, d)
	if err != nil {
		return nil, false, err
	}
	rep, err = s.report(ctx, cand, res)
	if err != nil {
		return nil, false, err
	}
	return rep, admitted, nil
}

// apply analyses the committed state with d applied and commits it if
// admitted. It returns the analysed candidate, which the caller must
// not mutate (it is the committed state iff admitted).
func (s *Session) apply(ctx context.Context, d Delta) (*TaskSet, *core.Result, core.ResumeStats, bool, error) {
	var stats core.ResumeStats
	if d.Empty() {
		return nil, nil, stats, false, fmt.Errorf("empty delta")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cand := s.set.Clone()
	cursor := s.nextFit
	rtRemoved, err := removeTasks(cand, d.Remove)
	if err != nil {
		return nil, nil, stats, false, err
	}
	for _, t := range d.AddRT {
		if t.Core < 0 {
			m, next, err := s.place(cand, t, cursor)
			if err != nil {
				return nil, nil, stats, false, err
			}
			t.Core, cursor = m, next
		}
		cand.RT = append(cand.RT, t)
	}
	cand.Security = append(cand.Security, d.AddSecurity...)
	if err := cand.Validate(); err != nil {
		return nil, nil, stats, false, err
	}
	// An RT band the delta leaves as it is already passed Eq. 1 when it
	// was committed; any other delta runs the kernel's own screen.
	rtUnchanged := !rtRemoved && len(d.AddRT) == 0
	hints := &core.Hints{Periods: s.hints, RTVerified: rtUnchanged}
	if rtUnchanged {
		hints.Prior = s.prior
	}
	res, stats, err := core.SelectPeriodsResumableWith(ctx, cand, hints, s.scratch)
	if err != nil {
		return nil, nil, stats, false, err
	}
	if !res.Schedulable && !d.RemovalOnly() {
		return cand, res, stats, false, nil
	}
	if s.hook != nil {
		// Persistence before installation: once the hook returns, the
		// delta is durable; if it fails, the session stays exactly as
		// before, so memory and disk never diverge.
		if err := s.hook(d, cand, cursor); err != nil {
			return nil, nil, stats, false, fmt.Errorf("commit hook: %w", err)
		}
	}
	s.commit(cand, res)
	s.nextFit = cursor
	return cand, res, stats, true, nil
}

// commit installs cand as the live state and refreshes the selection
// hints (cleared when the new state is unschedulable — there are no
// periods to warm-start from).
func (s *Session) commit(cand *TaskSet, res *core.Result) {
	s.set = cand
	if !res.Schedulable {
		s.hints = nil
		s.prior = nil
		return
	}
	s.hints = make(map[string]Time, len(cand.Security))
	for i, sec := range cand.Security {
		s.hints[sec.Name] = res.Periods[i]
	}
	// Rebuild the prior in priority order through the reused index
	// permutation (priorities are distinct per Validate, so the order
	// is unique and matches SecurityByPriority exactly).
	s.ord.sec = cand.Security
	s.ord.idx = s.ord.idx[:0]
	for i := range cand.Security {
		s.ord.idx = append(s.ord.idx, i)
	}
	sort.Sort(&s.ord)
	pb := &s.priorBuf
	pb.Sec, pb.Periods, pb.Resp = pb.Sec[:0], pb.Periods[:0], pb.Resp[:0]
	for _, j := range s.ord.idx {
		pb.Sec = append(pb.Sec, cand.Security[j])
		pb.Periods = append(pb.Periods, res.Periods[j])
		pb.Resp = append(pb.Resp, res.Resp[j])
	}
	s.ord.sec = nil // no retained alias into the committed set
	s.prior = pb
}

// priorOrder sorts an index permutation by security priority without
// allocating: a pointer receiver keeps the sort.Interface conversion
// off the heap, and the idx slice is session-owned and reused.
type priorOrder struct {
	idx []int
	sec []SecurityTask
}

func (p *priorOrder) Len() int           { return len(p.idx) }
func (p *priorOrder) Less(i, j int) bool { return p.sec[p.idx[i]].Priority < p.sec[p.idx[j]].Priority }
func (p *priorOrder) Swap(i, j int)      { p.idx[i], p.idx[j] = p.idx[j], p.idx[i] }

// place finds a core for one incoming unassigned RT task among the
// candidate set's current placement, honouring the Analyzer's
// heuristic without moving any already-placed task (hardware affinity
// of the running system is a hard constraint — this is single-task
// bin packing, not a re-partition). cursor carries the next-fit
// rotation state; the possibly-advanced cursor is returned alongside
// the chosen core.
func (s *Session) place(cand *TaskSet, t RTTask, cursor int) (int, int, error) {
	cores := make([][]RTTask, cand.Cores)
	util := make([]float64, cand.Cores)
	for m := range cores {
		cores[m] = cand.RTOnCore(m)
	}
	for _, rt := range cand.RT {
		if rt.Core >= 0 {
			util[rt.Core] += rt.Utilization()
		}
	}
	m, next := partition.Place(s.a.heuristic, cores, util, cursor, t)
	if m < 0 {
		return 0, 0, partition.ErrInfeasible{Task: t.Name}
	}
	return m, next, nil
}

// removeTasks drops the named tasks from cand in place, preserving
// slice order, and reports whether any RT task was removed. Every
// name must match exactly one task.
func removeTasks(cand *TaskSet, names []string) (rtRemoved bool, err error) {
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
		for i, sec := range cand.Security {
			if sec.Name == name {
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

// report shapes an analysed set with the Analyzer's shared report
// builder, so baselines and simulation configured on the Analyzer
// appear here exactly as in a cold Analyze. Like batch reports,
// session reports carry no Timing and never set FromCache — they must
// be byte-identical to the canonical report of the same set.
func (s *Session) report(ctx context.Context, set *TaskSet, res *core.Result) (*Report, error) {
	return s.a.buildReport(ctx, set, res, "", set.Hash(), &Timing{}, nil)
}
