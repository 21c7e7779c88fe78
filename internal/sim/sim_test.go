package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hydrac/internal/task"
)

// oneCoreOneTask: a single RT task must run back to back with no
// misses and exact response times.
func TestRunSingleRTTask(t *testing.T) {
	ts := &task.Set{
		Cores: 1,
		RT:    []task.RTTask{{Name: "a", WCET: 3, Period: 10, Deadline: 10, Core: 0}},
	}
	res, err := Run(ts, Config{Horizon: 100, RecordIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats["a"]
	if s.Completed != 10 {
		t.Errorf("completed %d jobs, want 10", s.Completed)
	}
	if s.MaxResponse != 3 {
		t.Errorf("max response %d, want 3", s.MaxResponse)
	}
	if res.RTDeadlineMisses != 0 {
		t.Errorf("deadline misses: %d", res.RTDeadlineMisses)
	}
	if res.CoreBusy[0] != 30 {
		t.Errorf("busy %d, want 30", res.CoreBusy[0])
	}
}

// Two RT tasks on one core: the low-priority task is preempted and its
// response time matches hand analysis. C=(2,3), T=(5,10):
// R_b = 3 + ceil(x/5)*2 -> x0=3:5 ; x=5: 3+2=5. R_b = 5.
func TestRunPreemption(t *testing.T) {
	ts := &task.Set{
		Cores: 1,
		RT: []task.RTTask{
			{Name: "a", WCET: 2, Period: 5, Deadline: 5, Core: 0, Priority: 0},
			{Name: "b", WCET: 3, Period: 10, Deadline: 10, Core: 0, Priority: 1},
		},
	}
	res, err := Run(ts, Config{Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTDeadlineMisses != 0 {
		t.Fatalf("unexpected misses: %d", res.RTDeadlineMisses)
	}
	if got := res.Stats["b"].MaxResponse; got != 5 {
		t.Errorf("R_b = %d, want 5", got)
	}
	if got := res.Stats["a"].MaxResponse; got != 2 {
		t.Errorf("R_a = %d, want 2", got)
	}
}

// A migrating security task moves to the free core when its own core
// is occupied: with one RT hog pinned to core 0, the security task
// finishes with response = WCET on core 1.
func TestSecurityMigratesToIdleCore(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT:    []task.RTTask{{Name: "hog", WCET: 80, Period: 100, Deadline: 100, Core: 0}},
		Security: []task.SecurityTask{
			{Name: "mon", WCET: 50, Period: 100, MaxPeriod: 100, Priority: 0, Core: -1},
		},
	}
	res, err := Run(ts, Config{Policy: SemiPartitioned, Horizon: 1000, RecordIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats["mon"].MaxResponse; got != 50 {
		t.Errorf("mon max response = %d, want 50 (runs on the idle core)", got)
	}
	if res.SecurityDeadlineMisses != 0 {
		t.Errorf("security misses: %d", res.SecurityDeadlineMisses)
	}
}

// Under the fully-partitioned policy the same security task pinned to
// the hog's core must wait for the hog's completion.
func TestPartitionedSecurityWaits(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT:    []task.RTTask{{Name: "hog", WCET: 80, Period: 100, Deadline: 100, Core: 0}},
		Security: []task.SecurityTask{
			{Name: "mon", WCET: 15, Period: 100, MaxPeriod: 100, Priority: 0, Core: 0},
		},
	}
	res, err := Run(ts, Config{Policy: FullyPartitioned, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats["mon"].MaxResponse; got != 95 {
		t.Errorf("mon max response = %d, want 95 (waits behind the 80-tick hog)", got)
	}
}

// Semi-partitioned continuity: when the security task is preempted on
// its core it continues immediately on the other, so its execution
// intervals cover WCET ticks with no internal gap.
func TestContinuousExecutionAcrossCores(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			// Alternating load: core 0 busy [0,30), core 1 busy [30,60).
			{Name: "p0", WCET: 30, Period: 60, Deadline: 60, Core: 0, Priority: 0},
			{Name: "p1", WCET: 30, Period: 60, Deadline: 60, Core: 1, Priority: 1},
		},
		Security: []task.SecurityTask{
			{Name: "mon", WCET: 40, Period: 60, MaxPeriod: 60, Priority: 0, Core: -1},
		},
	}
	off := map[string]task.Time{"p1": 30}
	res, err := Run(ts, Config{Policy: SemiPartitioned, Horizon: 60, Offsets: off, RecordIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.JobsOf("mon")
	if len(jobs) == 0 {
		t.Fatal("no mon jobs traced")
	}
	j := jobs[0]
	var execd task.Time
	for _, iv := range j.Intervals {
		execd += iv.Duration()
	}
	if execd != 40 {
		t.Fatalf("mon executed %d ticks, want 40; intervals %+v", execd, j.Intervals)
	}
	if j.Finish != 40 {
		t.Fatalf("mon finished at %d, want 40 (continuous execution on whichever core is free)", j.Finish)
	}
	if res.Migrations == 0 {
		t.Error("expected at least one migration")
	}
}

// Global policy: two RT tasks with one shared core preference migrate
// freely; with 2 cores and 2 tasks both run immediately.
func TestGlobalPolicy(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "a", WCET: 50, Period: 100, Deadline: 100, Core: 0, Priority: 0},
			{Name: "b", WCET: 50, Period: 100, Deadline: 100, Core: 0, Priority: 1},
		},
	}
	res, err := Run(ts, Config{Policy: Global, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats["b"].MaxResponse; got != 50 {
		t.Errorf("b response = %d, want 50 (runs in parallel under global)", got)
	}
}

func TestRunValidation(t *testing.T) {
	ts := &task.Set{
		Cores:    1,
		RT:       []task.RTTask{{Name: "a", WCET: 1, Period: 10, Deadline: 10, Core: 0}},
		Security: []task.SecurityTask{{Name: "s", WCET: 1, MaxPeriod: 50, Priority: 0, Core: -1}},
	}
	if _, err := Run(ts, Config{Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Run(ts, Config{Horizon: 100}); err == nil {
		t.Error("security task without period accepted")
	}
	ts.Security[0].Period = 50
	if _, err := Run(ts, Config{Horizon: 100, Policy: FullyPartitioned}); err == nil {
		t.Error("partitioned policy without security core binding accepted")
	}
	ts2 := ts.Clone()
	ts2.RT[0].Core = -1
	if _, err := Run(ts2, Config{Horizon: 100}); err == nil {
		t.Error("unpinned RT task accepted under semi-partitioned policy")
	}
}

// cancelAfterEntry is a context whose Err is nil on its first call
// (RunCtx's entry check) and cancelAfter on every later one, so only
// the event loop's periodic check can stop a run under it.
type cancelAfterEntry struct {
	context.Context
	cancelAfter error
	calls       int
}

func (c *cancelAfterEntry) Err() error {
	if c.calls++; c.calls == 1 {
		return nil
	}
	return c.cancelAfter
}

// RunCtx must stop inside its event loop, not only at entry: a caller
// whose context ends mid-run (an Analyzer WithSimulation serving a
// request that timed out) must not keep a core busy to the horizon.
func TestRunCtxCancelsMidRun(t *testing.T) {
	ts := &task.Set{
		Cores:    1,
		RT:       []task.RTTask{{Name: "a", WCET: 1, Period: 4, Deadline: 4, Core: 0}},
		Security: []task.SecurityTask{{Name: "s", WCET: 1, Period: 8, MaxPeriod: 8, Core: -1}},
	}
	cfg := Config{Horizon: 40 * eventsPerCtxCheck}

	// A context that never ends sees a loop check, so the horizon runs
	// past eventsPerCtxCheck events.
	live := &cancelAfterEntry{Context: context.Background()}
	if _, err := RunCtx(live, ts, cfg); err != nil {
		t.Fatal(err)
	}
	if live.calls < 2 {
		t.Fatalf("Err polled %d times: the run ended before the loop checked the context", live.calls)
	}

	ended := &cancelAfterEntry{Context: context.Background(), cancelAfter: context.Canceled}
	res, err := RunCtx(ended, ts, cfg)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunCtx = %v, %v; want nil, context.Canceled", res, err)
	}
	if ended.calls != 2 {
		t.Errorf("Err polled %d times, want 2: the entry check and the first loop check", ended.calls)
	}
}

func TestOffsetsDelayFirstRelease(t *testing.T) {
	ts := &task.Set{
		Cores: 1,
		RT:    []task.RTTask{{Name: "a", WCET: 1, Period: 10, Deadline: 10, Core: 0}},
	}
	res, err := Run(ts, Config{Horizon: 100, Offsets: map[string]task.Time{"a": 55}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats["a"].Completed; got != 5 {
		t.Errorf("completed %d, want 5 (releases at 55..95)", got)
	}
}

func TestDeadlineMissDetected(t *testing.T) {
	ts := &task.Set{
		Cores: 1,
		RT: []task.RTTask{
			{Name: "a", WCET: 6, Period: 10, Deadline: 10, Core: 0, Priority: 0},
			{Name: "b", WCET: 6, Period: 12, Deadline: 12, Core: 0, Priority: 1},
		},
	}
	res, err := Run(ts, Config{Horizon: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.RTDeadlineMisses == 0 {
		t.Error("overloaded core reported no deadline misses")
	}
	res2, err := Run(ts, Config{Horizon: 200, StopOnDeadlineMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RTDeadlineMisses == 0 {
		t.Error("StopOnDeadlineMiss lost the miss")
	}
}

func TestGanttRendering(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT:    []task.RTTask{{Name: "nav", WCET: 3, Period: 10, Deadline: 10, Core: 0}},
		Security: []task.SecurityTask{
			{Name: "mon", WCET: 4, Period: 20, MaxPeriod: 20, Priority: 0, Core: -1},
		},
	}
	res, err := Run(ts, Config{Horizon: 40, RecordIntervals: true})
	if err != nil {
		t.Fatal(err)
	}
	g := Gantt(res, 0, 40, 1)
	if !strings.Contains(g, "core 0") || !strings.Contains(g, "core 1") {
		t.Fatalf("missing core rows:\n%s", g)
	}
	if !strings.Contains(g, "N=nav") || !strings.Contains(g, "M=mon") {
		t.Fatalf("missing legend:\n%s", g)
	}
	if !strings.Contains(g, "N") {
		t.Fatalf("nav never drawn:\n%s", g)
	}
}

func TestResultHelpers(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT:    []task.RTTask{{Name: "a", WCET: 5, Period: 10, Deadline: 10, Core: 0}},
	}
	res, err := Run(ts, Config{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Utilization(); u < 0.24 || u > 0.26 {
		t.Errorf("Utilization = %v, want 0.25", u)
	}
	if s := res.Summary(); !strings.Contains(s, "context switches") {
		t.Errorf("Summary lacks counters: %s", s)
	}
}
