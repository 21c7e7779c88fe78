package rta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hydrac/internal/task"
)

func TestResponseTimeNoInterference(t *testing.T) {
	r, ok := ResponseTime(7, nil, 100)
	if !ok || r != 7 {
		t.Fatalf("got (%d, %v), want (7, true)", r, ok)
	}
}

func TestResponseTimeClassicExample(t *testing.T) {
	// Textbook example: C=(1,2,3), T=(4,6,10) on one core.
	// R1 = 1; R2 = 2 + ceil(R2/4)*1 -> 3; R3 = 3 + ceil(x/4)*1 + ceil(x/6)*2.
	// x0=3 -> 3+1+2=6; x=6 -> 3+2+2=7; x=7 -> 3+2+4=9; x=9 -> 3+3+4=10;
	// x=10 -> 3+3+4=10. R3 = 10.
	hp := []Demand{{WCET: 1, Period: 4}, {WCET: 2, Period: 6}}
	r, ok := ResponseTime(3, hp, 10)
	if !ok || r != 10 {
		t.Fatalf("R3 = (%d, %v), want (10, true)", r, ok)
	}
	// Deadline 9 makes it unschedulable.
	if _, ok := ResponseTime(3, hp, 9); ok {
		t.Fatal("accepted despite deadline 9 < R 10")
	}
}

func TestResponseTimeMidPriority(t *testing.T) {
	hp := []Demand{{WCET: 1, Period: 4}}
	r, ok := ResponseTime(2, hp, 6)
	if !ok || r != 3 {
		t.Fatalf("R2 = (%d, %v), want (3, true)", r, ok)
	}
}

func TestResponseTimeOverloadDiverges(t *testing.T) {
	// Utilisation 1.5: iteration must hit the limit, not loop forever.
	hp := []Demand{{WCET: 5, Period: 10}, {WCET: 10, Period: 10}}
	if _, ok := ResponseTime(1, hp, 1000); ok {
		t.Fatal("overloaded core accepted")
	}
}

func TestResponseTimeWCETBeyondLimit(t *testing.T) {
	if _, ok := ResponseTime(11, nil, 10); ok {
		t.Fatal("WCET beyond limit accepted")
	}
}

func TestCoreSchedulable(t *testing.T) {
	ok := []task.RTTask{
		{Name: "a", WCET: 1, Period: 4, Deadline: 4, Priority: 0},
		{Name: "b", WCET: 2, Period: 6, Deadline: 6, Priority: 1},
		{Name: "c", WCET: 3, Period: 10, Deadline: 10, Priority: 2},
	}
	if !CoreSchedulable(ok) {
		t.Error("schedulable core rejected")
	}
	bad := []task.RTTask{
		{Name: "a", WCET: 3, Period: 4, Deadline: 4, Priority: 0},
		{Name: "b", WCET: 3, Period: 6, Deadline: 6, Priority: 1},
	}
	if CoreSchedulable(bad) {
		t.Error("overloaded core accepted")
	}
}

func TestSetSchedulable(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "a", WCET: 2, Period: 4, Deadline: 4, Core: 0, Priority: 0},
			{Name: "b", WCET: 2, Period: 8, Deadline: 8, Core: 0, Priority: 1},
			{Name: "c", WCET: 5, Period: 10, Deadline: 10, Core: 1, Priority: 2},
		},
	}
	if !SetSchedulable(ts) {
		t.Error("schedulable set rejected")
	}
	ts.RT[1].WCET = 5 // core 0 now has demand 2/4 + 5/8 > 1
	if SetSchedulable(ts) {
		t.Error("overloaded set accepted")
	}
}

// Property: the response time is at least the WCET plus one full burst
// of every higher-priority task, and never below the WCET.
func TestResponseTimeLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := rng.Intn(4)
		hp := make([]Demand, n)
		var burst task.Time
		for i := range hp {
			hp[i] = Demand{WCET: 1 + task.Time(rng.Intn(5)), Period: 10 + task.Time(rng.Intn(90))}
			burst += hp[i].WCET
		}
		c := 1 + task.Time(rng.Intn(8))
		r, ok := ResponseTime(c, hp, 1<<20)
		if !ok {
			return true // divergence is legal under overload
		}
		return r >= c && r >= c+burst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: adding an interferer never decreases the response time.
func TestResponseTimeMonotoneInInterference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3)
		hp := make([]Demand, n)
		for i := range hp {
			hp[i] = Demand{WCET: 1 + task.Time(rng.Intn(4)), Period: 8 + task.Time(rng.Intn(40))}
		}
		c := 1 + task.Time(rng.Intn(6))
		rSmall, okSmall := ResponseTime(c, hp[:n-1], 1<<20)
		rBig, okBig := ResponseTime(c, hp, 1<<20)
		if !okSmall && okBig {
			t.Fatalf("trial %d: adding interference made the task schedulable", trial)
		}
		if okSmall && okBig && rBig < rSmall {
			t.Fatalf("trial %d: R decreased from %d to %d after adding interference", trial, rSmall, rBig)
		}
	}
}

// Property: the returned fixed point actually satisfies Eq. 1 with
// equality of the recurrence.
func TestResponseTimeIsFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(4)
		hp := make([]Demand, n)
		for i := range hp {
			hp[i] = Demand{WCET: 1 + task.Time(rng.Intn(4)), Period: 10 + task.Time(rng.Intn(50))}
		}
		c := 1 + task.Time(rng.Intn(6))
		r, ok := ResponseTime(c, hp, 1<<20)
		if !ok {
			continue
		}
		sum := c
		for _, d := range hp {
			sum += ceilDiv(r, d.Period) * d.WCET
		}
		if sum != r {
			t.Fatalf("trial %d: fixed point violated: recurrence(%d) = %d", trial, r, sum)
		}
	}
}

// Regression: a core whose higher-priority demand sits at exactly 100%
// utilisation has no fixed point for any task below it. Before the
// divergence screen, ResponseTime with an effectively unbounded limit
// (task.Infinity) would creep a few ticks per iteration for ~2^62
// steps — an effective hang. The test passing at all is the fix.
func TestResponseTimeExactlyFullUtilizationDiverges(t *testing.T) {
	hp := []Demand{{WCET: 1, Period: 2}, {WCET: 1, Period: 2}} // ΣC/T = 1 exactly
	if r, ok := ResponseTime(1, hp, task.Infinity); ok {
		t.Fatalf("accepted a task under exactly-100%% higher-priority load: R=%d", r)
	}
	// Same demand, finite limit: identical verdict.
	if _, ok := ResponseTime(1, hp, 1<<40); ok {
		t.Fatal("accepted under exactly-100%% load with a finite limit")
	}
	// Sanity: the screen must not fire below 100%.
	hp = []Demand{{WCET: 1, Period: 2}, {WCET: 1, Period: 3}} // 5/6
	if _, ok := ResponseTime(1, hp, task.Infinity); !ok {
		t.Fatal("rejected a schedulable task under 5/6 load")
	}
}

// A zero-WCET probe converges at 0 even under full load; the
// divergence screen must not reject it.
func TestResponseTimeZeroWCETUnderFullLoad(t *testing.T) {
	hp := []Demand{{WCET: 1, Period: 2}, {WCET: 1, Period: 2}}
	r, ok := ResponseTime(0, hp, task.Infinity)
	if !ok || r != 0 {
		t.Fatalf("got (%d, %v), want (0, true)", r, ok)
	}
}

// CoreSchedulable(tasks) iff every task's response time, computed by
// the naive reference iteration with its deadline as the limit,
// converges: Eq. 1 checked per task against an independent loop, on
// random cores spanning schedulable and overloaded demand.
func TestCoreSchedulableConsistentWithCoreResponseTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	accepted := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(6)
		tasks := make([]task.RTTask, n)
		for i := range tasks {
			period := task.Time(4 + rng.Intn(40))
			wcet := 1 + task.Time(rng.Intn(int(period)))
			deadline := wcet + task.Time(rng.Intn(int(period-wcet)+1))
			tasks[i] = task.RTTask{
				Name: "t", WCET: wcet, Period: period,
				Deadline: deadline, Priority: i,
			}
		}
		want := true
		resp := make([]task.Time, 0, n)
		hp := make([]Demand, 0, n)
		for _, tk := range tasks {
			r, ok := naiveResponseTime(tk.WCET, hp, tk.Deadline)
			resp = append(resp, r)
			want = want && ok
			hp = append(hp, Demand{WCET: tk.WCET, Period: tk.Period})
		}
		if got := CoreSchedulable(tasks); got != want {
			t.Fatalf("trial %d: CoreSchedulable=%v but the naive iteration gives %v (responses %v)", trial, got, want, resp)
		}
		if want {
			accepted++
		}
	}
	if accepted == 0 || accepted == 500 {
		t.Fatalf("all 500 cores got the same verdict (%d accepted); the draw no longer spans both", accepted)
	}
	t.Logf("%d of 500 cores schedulable", accepted)
}

// naiveResponseTime is the pre-jump reference iteration: one full
// demand evaluation per refinement, identical utilisation screen and
// budget. The staircase shortcut must match it bit for bit.
func naiveResponseTime(wcet task.Time, hp []Demand, limit task.Time) (task.Time, bool) {
	if wcet > limit {
		return task.Infinity, false
	}
	var u float64
	for _, d := range hp {
		u += float64(d.WCET) / float64(d.Period)
	}
	if u >= 1 && wcet > 0 {
		return task.Infinity, false
	}
	x := wcet
	for iter := 0; iter < MaxIterations; iter++ {
		next := wcet
		for _, d := range hp {
			next += ((x + d.Period - 1) / d.Period) * d.WCET
		}
		if next == x {
			return x, true
		}
		if next > limit || next < x {
			return task.Infinity, false
		}
		x = next
	}
	return task.Infinity, false
}

// The staircase shortcut (returning the refinement that lands on the
// same demand step) must agree with the naive creep on dense random
// cores, including near-overload divergence verdicts.
func TestResponseTimeStaircaseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5000; trial++ {
		var hp []Demand
		for n := rng.Intn(6); n > 0; n-- {
			p := task.Time(1 + rng.Intn(50))
			c := 1 + rng.Int63n(int64(p))
			hp = append(hp, Demand{WCET: c, Period: p})
		}
		wcet := task.Time(1 + rng.Intn(30))
		limit := wcet + rng.Int63n(4000)
		gotR, gotOK := ResponseTime(wcet, hp, limit)
		wantR, wantOK := naiveResponseTime(wcet, hp, limit)
		if gotR != wantR || gotOK != wantOK {
			t.Fatalf("trial %d (%d hp, wcet=%d, limit=%d): jump (%d,%v) != naive (%d,%v)",
				trial, len(hp), wcet, limit, gotR, gotOK, wantR, wantOK)
		}
	}
}

// The Eq. 1 fixpoint is the admission engine's per-core screen; it
// must not allocate.
func TestResponseTimeAllocFree(t *testing.T) {
	hp := []Demand{{WCET: 2, Period: 10}, {WCET: 7, Period: 35}, {WCET: 11, Period: 90}}
	if avg := testing.AllocsPerRun(200, func() {
		ResponseTime(9, hp, 1_000_000)
	}); avg != 0 {
		t.Fatalf("ResponseTime allocates %.1f objects per call; want 0", avg)
	}
}
