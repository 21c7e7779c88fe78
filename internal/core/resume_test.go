package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hydrac/internal/oracle"
	"hydrac/internal/task"
)

// resumeTestSet draws a small partitioned-RT set; same shape as the
// quick-check sets used elsewhere in the package.
func resumeTestSet(rng *rand.Rand) *task.Set {
	ts := &task.Set{Cores: 1 + rng.Intn(2)}
	nrt := 2 + rng.Intn(4)
	for i := 0; i < nrt; i++ {
		period := task.Time(16 + rng.Intn(60))
		ts.RT = append(ts.RT, task.RTTask{
			Name: "rt" + string(rune('a'+i)), WCET: 1 + task.Time(rng.Intn(4)),
			Period: period, Deadline: period, Core: rng.Intn(ts.Cores), Priority: i,
		})
	}
	nsec := 1 + rng.Intn(4)
	for i := 0; i < nsec; i++ {
		ts.Security = append(ts.Security, task.SecurityTask{
			Name: "sec" + string(rune('a'+i)), WCET: 1 + task.Time(rng.Intn(3)),
			MaxPeriod: task.Time(80 + rng.Intn(300)), Core: -1, Priority: i,
		})
	}
	return ts
}

// sameAsOracle reports whether the kernel's result equals the naive
// oracle's field for field.
func sameAsOracle(got *Result, want *oracle.Result) bool {
	return got.Schedulable == want.Schedulable &&
		reflect.DeepEqual(got.Periods, want.Periods) &&
		reflect.DeepEqual(got.Resp, want.Resp)
}

// The selector without hints must agree with the naive oracle exactly,
// and with correct hints it must agree while verifying (not searching)
// every task.
func TestSelectPeriodsResumableMatchesCold(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	verified := 0
	for trial := 0; trial < 400; trial++ {
		ts := resumeTestSet(rng)
		if err := ts.Validate(); err != nil {
			continue
		}
		want, oerr := oracle.SelectPeriods(ts)
		cold, stats, err := SelectPeriodsResumableWith(ctx, ts, nil, NewScratch(nil))
		if (err != nil) != (oerr != nil) {
			t.Fatalf("trial %d: selector error %v, oracle error %v", trial, err, oerr)
		}
		if err != nil {
			continue // RT band infeasible for this draw
		}
		if !sameAsOracle(cold, want) {
			t.Fatalf("trial %d: hintless selector diverged from the oracle:\noracle %+v\ngot    %+v", trial, want, cold)
		}
		if !cold.Schedulable {
			continue
		}
		if stats.Verified != 0 {
			t.Fatalf("trial %d: verified %d tasks without hints", trial, stats.Verified)
		}
		// Perfect hints: every task must verify in place.
		hints := &Hints{Periods: map[string]task.Time{}, RTVerified: true}
		for i, s := range ts.Security {
			hints.Periods[s.Name] = cold.Periods[i]
		}
		again, stats2, err := SelectPeriodsResumableWith(ctx, ts, hints, NewScratch(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, again) {
			t.Fatalf("trial %d: hinted selection diverged from the hintless one", trial)
		}
		if stats2.Searched != 0 {
			t.Fatalf("trial %d: %d searches despite perfect hints", trial, stats2.Searched)
		}
		verified += stats2.Verified
		// Wrong hints must be rejected by verification, not trusted.
		bad := &Hints{Periods: map[string]task.Time{}}
		for i, s := range ts.Security {
			bad.Periods[s.Name] = cold.Periods[i] + 1 + task.Time(rng.Intn(5))
		}
		fixed, _, err := SelectPeriodsResumableWith(ctx, ts, bad, NewScratch(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, fixed) {
			t.Fatalf("trial %d: wrong hints leaked into the result", trial)
		}
	}
	if verified == 0 {
		t.Fatal("no trial exercised the verification fast path")
	}
}

// Regression for the MaxFixpointIterations backstop: when every
// core's interference clamp binds, the Eq. 7 recurrence creeps one
// tick per iteration for a span proportional to the WCETs in the
// window — with ~1e7-tick WCETs that is beyond the iteration budget,
// and before the cap it was an effective hang at 2^40 scale. The
// analysis must terminate promptly with a conservative unschedulable
// verdict instead.
func TestFixpointIterationCapTerminates(t *testing.T) {
	ts := &task.Set{
		Cores: 1,
		RT: []task.RTTask{
			{Name: "big", WCET: 10_000_000, Period: 1_000_000_000, Deadline: 1_000_000_000, Core: 0, Priority: 0},
		},
		Security: []task.SecurityTask{
			{Name: "huge", WCET: 100_000_000, MaxPeriod: 900_000_000, Core: -1, Priority: 0},
		},
	}
	res, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("creep set accepted; the iteration cap should have fired conservatively")
	}
}

// A chain that mixes warmable tasks with one that fails the budget
// gate (Tmax − C ≥ MaxFixpointIterations) runs the gated task cold and
// warm-starts the rest inside the same probe. The selection must still
// match the naive log-search oracle exactly, errors included.
func TestSelectPeriodsMixedBudgetGate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	compared, schedulable := 0, 0
	for trial := 0; trial < 200; trial++ {
		ts := resumeTestSet(rng)
		if len(ts.Security) < 2 {
			continue
		}
		g := &ts.Security[rng.Intn(len(ts.Security)-1)] // never the lowest priority
		g.MaxPeriod = MaxFixpointIterations + g.WCET + task.Time(rng.Intn(1000))
		want, oerr := oracle.SelectPeriodsLog(ts)
		got, err := SelectPeriods(ts, Options{})
		if (err != nil) != (oerr != nil) {
			t.Fatalf("trial %d: selector error %v, oracle error %v", trial, err, oerr)
		}
		compared++
		if err != nil {
			continue
		}
		if !sameAsOracle(got, want) {
			t.Fatalf("trial %d: mixed-gate selection diverged from the oracle:\noracle %+v\ngot    %+v", trial, want, got)
		}
		if got.Schedulable {
			schedulable++
		}
	}
	if compared < 50 || schedulable == 0 {
		t.Fatalf("only %d sets compared (%d schedulable); want ≥ 50 with selections", compared, schedulable)
	}
	t.Logf("%d sets compared, %d schedulable", compared, schedulable)
}
