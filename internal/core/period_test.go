package core

import (
	"math/rand"
	"testing"

	"hydrac/internal/gen"
	"hydrac/internal/oracle"
	"hydrac/internal/task"
)

func roverLikeSet() *task.Set {
	// The paper's rover configuration (§5.1.2), in milliseconds.
	return &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "nav", WCET: 240, Period: 500, Deadline: 500, Core: 0, Priority: 0},
			{Name: "cam", WCET: 1120, Period: 5000, Deadline: 5000, Core: 1, Priority: 1},
		},
		Security: []task.SecurityTask{
			{Name: "kmod", WCET: 223, MaxPeriod: 10000, Priority: 0, Core: -1},
			{Name: "tripwire", WCET: 5342, MaxPeriod: 10000, Priority: 1, Core: -1},
		},
	}
}

func TestSelectPeriodsRover(t *testing.T) {
	ts := roverLikeSet()
	res, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatalf("SelectPeriods: %v", err)
	}
	if !res.Schedulable {
		t.Fatal("rover set reported unschedulable")
	}
	for i, s := range ts.Security {
		if res.Periods[i] < res.Resp[i] || res.Periods[i] > s.MaxPeriod {
			t.Errorf("%s: period %d outside [R=%d, Tmax=%d]", s.Name, res.Periods[i], res.Resp[i], s.MaxPeriod)
		}
	}
	// The whole point of period adaptation: periods must be far below
	// Tmax on this lightly loaded platform.
	for i, s := range ts.Security {
		if res.Periods[i] >= s.MaxPeriod {
			t.Errorf("%s: period %d not minimised below Tmax %d", s.Name, res.Periods[i], s.MaxPeriod)
		}
	}
}

func TestSelectPeriodsFinalStateConsistent(t *testing.T) {
	// With the final periods substituted back, every response time must
	// still satisfy Rs ≤ Ts ≤ Tmax (self-consistency of Algorithm 1).
	ts := roverLikeSet()
	res, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applied := Apply(ts, res)
	sys := NewSystem(applied)
	sec := applied.SecurityByPriority()
	periods := make([]task.Time, len(sec))
	for i, s := range sec {
		periods[i] = s.Period
	}
	resp := sys.ResponseTimes(sec, periods)
	for i, s := range sec {
		if resp[i] > periods[i] {
			t.Errorf("%s: final R %d exceeds selected period %d", s.Name, resp[i], periods[i])
		}
		if periods[i] > s.MaxPeriod {
			t.Errorf("%s: period %d exceeds Tmax %d", s.Name, periods[i], s.MaxPeriod)
		}
	}
}

func TestSelectPeriodsUnschedulable(t *testing.T) {
	ts := roverLikeSet()
	// Shrink Tmax below any feasible response time of tripwire.
	for i := range ts.Security {
		if ts.Security[i].Name == "tripwire" {
			ts.Security[i].MaxPeriod = 5400 // R is > 5342 + interference
		}
	}
	res, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedulable {
		t.Fatal("expected unschedulable (Tmax below achievable WCRT)")
	}
}

func TestSelectPeriodsRejectsUnpartitioned(t *testing.T) {
	ts := roverLikeSet()
	ts.RT[0].Core = -1
	if _, err := SelectPeriods(ts, Options{}); err == nil {
		t.Fatal("unpartitioned RT band accepted")
	}
}

func TestSelectPeriodsRejectsInfeasibleRTBand(t *testing.T) {
	ts := roverLikeSet()
	ts.RT[0].WCET = 499
	ts.RT[1].Core = 0
	ts.RT[1].Deadline = 1200
	ts.RT[1].Period = 1200
	if _, err := SelectPeriods(ts, Options{}); err == nil {
		t.Fatal("unschedulable RT band accepted")
	}
}

func TestSelectPeriodsEmptySecurity(t *testing.T) {
	ts := roverLikeSet()
	ts.Security = nil
	res, err := SelectPeriods(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable || len(res.Periods) != 0 {
		t.Fatalf("empty security band: %+v", res)
	}
}

// Algorithm 2's logarithmic search must agree with the brute-force
// downward scan of the from-scratch oracle. Monotonicity of
// feasibility in the period makes the binary search exact; this is the
// regression test for that claim.
func TestLogSearchMatchesLinearOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("linear oracle is slow")
	}
	rng := rand.New(rand.NewSource(21))
	cfg := gen.Config{
		Cores:      2,
		RTTasksMin: 3, RTTasksMax: 6,
		SecTasksMin: 2, SecTasksMax: 4,
		RTPeriodMin: 10, RTPeriodMax: 100,
		SecMaxPeriodMin: 150, SecMaxPeriodMax: 400,
		SecurityShare: 0.3,
		Groups:        10,
		SetsPerGroup:  1,
		MaxAttempts:   50,
	}
	checked := 0
	for g := 1; g <= 5 && checked < 20; g++ {
		for i := 0; i < 8 && checked < 20; i++ {
			ts, err := cfg.Generate(rng, g)
			if err != nil {
				continue
			}
			fast, err := SelectPeriods(ts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			slow, err := oracle.SelectPeriods(ts)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Schedulable != slow.Schedulable {
				t.Fatalf("schedulability mismatch: log=%v linear=%v", fast.Schedulable, slow.Schedulable)
			}
			if !fast.Schedulable {
				continue
			}
			for j := range fast.Periods {
				if fast.Periods[j] != slow.Periods[j] {
					t.Fatalf("period mismatch for %s: log=%d linear=%d",
						ts.Security[j].Name, fast.Periods[j], slow.Periods[j])
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no schedulable task sets generated; tune the test config")
	}
}

// Randomised invariant check over generated workloads: every
// schedulable result satisfies R ≤ T* ≤ Tmax per task, and the final
// configuration re-validates.
func TestSelectPeriodsRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := gen.TableThree(2)
	cfg.SetsPerGroup = 1
	cfg.MaxAttempts = 30
	count := 0
	for g := 0; g < 7; g++ {
		for i := 0; i < 5; i++ {
			ts, err := cfg.Generate(rng, g)
			if err != nil {
				continue
			}
			res, err := SelectPeriods(ts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Schedulable {
				continue
			}
			count++
			for j, s := range ts.Security {
				if res.Resp[j] > res.Periods[j] {
					t.Fatalf("%s: R %d > T* %d", s.Name, res.Resp[j], res.Periods[j])
				}
				if res.Periods[j] > s.MaxPeriod {
					t.Fatalf("%s: T* %d > Tmax %d", s.Name, res.Periods[j], s.MaxPeriod)
				}
				if res.Periods[j] < s.WCET {
					t.Fatalf("%s: T* %d < WCET %d", s.Name, res.Periods[j], s.WCET)
				}
			}
			applied := Apply(ts, res)
			if err := applied.Validate(); err != nil {
				t.Fatalf("applied set invalid: %v", err)
			}
		}
	}
	if count == 0 {
		t.Fatal("no schedulable sets exercised")
	}
}

func TestApplyPanicsOnUnschedulable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Apply did not panic on unschedulable result")
		}
	}()
	Apply(roverLikeSet(), &Result{Schedulable: false})
}
