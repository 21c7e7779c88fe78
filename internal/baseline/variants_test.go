package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"hydrac/internal/gen"
	"hydrac/internal/rta"
	"hydrac/internal/task"
)

// A platform where the aggressive greedy starves the lower-priority
// task but the lookahead variant keeps both schedulable: two monitors
// forced onto the same core.
func starvationSet() *task.Set {
	return &task.Set{
		Cores: 1,
		RT: []task.RTTask{
			{Name: "rt", WCET: 20, Period: 100, Deadline: 100, Core: 0, Priority: 0},
		},
		Security: []task.SecurityTask{
			{Name: "hi", WCET: 30, MaxPeriod: 500, Priority: 0, Core: -1},
			{Name: "lo", WCET: 100, MaxPeriod: 400, Priority: 1, Core: -1},
		},
	}
}

func TestAggressiveStarvesWhereLookaheadSurvives(t *testing.T) {
	ts := starvationSet()
	// Aggressive: hi pinned at its WCRT (30+20=... R=50? compute:
	// x0=30 -> 30+20=50 -> ceil(50/100)*20 -> 50). Period 50 means hi
	// consumes 60% of the core, leaving too little for lo (C=100,
	// Tmax=400) on top of the RT task.
	ares, err := HydraAggressive(ts)
	if err != nil {
		t.Fatal(err)
	}
	if ares.Schedulable {
		t.Fatalf("aggressive unexpectedly schedulable: %+v", ares)
	}
	// Lookahead: hi's period search is constrained by lo's Tmax.
	lres, err := Hydra(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !lres.Schedulable {
		t.Fatal("lookahead variant must schedule this set")
	}
	for i, s := range ts.Security {
		if lres.Resp[i] > lres.Periods[i] || lres.Periods[i] > s.MaxPeriod {
			t.Errorf("%s: R=%d T=%d Tmax=%d inconsistent", s.Name, lres.Resp[i], lres.Periods[i], s.MaxPeriod)
		}
	}
}

func TestAggressivePinsToWCRT(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "rt", WCET: 20, Period: 100, Deadline: 100, Core: 0, Priority: 0},
		},
		Security: []task.SecurityTask{
			{Name: "a", WCET: 10, MaxPeriod: 1000, Priority: 0, Core: -1},
			{Name: "b", WCET: 15, MaxPeriod: 1000, Priority: 1, Core: -1},
		},
	}
	res, err := HydraAggressive(ts)
	if err != nil || !res.Schedulable {
		t.Fatal(err)
	}
	for i := range ts.Security {
		if res.Periods[i] != res.Resp[i] {
			t.Errorf("task %d: aggressive period %d != WCRT %d", i, res.Periods[i], res.Resp[i])
		}
	}
	// a lands on the empty core 1 (min WCRT); b then prefers core 1?
	// No: with a@T=10 on core 1, b's WCRT there is 15+10·k; on core 0
	// it is 15+20=35 at worst. Verify consistency instead of guessing:
	demands := [][]rta.Demand{
		{{WCET: 20, Period: 100}},
		nil,
	}
	for _, s := range ts.SecurityByPriority() {
		i := 0
		for j, x := range ts.Security {
			if x.Name == s.Name {
				i = j
			}
		}
		r, ok := rta.ResponseTime(s.WCET, demands[res.Cores[i]], s.MaxPeriod)
		if !ok || r != res.Resp[i] {
			t.Errorf("%s: reported R=%d, recomputed (%d,%v) on core %d", s.Name, res.Resp[i], r, ok, res.Cores[i])
		}
		demands[res.Cores[i]] = append(demands[res.Cores[i]], rta.Demand{WCET: s.WCET, Period: res.Periods[i]})
	}
}

// The lookahead variant never reports shorter periods than what its
// own per-core final response times justify, and across random
// workloads its acceptance dominates the aggressive variant's.
func TestLookaheadDominatesAggressiveAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := gen.TableThree(2)
	cfg.MaxAttempts = 30
	agg, look, total := 0, 0, 0
	for g := 0; g < 8; g++ {
		for i := 0; i < 5; i++ {
			ts, err := cfg.Generate(rng, g)
			if err != nil {
				continue
			}
			total++
			ares, err := HydraAggressive(ts)
			if err != nil {
				t.Fatal(err)
			}
			lres, err := Hydra(ts)
			if err != nil {
				t.Fatal(err)
			}
			if ares.Schedulable {
				agg++
				if !lres.Schedulable {
					t.Fatalf("group %d: aggressive schedulable but lookahead not", g)
				}
			}
			if lres.Schedulable {
				look++
			}
		}
	}
	if total < 20 {
		t.Skipf("only %d sets generated", total)
	}
	if look < agg {
		t.Fatalf("lookahead accepted %d < aggressive %d", look, agg)
	}
	if look == agg {
		t.Log("warning: no separation observed on this seed")
	}
}

// HYDRA (lookahead) and HYDRA-TMax accept exactly the same sets, with
// the same placement. Phase 1 is shared, and phase 2 only lowers a
// period while every lower task on its core stays within its Tmax, so
// period minimisation can change periods but never the verdict.
func TestLookaheadAcceptanceEqualsHydraTMax(t *testing.T) {
	drawn, accepted := 0, 0
	for _, m := range []int{2, 4} {
		cfg := gen.TableThree(m)
		for g := 0; g < cfg.Groups; g++ {
			for i := 0; i < 40; i++ {
				ts, err := cfg.GenerateAt(2020, g, i)
				if err != nil {
					continue // no partitionable draw
				}
				drawn++
				lres, err := Hydra(ts)
				if err != nil {
					t.Fatal(err)
				}
				tres, err := HydraTMax(ts)
				if err != nil {
					t.Fatal(err)
				}
				if lres.Schedulable != tres.Schedulable {
					t.Fatalf("M=%d g=%d i=%d: HYDRA schedulable=%v, HYDRA-TMax %v", m, g, i, lres.Schedulable, tres.Schedulable)
				}
				if !lres.Schedulable {
					continue
				}
				accepted++
				if !slices.Equal(lres.Cores, tres.Cores) {
					t.Fatalf("M=%d g=%d i=%d: HYDRA cores %v, HYDRA-TMax %v", m, g, i, lres.Cores, tres.Cores)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no schedulable set exercised")
	}
	t.Logf("%d sets drawn, %d schedulable", drawn, accepted)
}
