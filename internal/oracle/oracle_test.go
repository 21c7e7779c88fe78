package oracle_test

import (
	"context"
	"testing"

	"hydrac"
	"hydrac/internal/core"
	"hydrac/internal/gen"
	"hydrac/internal/oracle"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

// smallConfig keeps the sets tractable for the linear-scan oracle:
// tick-resolution periods a couple of hundred ticks long at most.
func smallConfig(cores int) gen.Config {
	return gen.Config{
		Cores:           cores,
		RTTasksMin:      2 * cores,
		RTTasksMax:      4 * cores,
		SecTasksMin:     2,
		SecTasksMax:     4,
		RTPeriodMin:     10,
		RTPeriodMax:     40,
		SecMaxPeriodMin: 50,
		SecMaxPeriodMax: 150,
		SecurityShare:   0.35,
		Groups:          9,
		SetsPerGroup:    1,
		Partition:       partition.BestFit,
		MaxAttempts:     60,
		TicksPerMS:      1,
	}
}

func sameResult(t *testing.T, label string, want *core.Result, gotSched bool, gotPeriods, gotResp []task.Time) {
	t.Helper()
	if want.Schedulable != gotSched {
		t.Fatalf("%s: schedulable=%v, want %v", label, gotSched, want.Schedulable)
	}
	if !want.Schedulable {
		return
	}
	for i := range want.Periods {
		if want.Periods[i] != gotPeriods[i] {
			t.Fatalf("%s: period[%d]=%d, want %d", label, i, gotPeriods[i], want.Periods[i])
		}
		if want.Resp[i] != gotResp[i] {
			t.Fatalf("%s: resp[%d]=%d, want %d", label, i, gotResp[i], want.Resp[i])
		}
	}
}

// sameReport is sameResult over the verdicts of a session report.
func sameReport(t *testing.T, label string, want *core.Result, rep *hydrac.Report) {
	t.Helper()
	periods := make([]task.Time, len(rep.Tasks))
	resp := make([]task.Time, len(rep.Tasks))
	for i, v := range rep.Tasks {
		periods[i], resp[i] = v.Period, v.WCRT
	}
	sameResult(t, label, want, rep.Schedulable, periods, resp)
}

// TestDifferentialOracle cross-checks four implementations of period
// selection on ~1k generated sets: Algorithm 2's binary search, the
// from-scratch linear-scan oracle, its binary-search twin, and an
// incremental admission session replaying the security band one task
// at a time. All four must agree bit for bit.
func TestDifferentialOracle(t *testing.T) {
	perGroup := 60
	if testing.Short() {
		perGroup = 8
	}
	ctx := context.Background()
	const seedBase = 20260729
	sets, unschedulable := 0, 0
	for _, cores := range []int{1, 2} {
		cfg := smallConfig(cores)
		for g := 0; g < cfg.Groups; g++ {
			for i := 0; i < perGroup; i++ {
				ts, err := cfg.GenerateAt(seedBase, g, i)
				if err != nil {
					continue // no partitionable draw in this slot
				}
				sets++
				cold, err := core.SelectPeriods(ts, core.Options{})
				if err != nil {
					t.Fatalf("cores=%d g=%d i=%d: cold selection failed on a generated set: %v", cores, g, i, err)
				}
				ora, err := oracle.SelectPeriods(ts)
				if err != nil {
					t.Fatalf("cores=%d g=%d i=%d: oracle failed: %v", cores, g, i, err)
				}
				sameResult(t, "naive oracle", cold, ora.Schedulable, ora.Periods, ora.Resp)
				logOra, err := oracle.SelectPeriodsLog(ts)
				if err != nil {
					t.Fatalf("cores=%d g=%d i=%d: binary-search oracle failed: %v", cores, g, i, err)
				}
				sameResult(t, "binary-search oracle", cold, logOra.Schedulable, logOra.Periods, logOra.Resp)
				if err := oracle.VerifySelection(ts, cold.Schedulable, cold.Periods, cold.Resp, 1); err != nil {
					t.Fatalf("cores=%d g=%d i=%d: from-scratch verifier rejected the kernel: %v", cores, g, i, err)
				}
				if !cold.Schedulable {
					unschedulable++
				}
				incrementalReplay(t, ctx, ts, cold)
			}
		}
	}
	if sets < 500 && !testing.Short() {
		t.Fatalf("only %d sets generated; corpus too thin to mean anything", sets)
	}
	if unschedulable == 0 {
		t.Error("corpus never exercised the unschedulable path")
	}
	t.Logf("%d sets (%d unschedulable)", sets, unschedulable)
}

// incrementalReplay admits ts's security tasks one at a time into a
// session seeded with the RT band only, asserting every intermediate
// and the final report against a cold analysis of the same set.
func incrementalReplay(t *testing.T, ctx context.Context, ts *task.Set, cold *core.Result) {
	t.Helper()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	step := ts.Clone()
	step.Security = nil
	sess, _, err := a.NewSession(ctx, step)
	if err != nil {
		t.Fatalf("session rejected an RT band the generator partitioned: %v", err)
	}
	for i, s := range ts.Security {
		rep, admitted, err := sess.Admit(ctx, task.Delta{AddSecurity: []task.SecurityTask{s}})
		if err != nil {
			t.Fatalf("admitting %s: %v", s.Name, err)
		}
		step.Security = ts.Security[:i+1]
		if rep.TaskSetHash != step.Hash() {
			t.Fatalf("admitting %s: the session analysed a set other than the replayed prefix", s.Name)
		}
		stepCold, err := core.SelectPeriods(step, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "incremental step", stepCold, rep)
		if !admitted {
			// A subset is already unschedulable; the full set must be
			// too (admitting more tasks only adds interference).
			if cold.Schedulable {
				t.Fatalf("prefix through %s denied but the full set is schedulable", s.Name)
			}
			return
		}
		if i == len(ts.Security)-1 {
			sameReport(t, "final incremental state", cold, rep)
		}
	}
}
