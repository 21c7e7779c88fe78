package oracle_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hydrac"
	"hydrac/internal/core"
	"hydrac/internal/gen"
	"hydrac/internal/oracle"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

// largeBandConfig draws paper-shaped sets (Table 3 period ranges at
// 10 ticks/ms) with fixed per-core task counts, so n scales exactly
// with M.
func largeBandConfig(cores, rtPer, secPer int) gen.Config {
	return gen.Config{
		Cores:           cores,
		RTTasksMin:      rtPer * cores,
		RTTasksMax:      rtPer * cores,
		SecTasksMin:     secPer * cores,
		SecTasksMax:     secPer * cores,
		RTPeriodMin:     10,
		RTPeriodMax:     1000,
		SecMaxPeriodMin: 1500,
		SecMaxPeriodMax: 3000,
		SecurityShare:   0.30,
		Groups:          10,
		SetsPerGroup:    1,
		Partition:       partition.BestFit,
		MaxAttempts:     40,
		TicksPerMS:      10,
	}
}

// TestDifferentialLargeN is the large-n band: n ∈ {~500, ~1000, ~2000}
// total tasks on M ∈ {64, 128} cores, at one set per (size, group)
// cell instead of the small-set suite's hundreds. Every cell asserts
// the optimized kernel against naive from-scratch recomputation
// (oracle.VerifySelection: verdict at Tmax, bit-identical response
// vector, per-level minimality probes); the smallest cell additionally
// runs the full binary-search oracle end to end, and one cell replays
// the tail of the security band through an incremental admission
// session. The creep oracle itself is O(n·Tmax) probes and stays on the
// small-set corpus — its equivalence to the binary-search oracle is
// established there.
//
// The band costs tens of seconds on one core and is skipped in -short
// runs; tier-1 keeps the small-set differential suite.
func TestDifferentialLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n differential band: expensive; run without -short")
	}
	const seedBase = 20260807
	ctx := context.Background()
	cells := []struct {
		cores, rtPer, secPer int
		group                int
		stride               int  // VerifySelection minimality sampling
		fullOracle           bool // run oracle.SelectPeriodsLog end to end
		deltaTail            int  // security tasks to replay through a session
	}{
		{64, 5, 3, 3, 1, true, 0},     // n=512, mid utilisation
		{64, 5, 3, 8, 1, true, 0},     // n=512, near overload
		{64, 10, 6, 3, 8, false, 2},   // n=1024
		{128, 5, 3, 4, 8, false, 0},   // n=1024, wide machine
		{128, 10, 6, 4, 16, false, 2}, // n=2048
		{128, 10, 6, 8, 16, false, 0}, // n=2048, near overload
	}
	var sched, unsched atomic.Int32
	// The cells are independent draws; running them parallel keeps the
	// band's wall time near its slowest cell on multi-core CI runners
	// (the race-detector run has no -short escape hatch).
	t.Run("cells", func(t *testing.T) {
		for _, c := range cells {
			c := c
			name := fmt.Sprintf("M%d-n%d-g%d", c.cores, (c.rtPer+c.secPer)*c.cores, c.group)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := largeBandConfig(c.cores, c.rtPer, c.secPer)
				var ts *task.Set
				var err error
				for i := 0; i < 5; i++ {
					if ts, err = cfg.GenerateAt(seedBase, c.group, i); err == nil {
						break
					}
				}
				if err != nil {
					// The top utilisation groups legitimately have no
					// partitionable draws at some sizes.
					t.Skipf("no partitionable draw: %v", err)
				}
				n := len(ts.RT) + len(ts.Security)
				t0 := time.Now()
				cold, err := core.SelectPeriods(ts, core.Options{})
				if err != nil {
					t.Fatalf("n=%d: cold selection failed: %v", n, err)
				}
				coldDur := time.Since(t0)
				if cold.Schedulable {
					sched.Add(1)
				} else {
					unsched.Add(1)
				}
				t0 = time.Now()
				if err := oracle.VerifySelection(ts, cold.Schedulable, cold.Periods, cold.Resp, c.stride); err != nil {
					t.Fatalf("n=%d: kernel disagrees with from-scratch recomputation: %v", n, err)
				}
				verifyDur := time.Since(t0)
				oraDur := time.Duration(0)
				if c.fullOracle {
					t0 = time.Now()
					ora, err := oracle.SelectPeriodsLog(ts)
					if err != nil {
						t.Fatalf("n=%d: binary-search oracle failed: %v", n, err)
					}
					sameResult(t, "large-n binary-search oracle", cold, ora.Schedulable, ora.Periods, ora.Resp)
					oraDur = time.Since(t0)
				}
				if c.deltaTail > 0 && cold.Schedulable {
					replayTail(t, ctx, ts, cold, c.deltaTail)
				}
				t.Logf("n=%d sched=%v: cold=%v verify=%v oracle=%v",
					n, cold.Schedulable, coldDur, verifyDur, oraDur)
			})
		}
	})
	if sched.Load() == 0 || unsched.Load() == 0 {
		t.Fatalf("band verdicts degenerate: %d schedulable, %d unschedulable — both paths must be exercised", sched.Load(), unsched.Load())
	}
}

// replayTail admits the last `tail` security tasks one at a time into
// a session seeded with the rest of the set, asserting each
// intermediate report against a cold analysis — the large-n version of
// incrementalReplay, kept to the tail so each step's cold reference
// stays affordable.
func replayTail(t *testing.T, ctx context.Context, ts *task.Set, cold *core.Result, tail int) {
	t.Helper()
	if tail > len(ts.Security) {
		tail = len(ts.Security)
	}
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	step := ts.Clone()
	step.Security = step.Security[:len(step.Security)-tail]
	sess, _, err := a.NewSession(ctx, step)
	if err != nil {
		t.Fatalf("session rejected the head set: %v", err)
	}
	for k := len(ts.Security) - tail; k < len(ts.Security); k++ {
		s := ts.Security[k]
		t0 := time.Now()
		rep, admitted, err := sess.Admit(ctx, task.Delta{AddSecurity: []task.SecurityTask{s}})
		if err != nil {
			t.Fatalf("admitting %s: %v", s.Name, err)
		}
		deltaDur := time.Since(t0)
		step.Security = ts.Security[:k+1]
		if rep.TaskSetHash != step.Hash() {
			t.Fatalf("admitting %s: the session analysed a set other than the replayed prefix", s.Name)
		}
		stepCold, err := core.SelectPeriods(step, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, "large-n incremental step", stepCold, rep)
		t.Logf("  delta admit %s: %v (n=%d)", s.Name, deltaDur, len(step.RT)+len(step.Security))
		if !admitted {
			if cold.Schedulable {
				t.Fatalf("prefix through %s denied but the full set is schedulable", s.Name)
			}
			return
		}
	}
}
