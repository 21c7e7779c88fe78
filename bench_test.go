// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus ablations over the repository's own design
// choices. Each benchmark prints/reports the quantities the paper
// plots, at reduced sample sizes; run cmd/rover and cmd/sweep for the
// full-size experiments.
//
//	go test -bench=. -benchmem
package hydrac_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hydrac/internal/baseline"
	"hydrac/internal/core"
	"hydrac/internal/experiments"
	"hydrac/internal/gen"
	"hydrac/internal/partition"
	"hydrac/internal/rover"
	"hydrac/internal/sim"
	"hydrac/internal/task"
)

// BenchmarkFig5aDetectionTime regenerates Fig. 5a: mean intrusion
// detection time on the rover platform, HYDRA-C vs HYDRA. Metrics:
// detection means in ms per scheme and the relative speedup in %.
func BenchmarkFig5aDetectionTime(b *testing.B) {
	cfg := rover.DefaultTrialConfig()
	cfg.Trials = 10
	var hc, h *rover.SchemeResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		hc, h, err = rover.RunTrials(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hc.DetectionMS.Mean(), "HYDRA-C_ms")
	b.ReportMetric(h.DetectionMS.Mean(), "HYDRA_ms")
	b.ReportMetric(100*(h.DetectionMS.Mean()-hc.DetectionMS.Mean())/h.DetectionMS.Mean(), "speedup_%")
}

// BenchmarkFig5bContextSwitches regenerates Fig. 5b: context switches
// over the 45 s observation window. The controlled comparison (same
// periods, pinned vs migrating) isolates the migration overhead the
// paper attributes the 1.75x ratio to.
func BenchmarkFig5bContextSwitches(b *testing.B) {
	cfg := rover.DefaultTrialConfig()
	cfg.Trials = 10
	var mig, pin *rover.SchemeResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		mig, pin, err = rover.RunControlled(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mig.ContextSwitches.Mean(), "migrating_cs")
	b.ReportMetric(pin.ContextSwitches.Mean(), "pinned_cs")
	b.ReportMetric(mig.ContextSwitches.Mean()/pin.ContextSwitches.Mean(), "cs_ratio")
}

// BenchmarkFig6PeriodDistance regenerates Fig. 6: normalised distance
// between achieved and maximum period vectors across utilisation
// groups (2 cores). Metrics: mean distance in the lowest and highest
// populated groups — the paper's downward trend.
func BenchmarkFig6PeriodDistance(b *testing.B) {
	cfg := experiments.DefaultSweepConfig(2)
	cfg.SetsPerGroup = 8
	var res *experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err = experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Groups[0].Distance.Mean(), "dist_low_util")
	for g := len(res.Groups) - 1; g >= 0; g-- {
		if res.Groups[g].Distance.N() > 0 {
			b.ReportMetric(res.Groups[g].Distance.Mean(), "dist_high_util")
			break
		}
	}
}

// BenchmarkFig7aAcceptanceRatio regenerates Fig. 7a: acceptance ratio
// per scheme (2 cores). Metrics: mid-utilisation (group 5) acceptance
// for HYDRA-C and HYDRA — the gap the paper highlights.
func BenchmarkFig7aAcceptanceRatio(b *testing.B) {
	cfg := experiments.DefaultSweepConfig(2)
	cfg.SetsPerGroup = 8
	var res *experiments.Fig7aResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err = experiments.Fig7a(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	mid := res.Groups[5]
	b.ReportMetric(mid.Acceptance[experiments.SchemeHydraC].Ratio(), "HYDRA-C_%")
	b.ReportMetric(mid.Acceptance[experiments.SchemeHydra].Ratio(), "HYDRA_%")
	b.ReportMetric(mid.Acceptance[experiments.SchemeGlobalTMax].Ratio(), "GLOBAL-TMax_%")
	b.ReportMetric(mid.Acceptance[experiments.SchemeHydraTMax].Ratio(), "HYDRA-TMax_%")
}

// BenchmarkFig7bPeriodVectorDiff regenerates Fig. 7b: normalised
// period-vector differences (2 cores). Metrics: the two series at a
// low-utilisation group where both schemes schedule.
func BenchmarkFig7bPeriodVectorDiff(b *testing.B) {
	cfg := experiments.DefaultSweepConfig(2)
	cfg.SetsPerGroup = 8
	var res *experiments.Fig7bResult
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err = experiments.Fig7b(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, g := range res.Groups {
		if g.VsHydra.N() > 0 {
			b.ReportMetric(g.VsHydra.Mean(), "vs_HYDRA")
			break
		}
	}
	b.ReportMetric(res.Groups[1].VsNoOpt.Mean(), "vs_no_opt")
}

// BenchmarkSweepParallel measures the sweep engine's scaling on the
// Fig. 6 pipeline: the same work grid at 1, 2, 4 and all-CPU workers.
// Every iteration runs the identical fixed-seed sweep, so the
// reported dist_low_util must agree across sub-benchmarks (the
// engine's determinism contract) and only ns/op should move. Compare
// workers=1 against workers=4 for the speedup.
func BenchmarkSweepParallel(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := experiments.DefaultSweepConfig(2)
			cfg.SetsPerGroup = 16
			cfg.Seed = 1
			cfg.Parallel = w
			var res *experiments.Fig6Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.Fig6(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Groups[0].Distance.Mean(), "dist_low_util")
		})
	}
}

// BenchmarkTable3Generation measures the Table-3 workload generator:
// cost of drawing one partitioned, RT-schedulable task set (2 cores,
// mid utilisation).
func BenchmarkTable3Generation(b *testing.B) {
	cfg := gen.TableThree(2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(rng, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2RoverAnalysis measures the full rover configuration
// pipeline (Table 2 platform): Algorithm 1 on the paper's task set.
func BenchmarkTable2RoverAnalysis(b *testing.B) {
	ts := rover.TaskSet()
	for i := 0; i < b.N; i++ {
		res, err := core.SelectPeriods(ts, core.Options{})
		if err != nil || !res.Schedulable {
			b.Fatal("rover set must be schedulable")
		}
	}
}

// --------------------------------------------------------- ablations

// BenchmarkAblationPartitionHeuristics compares the RT bin-packing
// heuristics' cost on Table-3 workloads.
func BenchmarkAblationPartitionHeuristics(b *testing.B) {
	for _, h := range []partition.Heuristic{partition.BestFit, partition.FirstFit, partition.WorstFit} {
		b.Run(h.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			cfg := gen.TableThree(4)
			cfg.Partition = h
			sets := make([]*task.Set, 0, 16)
			for len(sets) < 16 {
				ts, err := cfg.Generate(rng, 3)
				if err != nil {
					continue
				}
				for j := range ts.RT {
					ts.RT[j].Core = -1
				}
				sets = append(sets, ts)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := sets[i%len(sets)].Clone()
				if err := partition.Assign(ts, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMigrationPolicies compares simulator throughput and
// context-switch counts across the three runtime policies on the same
// configured workload.
func BenchmarkAblationMigrationPolicies(b *testing.B) {
	base := rover.TaskSet()
	hres, err := baseline.HydraAggressive(base)
	if err != nil || !hres.Schedulable {
		b.Fatal("rover set must be HYDRA-schedulable")
	}
	ts := baseline.ApplyPartitioned(base, hres)
	for _, pol := range []sim.Policy{sim.SemiPartitioned, sim.FullyPartitioned, sim.Global} {
		b.Run(pol.String(), func(b *testing.B) {
			var cs int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(ts, sim.Config{Policy: pol, Horizon: 45000})
				if err != nil {
					b.Fatal(err)
				}
				cs = res.ContextSwitches
			}
			b.ReportMetric(float64(cs), "context_switches")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulated ticks per second
// on a dense 4-core workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cfg := gen.TableThree(4)
	var ts *task.Set
	for {
		cand, err := cfg.Generate(rng, 5)
		if err != nil {
			continue
		}
		res, err := core.SelectPeriods(cand, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Schedulable {
			ts = core.Apply(cand, res)
			break
		}
	}
	const horizon = 200000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ts, sim.Config{Policy: sim.SemiPartitioned, Horizon: horizon}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(horizon*b.N)/b.Elapsed().Seconds(), "ticks/s")
}
