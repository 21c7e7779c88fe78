package hydrac_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
)

func analyzerTaskSet() *hydrac.TaskSet {
	return &hydrac.TaskSet{
		Cores: 2,
		RT: []hydrac.RTTask{
			{Name: "control", WCET: 12, Period: 40, Deadline: 40, Core: 0, Priority: 0},
			{Name: "vision", WCET: 25, Period: 100, Deadline: 100, Core: 1, Priority: 1},
		},
		Security: []hydrac.SecurityTask{
			{Name: "scanner", WCET: 30, MaxPeriod: 500, Priority: 0, Core: -1},
			{Name: "auditor", WCET: 10, MaxPeriod: 800, Priority: 1, Core: -1},
		},
	}
}

func TestAnalyzePipeline(t *testing.T) {
	a, err := hydrac.New(
		hydrac.WithBaselines(hydrac.SchemeHydra, hydrac.SchemeGlobalTMax),
		hydrac.WithSimulation(hydrac.SimConfig{Policy: hydrac.SemiPartitioned, Horizon: 4000}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := analyzerTaskSet()
	rep, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable {
		t.Fatal("quickstart set unschedulable")
	}
	if rep.TaskSetHash != ts.Hash() {
		t.Fatal("report hash does not echo the input hash")
	}
	if rep.Heuristic != "" {
		t.Fatalf("no partitioning ran, but heuristic = %q", rep.Heuristic)
	}
	if len(rep.Tasks) != 2 || rep.Tasks[0].Name != "scanner" || rep.Tasks[1].Name != "auditor" {
		t.Fatalf("verdicts out of order: %+v", rep.Tasks)
	}
	for _, v := range rep.Tasks {
		if v.Period <= 0 || v.Period > v.MaxPeriod || v.WCRT > v.Period {
			t.Fatalf("%s: implausible verdict %+v", v.Name, v)
		}
	}
	if len(rep.Baselines) != 2 || rep.Baselines[0].Scheme != hydrac.SchemeHydra || rep.Baselines[1].Scheme != hydrac.SchemeGlobalTMax {
		t.Fatalf("baselines wrong: %+v", rep.Baselines)
	}
	if len(rep.Baselines[1].RT) != 2 {
		t.Fatal("global-tmax verdict misses RT response times")
	}
	if rep.Simulation == nil || rep.Simulation.RTDeadlineMisses != 0 || rep.Simulation.Horizon != 4000 {
		t.Fatalf("simulation summary wrong: %+v", rep.Simulation)
	}
	if rep.Timing == nil || rep.Timing.TotalNS <= 0 || rep.Timing.SelectionNS <= 0 {
		t.Fatalf("timing not stamped: %+v", rep.Timing)
	}
	if rep.FromCache {
		t.Fatal("cold analysis claims a cache hit")
	}

	// The report must not alias the caller's input or mutate it.
	if ts.Security[0].Period != 0 {
		t.Fatal("Analyze mutated the input set")
	}
}

func TestAnalyzePartitionsUnassignedSets(t *testing.T) {
	a, err := hydrac.New(hydrac.WithHeuristic(hydrac.WorstFit))
	if err != nil {
		t.Fatal(err)
	}
	ts := analyzerTaskSet()
	for i := range ts.RT {
		ts.RT[i].Core = -1
	}
	rep, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable {
		t.Fatal("unschedulable after auto-partitioning")
	}
	if rep.Heuristic != "worst-fit" {
		t.Fatalf("heuristic = %q, want worst-fit", rep.Heuristic)
	}
	if ts.RT[0].Core != -1 {
		t.Fatal("Analyze mutated the caller's core assignments")
	}

	// The report must be self-contained: applying it to the original
	// (still unpartitioned) set reconstructs the analysed placement,
	// so the configuration simulates.
	if len(rep.RT) != len(ts.RT) {
		t.Fatalf("report carries %d RT assignments for %d tasks", len(rep.RT), len(ts.RT))
	}
	cfgd, err := rep.ApplyTo(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range cfgd.RT {
		if rt.Core < 0 {
			t.Fatalf("RT task %s still unplaced after ApplyTo", rt.Name)
		}
	}
	out, err := hydrac.Simulate(cfgd, hydrac.SimConfig{Horizon: 2000})
	if err != nil {
		t.Fatalf("applied configuration does not simulate: %v", err)
	}
	if out.RTDeadlineMisses != 0 {
		t.Fatal("applied configuration misses RT deadlines")
	}
}

func TestAnalyzeRejectsMixedPartitioning(t *testing.T) {
	// One pinned, one free RT task: repartitioning would silently move
	// the pinned task, so the pipeline must refuse.
	a, _ := hydrac.New()
	ts := analyzerTaskSet()
	ts.RT[1].Core = -1
	_, err := a.Analyze(context.Background(), ts)
	if err == nil || !strings.Contains(err.Error(), "pin all cores or none") {
		t.Fatalf("mixed set accepted: %v", err)
	}
}

func TestAnalyzeInvalidSet(t *testing.T) {
	a, _ := hydrac.New()
	_, err := a.Analyze(context.Background(), &hydrac.TaskSet{Cores: 0})
	if err == nil {
		t.Fatal("zero-core set accepted")
	}
}

func TestAnalyzeHonoursCancellation(t *testing.T) {
	a, err := hydrac.New(
		hydrac.WithSimulation(hydrac.SimConfig{Horizon: 60000}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Analyze(ctx, analyzerTaskSet()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze under a cancelled context: %v", err)
	}
	if _, err := a.AnalyzeBatch(ctx, []*hydrac.TaskSet{analyzerTaskSet()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeBatch under a cancelled context: %v", err)
	}
}

func TestAnalyzeCache(t *testing.T) {
	a, err := hydrac.New(hydrac.WithCache(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := a.Analyze(ctx, analyzerTaskSet())
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Analyze(ctx, analyzerTaskSet())
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache || !second.FromCache {
		t.Fatalf("cache flags wrong: first %v, second %v", first.FromCache, second.FromCache)
	}
	// Canonical content must agree; only the per-call stamps differ.
	a1, a2 := first.Clone(), second.Clone()
	a1.Timing, a2.Timing = nil, nil
	a1.FromCache, a2.FromCache = false, false
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("cached report diverges:\n%+v\nvs\n%+v", a1, a2)
	}
	// A different set is a different key.
	other := analyzerTaskSet()
	other.Security[0].WCET++
	rep, err := a.Analyze(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromCache {
		t.Fatal("distinct set hit the cache")
	}
}

func TestAnalyzeConcurrent(t *testing.T) {
	a, err := hydrac.New(hydrac.WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	sets := batchSets(t, 6)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := a.Analyze(context.Background(), sets[(g+i)%len(sets)]); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// batchSets draws n generator sets spanning several utilisation
// groups, skewed low so most are schedulable.
func batchSets(t *testing.T, n int) []*hydrac.TaskSet {
	t.Helper()
	cfg := gen.TableThree(2)
	var sets []*hydrac.TaskSet
	for i := 0; len(sets) < n; i++ {
		ts, err := cfg.Generate(rand.New(rand.NewSource(int64(i+1))), i%4)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
	}
	return sets
}

func TestAnalyzeBatchDeterministicAcrossWorkers(t *testing.T) {
	sets := batchSets(t, 10)
	// Duplicate entries so cache hits and repeated work are exercised.
	sets = append(sets, sets[0], sets[3])

	// AnalyzeBatch runs one worker per GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(workers)
		a, err := hydrac.New(
			hydrac.WithCache(8),
			hydrac.WithBaselines(hydrac.SchemeHydraTMax),
			hydrac.WithSimulation(hydrac.SimConfig{Horizon: 2000, Seed: 7}),
		)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := a.AnalyzeBatch(context.Background(), sets)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != len(sets) {
			t.Fatalf("%d workers: %d reports for %d sets", workers, len(reps), len(sets))
		}
		for i, rep := range reps {
			if rep == nil {
				t.Fatalf("%d workers: report %d missing", workers, i)
			}
			if rep.Timing != nil || rep.FromCache {
				t.Fatalf("%d workers: batch report %d carries per-call stamps", workers, i)
			}
			if rep.TaskSetHash != sets[i].Hash() {
				t.Fatalf("%d workers: report %d is for the wrong set", workers, i)
			}
		}
		var buf bytes.Buffer
		if err := hydrac.WriteReports(&buf, reps); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("batch reports differ between 1 and %d workers", workers)
		}
	}
}

func TestReportApplyTo(t *testing.T) {
	a, _ := hydrac.New()
	ts := analyzerTaskSet()
	rep, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	cfgd, err := rep.ApplyTo(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range cfgd.Security {
		if s.Period != rep.Tasks[i].Period {
			t.Fatalf("%s: period %d not applied", s.Name, rep.Tasks[i].Period)
		}
	}
	out, err := hydrac.Simulate(cfgd, hydrac.SimConfig{Horizon: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if out.RTDeadlineMisses != 0 || out.SecurityDeadlineMisses != 0 {
		t.Fatal("applied configuration misses deadlines")
	}

	// Mismatched sets are rejected.
	other := analyzerTaskSet()
	other.Security = other.Security[:1]
	if _, err := rep.ApplyTo(other); err == nil {
		t.Fatal("ApplyTo accepted a mismatched set")
	}
}

func TestBaselineGlobalTMaxSkipsPartitioning(t *testing.T) {
	// One RT task that no core can host: partitioned schemes must
	// fail, but GLOBAL-TMax analyses the set regardless.
	ts := &hydrac.TaskSet{
		Cores: 1,
		RT: []hydrac.RTTask{
			{Name: "hog", WCET: 90, Period: 100, Deadline: 100, Core: -1, Priority: 0},
			{Name: "hog2", WCET: 90, Period: 100, Deadline: 100, Core: -1, Priority: 1},
		},
		Security: []hydrac.SecurityTask{
			{Name: "s", WCET: 1, MaxPeriod: 1000, Priority: 0, Core: -1},
		},
	}
	a, _ := hydrac.New()
	v, err := a.Baseline(context.Background(), ts, hydrac.SchemeGlobalTMax)
	if err != nil {
		t.Fatalf("global-tmax refused an unpartitionable set: %v", err)
	}
	if v.Schedulable {
		t.Fatal("overloaded set reported schedulable")
	}
	if _, err := a.Baseline(context.Background(), ts, hydrac.SchemeHydra); err == nil {
		t.Fatal("partitioned baseline placed an unplaceable set")
	}
}

func TestBaselineVerdictAppliesOnUnassignedSet(t *testing.T) {
	// A set arriving with no RT placement (the wire default): the
	// baseline verdict must carry the placement it analysed so the
	// configuration simulates under the fully partitioned policy.
	ts := analyzerTaskSet()
	for i := range ts.RT {
		ts.RT[i].Core = -1
	}
	a, _ := hydrac.New()
	v, err := a.Baseline(context.Background(), ts, hydrac.SchemeHydraAggressive)
	if err != nil || !v.Schedulable {
		t.Fatalf("baseline failed: %v", err)
	}
	if len(v.Placement) != len(ts.RT) {
		t.Fatalf("verdict places %d RT tasks, want %d", len(v.Placement), len(ts.RT))
	}
	cfgd, err := v.ApplyTo(ts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := hydrac.Simulate(cfgd, hydrac.SimConfig{Policy: hydrac.FullyPartitioned, Horizon: 2000})
	if err != nil {
		t.Fatalf("applied baseline configuration does not simulate: %v", err)
	}
	if out.RTDeadlineMisses != 0 {
		t.Fatal("applied baseline configuration misses RT deadlines")
	}
}
