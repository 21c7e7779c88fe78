package hydrac_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
)

// benchAnalyzerSet draws one mid-utilisation Table-3 set; heavy enough
// that period selection does real work.
func benchAnalyzerSet(b *testing.B) *hydrac.TaskSet {
	b.Helper()
	ts, err := gen.TableThree(2).Generate(rand.New(rand.NewSource(11)), 4)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkAnalyzeCold measures the full pipeline with caching
// disabled: every iteration validates, selects periods and shapes a
// report from scratch. Metric: ns/op is the per-request analysis cost
// an uncached service pays.
func BenchmarkAnalyzeCold(b *testing.B) {
	a, err := hydrac.New()
	if err != nil {
		b.Fatal(err)
	}
	ts := benchAnalyzerSet(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(ctx, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeCached measures the repeated-traffic path: the same
// set re-submitted against a warm LRU. The gap to BenchmarkAnalyzeCold
// is what the cache buys an admission-control service per duplicate
// request (hash + lookup + clone instead of the full analysis).
func BenchmarkAnalyzeCached(b *testing.B) {
	a, err := hydrac.New(hydrac.WithCache(16))
	if err != nil {
		b.Fatal(err)
	}
	ts := benchAnalyzerSet(b)
	ctx := context.Background()
	if _, err := a.Analyze(ctx, ts); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.Analyze(ctx, ts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.FromCache {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkAnalyzeBatch measures bulk admission over the sweep
// engine at full parallelism, reports per second.
func BenchmarkAnalyzeBatch(b *testing.B) {
	cfg := gen.TableThree(2)
	var sets []*hydrac.TaskSet
	for i := 0; i < 32; i++ {
		ts, err := cfg.Generate(rand.New(rand.NewSource(int64(i+1))), i%6)
		if err != nil {
			b.Fatal(err)
		}
		sets = append(sets, ts)
	}
	a, err := hydrac.New()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AnalyzeBatch(ctx, sets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sets)), "sets/batch")
}

// benchAdmitBase draws a deterministic 50-task set (RT + security) for
// the incremental-admission benchmarks: big enough that Algorithm 1
// dominates, the scale the ISSUE's ≥5x speedup criterion names.
func benchAdmitBase(b *testing.B) *hydrac.TaskSet {
	b.Helper()
	cfg := gen.TableThree(4)
	rng := rand.New(rand.NewSource(2))
	for attempt := 0; attempt < 4096; attempt++ {
		ts, err := cfg.Generate(rng, 4)
		if err != nil {
			continue
		}
		if len(ts.RT)+len(ts.Security) == 50 {
			return ts
		}
	}
	b.Fatal("no 50-task draw found")
	return nil
}

// benchDeltaMonitor is the 1-task delta the admit benchmarks replay.
func benchDeltaMonitor() hydrac.Delta {
	return hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: "probe_mon", WCET: 5, MaxPeriod: 30000, Core: -1, Priority: 1000,
	}}}
}

// BenchmarkAnalyzeCold50 is the from-scratch cost of analysing the
// 51-task set (base + the probe monitor) — the work an admission
// service without the incremental engine pays on every delta.
func BenchmarkAnalyzeCold50(b *testing.B) {
	a, err := hydrac.New()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sess, _, err := a.NewSession(ctx, benchAdmitBase(b))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sess.Admit(ctx, benchDeltaMonitor()); err != nil {
		b.Fatal(err)
	}
	ts := sess.Set() // the exact post-delta set, fully placed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(ctx, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// loadCorpusSet reads a golden-corpus task set from disk.
func loadCorpusSet(b *testing.B, path string) *hydrac.TaskSet {
	b.Helper()
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ts, err := hydrac.DecodeTaskSet(f)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkAnalyzeColdHuge is the from-scratch analysis of the largest
// corpus entry: 2048 tasks on 128 cores, overloaded so the search runs
// to an unschedulable verdict. This is the massive-scale cold bound the
// scale work targets (≤5s acceptance; the regression case pins it).
func BenchmarkAnalyzeColdHuge(b *testing.B) {
	a, err := hydrac.New()
	if err != nil {
		b.Fatal(err)
	}
	ts := loadCorpusSet(b, "testdata/corpus/huge-overload.json")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(ctx, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitDeltaHuge is delta admission at massive scale: a warm
// session over the schedulable 1024-task/64-core corpus entry admits a
// fresh bottom-priority monitor each iteration. Every monitor lands
// strictly below the whole prior set in priority order, so the trusted
// prefix is adopted and only the new task is searched — the sublinear
// path the ≤100ms acceptance bound names. Monitors are not removed
// (removal invalidates the trusted prefix); the set grows by one tiny
// task per iteration, deterministically, so paired regression runs see
// identical work.
func BenchmarkAdmitDeltaHuge(b *testing.B) {
	a, err := hydrac.New()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sess, _, err := a.NewSession(ctx, loadCorpusSet(b, "testdata/corpus/huge-schedulable.json"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
			Name: fmt.Sprintf("probe_mon%d", i), WCET: 1, MaxPeriod: 30000, Core: -1, Priority: 1000 + i,
		}}}
		_, admitted, err := sess.Admit(ctx, d)
		if err != nil {
			b.Fatal(err)
		}
		if !admitted {
			b.Fatal("huge-set probe monitor denied")
		}
	}
}

// BenchmarkAdmitDelta is the incremental cost of the same delta: one
// Admit of the probe monitor against a warm 50-task session. The
// session state is restored outside the timer each iteration, so
// ns/op is the pure warm-path admission. Compare with
// BenchmarkAnalyzeCold50: the acceptance bar is ≥5x.
func BenchmarkAdmitDelta(b *testing.B) {
	a, err := hydrac.New()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sess, _, err := a.NewSession(ctx, benchAdmitBase(b))
	if err != nil {
		b.Fatal(err)
	}
	d := benchDeltaMonitor()
	rm := hydrac.Delta{Remove: []string{"probe_mon"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, admitted, err := sess.Admit(ctx, d)
		if err != nil {
			b.Fatal(err)
		}
		if !admitted {
			b.Fatal("probe monitor denied")
		}
		b.StopTimer()
		if _, _, err := sess.Admit(ctx, rm); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
