package hydrac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"sync"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
)

// throughputSets draws a deterministic mix of Table-3 sets across the
// utilisation groups.
func throughputSets(t testing.TB, n int) []*hydrac.TaskSet {
	t.Helper()
	cfg := gen.TableThree(2)
	var sets []*hydrac.TaskSet
	for i := 0; len(sets) < n; i++ {
		ts, err := cfg.Generate(rand.New(rand.NewSource(int64(i+1))), i%6)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
	}
	return sets
}

// canonicalJSON renders a report with its per-call stamps scrubbed,
// for byte-level comparison.
func canonicalJSON(t testing.TB, rep *hydrac.Report) []byte {
	t.Helper()
	cp := rep.Clone()
	cp.Timing = nil
	cp.FromCache = false
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPooledScratchStress hammers one Analyzer from many goroutines —
// Analyze, AnalyzeBatch and admission sessions interleaved — and
// asserts every report is byte-identical to a fresh-Analyzer,
// fresh-scratch analysis of the same set. Run under -race this is the
// proof that recycled kernel workspaces never leak state between
// concurrent analyses (the pool hands a scratch to exactly one
// goroutine at a time, and a Reset re-primes every buffer).
func TestPooledScratchStress(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 6
	)
	sets := throughputSets(t, 10)

	// The expectation: each set analysed once, in isolation.
	want := make([][]byte, len(sets))
	for i, ts := range sets {
		fresh, err := hydrac.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fresh.Analyze(context.Background(), ts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonicalJSON(t, rep)
	}

	shared, err := hydrac.New(hydrac.WithCache(4)) // small: plenty of misses stay on the analysis path
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				switch (g + round) % 3 {
				case 0: // single analyses
					for i, ts := range sets {
						rep, err := shared.Analyze(ctx, ts)
						if err != nil {
							errc <- err
							return
						}
						if !bytes.Equal(canonicalJSON(t, rep), want[i]) {
							t.Errorf("goroutine %d round %d: Analyze(set %d) drifted from fresh-scratch result", g, round, i)
							return
						}
					}
				case 1: // batch
					reps, err := shared.AnalyzeBatch(ctx, sets)
					if err != nil {
						errc <- err
						return
					}
					for i, rep := range reps {
						if !bytes.Equal(canonicalJSON(t, rep), want[i]) {
							t.Errorf("goroutine %d round %d: batch report %d drifted from fresh-scratch result", g, round, i)
							return
						}
					}
				default: // sessions (the admission engine's pinned scratch)
					_, rep, err := shared.NewSession(ctx, sets[g%len(sets)])
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(canonicalJSON(t, rep), want[g%len(sets)]) {
						t.Errorf("goroutine %d round %d: session report drifted from fresh-scratch result", g, round)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestAnalyzeBatchSteadyStateAllocs is the regression gate for the
// pooled-scratch batch path: per-item allocations must stay at
// report-shaping level (clones, report slices) with no per-analysis
// kernel workspace. The bound is ~2x the measured steady state at the
// time of writing, so a reintroduced per-analysis NewScratch (~10
// buffer allocations each, growing with set size) trips it. The count
// is a single worker's: AllocsPerRun runs at GOMAXPROCS 1.
func TestAnalyzeBatchSteadyStateAllocs(t *testing.T) {
	sets := throughputSets(t, 4)
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.AnalyzeBatch(ctx, sets); err != nil {
		t.Fatal(err) // warm the pool
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := a.AnalyzeBatch(ctx, sets); err != nil {
			t.Fatal(err)
		}
	})
	perItem := avg / float64(len(sets))
	if perItem > 160 {
		t.Fatalf("AnalyzeBatch allocates %.1f objects per analysed set; want <= 160 (pooled steady state)", perItem)
	}
}

// TestAnalyzeEnvelopeCacheHitAllocs is the regression gate for the
// zero-copy service hot path: a cache hit must serve pre-encoded
// bytes — no report clone, no JSON marshal. The handful of remaining
// allocations are the canonical-hash computation of the lookup key.
func TestAnalyzeEnvelopeCacheHitAllocs(t *testing.T) {
	sets := throughputSets(t, 1)
	a, err := hydrac.New(hydrac.WithCache(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var marshalled []byte
	for i := 0; i < 2; i++ { // miss, then hit (memoizes the envelope)
		b, _, err := a.AnalyzeEnvelope(ctx, sets[0])
		if err != nil {
			t.Fatal(err)
		}
		marshalled = b
	}
	rep, err := hydrac.ReadReport(bytes.NewReader(marshalled))
	if err != nil {
		t.Fatalf("hit envelope does not parse: %v", err)
	}
	if !rep.FromCache || rep.Timing != nil {
		t.Fatalf("hit envelope must be canonical (FromCache, no Timing): %+v", rep)
	}

	avg := testing.AllocsPerRun(50, func() {
		if _, _, err := a.AnalyzeEnvelope(ctx, sets[0]); err != nil {
			t.Fatal(err)
		}
	})
	// What a hit must NOT pay: the legacy per-hit work — a report
	// clone plus a fresh JSON marshal (Analyze + WriteReport).
	// Calibrate against that path on this very workload so the bound
	// tracks the report size; the acceptance criterion is a >= 5x
	// reduction.
	legacyAllocs := testing.AllocsPerRun(50, func() {
		r, err := a.Analyze(ctx, sets[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := hydrac.WriteReport(io.Discard, r); err != nil {
			t.Fatal(err)
		}
	})
	if avg*5 > legacyAllocs {
		t.Fatalf("cache-hit AnalyzeEnvelope allocates %.1f objects, legacy clone+marshal path %.1f; want >= 5x reduction", avg, legacyAllocs)
	}

	// And the bytes of every hit are literally the same slice content.
	b2, cached, err := a.AnalyzeEnvelope(ctx, sets[0])
	if err != nil || !cached {
		t.Fatalf("expected a cache hit (err=%v cached=%v)", err, cached)
	}
	if !bytes.Equal(marshalled, b2) {
		t.Fatal("hit envelopes drifted between calls")
	}
}
