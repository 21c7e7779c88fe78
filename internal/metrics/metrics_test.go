package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hydrac/internal/task"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNormalizedPeriodDistance(t *testing.T) {
	maxP := []task.Time{100, 100}
	// Periods at the bound: distance 0.
	if d := NormalizedPeriodDistance([]task.Time{100, 100}, maxP); !almost(d, 0) {
		t.Errorf("distance at bound = %v, want 0", d)
	}
	// Periods halved: ||(50,50)|| / ||(100,100)|| = 0.5.
	if d := NormalizedPeriodDistance([]task.Time{50, 50}, maxP); !almost(d, 0.5) {
		t.Errorf("halved periods distance = %v, want 0.5", d)
	}
	// Degenerate inputs.
	if d := NormalizedPeriodDistance(nil, nil); d != 0 {
		t.Errorf("empty distance = %v", d)
	}
	if d := NormalizedPeriodDistance([]task.Time{1}, []task.Time{1, 2}); d != 0 {
		t.Errorf("length mismatch distance = %v", d)
	}
}

func TestNormalizedVectorDistance(t *testing.T) {
	a := []task.Time{30, 40}
	b := []task.Time{0, 0}
	ref := []task.Time{50, 0}
	// ||(30,40)|| = 50, ||ref|| = 50 → 1.
	if d := NormalizedVectorDistance(a, b, ref); !almost(d, 1) {
		t.Errorf("distance = %v, want 1", d)
	}
	if d := NormalizedVectorDistance(a, b, []task.Time{0, 0}); d != 0 {
		t.Errorf("zero reference distance = %v, want 0", d)
	}
}

func TestAcceptance(t *testing.T) {
	var a Acceptance
	if a.Ratio() != 0 {
		t.Errorf("empty ratio = %v", a.Ratio())
	}
	a.Add(true)
	a.Add(true)
	a.Add(false)
	a.Add(true)
	if !almost(a.Ratio(), 75) {
		t.Errorf("ratio = %v, want 75", a.Ratio())
	}
	if a.Accepted != 3 || a.Total != 4 {
		t.Errorf("counters = %+v", a)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample must report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	// Sample std of this classic set: sqrt(32/7).
	if !almost(s.Std(), math.Sqrt(32.0/7)) {
		t.Errorf("std = %v, want %v", s.Std(), math.Sqrt(32.0/7))
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 4 {
		t.Errorf("p50 = %v, want 4", got)
	}
	if got := s.Percentile(0); got != 2 {
		t.Errorf("p0 = %v, want 2", got)
	}
	if got := s.Percentile(100); got != 9 {
		t.Errorf("p100 = %v, want 9", got)
	}
}

func TestPercentileSingle(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, p := range []float64{0, 25, 50, 99, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("p%.0f = %v, want 42", p, got)
		}
	}
}

// renderedCounts reads the count column of h.Render, one entry per
// bucket.
func renderedCounts(t *testing.T, h *Histogram) []int {
	t.Helper()
	var counts []int
	for _, line := range strings.Split(strings.TrimSpace(h.Render(20)), "\n") {
		_, rest, _ := strings.Cut(line, ")")
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			t.Fatalf("render line without a count: %q", line)
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			t.Fatalf("render line %q: %v", line, err)
		}
		counts = append(counts, n)
	}
	return counts
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 4)
	for _, v := range []float64{5, 30, 31, 99, -10, 150} {
		h.Add(v)
	}
	// -10 clamps into bucket 0; 150 clamps into bucket 3.
	if got, want := renderedCounts(t, h), []int{2, 2, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("bucket counts = %v, want %v", got, want)
	}
	if out := h.Render(20); !strings.Contains(out, "#") {
		t.Errorf("render draws no bars:\n%s", out)
	}
	var s Sample
	s.Add(10)
	s.Add(20)
	h.AddSample(&s)
	if got, want := renderedCounts(t, h), []int{4, 2, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("AddSample: bucket counts = %v, want %v", got, want)
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram accepted")
		}
	}()
	NewHistogram(10, 10, 5)
}

func TestSampleSummaryJSON(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4, 100} {
		s.Add(v)
	}
	sum := s.Summary()
	if sum.N != 5 || sum.Min != 1 || sum.Max != 100 || sum.P50 != 3 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	raw, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back SampleSummary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != sum {
		t.Fatalf("round trip: %+v vs %+v", back, sum)
	}
}

// Merging contiguous shard partials in shard order must reproduce the
// serial sample exactly — value order included — and acceptance counts
// must combine additively. This is what the parallel sweep engine
// relies on.
func TestSampleMergePreservesOrder(t *testing.T) {
	var serial, shardA, shardB, merged Sample
	values := []float64{0.3, 0.1, 0.7, 0.2, 0.9}
	for _, v := range values {
		serial.Add(v)
	}
	for _, v := range values[:2] {
		shardA.Add(v)
	}
	for _, v := range values[2:] {
		shardB.Add(v)
	}
	merged.Merge(&shardA)
	merged.Merge(&shardB)
	if merged.N() != serial.N() || merged.Mean() != serial.Mean() || merged.Std() != serial.Std() {
		t.Fatalf("merged sample diverged: n=%d mean=%v std=%v, want n=%d mean=%v std=%v",
			merged.N(), merged.Mean(), merged.Std(), serial.N(), serial.Mean(), serial.Std())
	}
	if merged.Percentile(50) != serial.Percentile(50) {
		t.Fatal("percentile diverged after merge")
	}
	// Merging an empty sample is a no-op in both directions.
	var empty Sample
	before := merged.N()
	merged.Merge(&empty)
	if merged.N() != before {
		t.Fatal("merging empty changed N")
	}
	empty.Merge(&merged)
	if empty.N() != before {
		t.Fatal("merge into empty lost values")
	}
}

func TestAcceptanceMerge(t *testing.T) {
	var a, b Acceptance
	a.Add(true)
	a.Add(false)
	b.Add(true)
	b.Add(true)
	a.Merge(&b)
	if a.Accepted != 3 || a.Total != 4 {
		t.Fatalf("merged acceptance %d/%d, want 3/4", a.Accepted, a.Total)
	}
	if r := a.Ratio(); r != 75 {
		t.Fatalf("ratio %v, want 75", r)
	}
}
