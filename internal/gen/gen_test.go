package gen

import (
	"math"
	"math/rand"
	"testing"

	"hydrac/internal/rta"
)

func TestRandFixedSumSumAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		lo := rng.Float64() * 0.2
		hi := lo + 0.1 + rng.Float64()*0.8
		total := float64(n)*lo + rng.Float64()*float64(n)*(hi-lo)
		xs, err := RandFixedSum(rng, n, total, lo, hi)
		if err != nil {
			t.Fatalf("trial %d: %v (n=%d total=%g lo=%g hi=%g)", trial, err, n, total, lo, hi)
		}
		var sum float64
		for _, x := range xs {
			if x < lo-1e-9 || x > hi+1e-9 {
				t.Fatalf("trial %d: value %g outside [%g, %g]", trial, x, lo, hi)
			}
			sum += x
		}
		if math.Abs(sum-total) > 1e-6*math.Max(1, math.Abs(total)) {
			t.Fatalf("trial %d: sum %g != total %g", trial, sum, total)
		}
	}
}

func TestRandFixedSumErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := RandFixedSum(rng, 0, 1, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandFixedSum(rng, 3, 4, 0, 1); err == nil {
		t.Error("unreachable sum accepted")
	}
	if _, err := RandFixedSum(rng, 3, -1, 0, 1); err == nil {
		t.Error("negative sum accepted")
	}
	if _, err := RandFixedSum(rng, 3, 0.5, 1, 0); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestRandFixedSumDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, err := RandFixedSum(rng, 1, 0.7, 0, 1)
	if err != nil || len(xs) != 1 || xs[0] != 0.7 {
		t.Fatalf("n=1: %v %v", xs, err)
	}
	xs, err = RandFixedSum(rng, 4, 2.0, 0.5, 0.5)
	if err != nil {
		t.Fatalf("lo==hi: %v", err)
	}
	for _, x := range xs {
		if x != 0.5 {
			t.Fatalf("lo==hi: got %v", xs)
		}
	}
}

// The generator must not collapse to a corner: across many draws the
// per-position mean approaches total/n (the distribution is exchangeable
// after the shuffle) and individual values vary.
func TestRandFixedSumSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, trials = 5, 4000
	total := 2.0
	means := make([]float64, n)
	var varAcc float64
	for i := 0; i < trials; i++ {
		xs, err := RandFixedSum(rng, n, total, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j, x := range xs {
			means[j] += x
			d := x - total/n
			varAcc += d * d
		}
	}
	for j := range means {
		means[j] /= trials
		if math.Abs(means[j]-total/float64(n)) > 0.02 {
			t.Errorf("position %d mean %.4f, want ≈ %.4f", j, means[j], total/float64(n))
		}
	}
	if varAcc/float64(trials*n) < 1e-3 {
		t.Error("values are nearly constant; generator degenerate")
	}
}

func TestLogUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := map[bool]int{}
	for i := 0; i < 5000; i++ {
		v := LogUniform(rng, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("LogUniform out of range: %d", v)
		}
		counts[v < 100] = counts[v < 100] + 1
	}
	// log-uniform: P(v < 100) = log(100/10)/log(1000/10) = 0.5.
	frac := float64(counts[true]) / 5000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("P(v<100) = %.3f, want ≈ 0.5 under log-uniform", frac)
	}
	if LogUniform(rng, 7, 7) != 7 {
		t.Error("degenerate range must return lo")
	}
}

func TestTableThreeMatchesPaper(t *testing.T) {
	cfg := TableThree(4)
	if cfg.Cores != 4 || cfg.RTTasksMin != 12 || cfg.RTTasksMax != 40 ||
		cfg.SecTasksMin != 8 || cfg.SecTasksMax != 20 {
		t.Errorf("task-count bounds wrong: %+v", cfg)
	}
	if cfg.RTPeriodMin != 10 || cfg.RTPeriodMax != 1000 ||
		cfg.SecMaxPeriodMin != 1500 || cfg.SecMaxPeriodMax != 3000 {
		t.Errorf("period bounds wrong: %+v", cfg)
	}
	if cfg.SecurityShare != 0.30 || cfg.Groups != 10 || cfg.SetsPerGroup != 250 {
		t.Errorf("shares/groups wrong: %+v", cfg)
	}
	lo, hi := cfg.GroupRange(0)
	if math.Abs(lo-0.01) > 1e-12 || math.Abs(hi-0.1) > 1e-12 {
		t.Errorf("group 0 range = [%g, %g]", lo, hi)
	}
	lo, hi = cfg.GroupRange(9)
	if math.Abs(lo-0.91) > 1e-12 || math.Abs(hi-1.0) > 1e-12 {
		t.Errorf("group 9 range = [%g, %g]", lo, hi)
	}
}

func TestGenerateStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := TableThree(2)
	for g := 0; g < 5; g++ {
		ts, err := cfg.Generate(rng, g)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("group %d: invalid set: %v", g, err)
		}
		if n := len(ts.RT); n < cfg.RTTasksMin || n > cfg.RTTasksMax {
			t.Errorf("group %d: N_R = %d outside [%d, %d]", g, n, cfg.RTTasksMin, cfg.RTTasksMax)
		}
		if n := len(ts.Security); n < cfg.SecTasksMin || n > cfg.SecTasksMax {
			t.Errorf("group %d: N_S = %d outside [%d, %d]", g, n, cfg.SecTasksMin, cfg.SecTasksMax)
		}
		if !rta.SetSchedulable(ts) {
			t.Errorf("group %d: RT band not schedulable after partitioning", g)
		}
		lo, hi := cfg.GroupRange(g)
		// WCET rounding distorts utilisation slightly; allow slack.
		u := ts.NormalizedUtilization()
		if u < lo-0.06 || u > hi+0.06 {
			t.Errorf("group %d: normalised utilisation %.3f outside [%.2f, %.2f]±0.06", g, u, lo, hi)
		}
		for _, s := range ts.Security {
			if s.MaxPeriod < cfg.SecMaxPeriodMin*cfg.TicksPerMS || s.MaxPeriod > cfg.SecMaxPeriodMax*cfg.TicksPerMS {
				t.Errorf("group %d: Tmax %d outside scaled bounds", g, s.MaxPeriod)
			}
			if s.Core != -1 {
				t.Errorf("group %d: security task pre-bound to core %d", g, s.Core)
			}
		}
	}
}

func TestGenerateSecurityShare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := TableThree(2)
	var rtU, secU float64
	for i := 0; i < 30; i++ {
		ts, err := cfg.Generate(rng, 3)
		if err != nil {
			t.Fatal(err)
		}
		rtU += ts.RTUtilization()
		secU += ts.SecurityMinUtilization()
	}
	share := secU / (rtU + secU)
	if share < 0.22 || share > 0.38 {
		t.Errorf("security share %.3f, want ≈ 0.30", share)
	}
}

func TestGenerateOutOfRangeGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := TableThree(2)
	if _, err := cfg.Generate(rng, -1); err == nil {
		t.Error("negative group accepted")
	}
	if _, err := cfg.Generate(rng, cfg.Groups); err == nil {
		t.Error("group == Groups accepted")
	}
}

func TestGenerateHighUtilizationEventuallyFails(t *testing.T) {
	// Group 9 with a tiny attempt budget must either produce a valid
	// partitioned set or a descriptive error — never hang or panic.
	rng := rand.New(rand.NewSource(9))
	cfg := TableThree(4)
	cfg.MaxAttempts = 2
	for i := 0; i < 5; i++ {
		ts, err := cfg.Generate(rng, 9)
		if err == nil {
			if vErr := ts.Validate(); vErr != nil {
				t.Fatalf("invalid set: %v", vErr)
			}
		}
	}
}
