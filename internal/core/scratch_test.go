package core

import (
	"math/rand"
	"testing"

	"hydrac/internal/task"
)

// naiveMigratingWCRT is the reference Eq. 7 creep the staircase kernel
// must match bit for bit: the pre-scratch implementation, one full
// omegaDominance evaluation per refinement under the shared iteration
// budget.
func naiveMigratingWCRT(sys *System, cs task.Time, hp []Interferer, limit task.Time) (task.Time, bool) {
	if cs > limit {
		return task.Infinity, false
	}
	return sys.fixedPoint(cs, limit, func(x task.Time) task.Time {
		return sys.omegaDominance(x, cs, hp)
	})
}

// randKernelCase draws a random platform + interferer band with edge
// density: tiny periods, WCETs up to the full period (100% utilisation
// staircases), response times up to twice the period (exercising the
// negative-x̄ corner of Eq. 4 that real callers never produce but the
// kernel must not miscompute).
func randKernelCase(rng *rand.Rand) (*System, []Interferer, task.Time) {
	m := 1 + rng.Intn(4)
	sys := &System{M: m, RTCores: make([][]Demand, m)}
	for core := 0; core < m; core++ {
		for n := rng.Intn(4); n > 0; n-- {
			t := task.Time(1 + rng.Intn(40))
			c := task.Time(1 + rng.Int63n(int64(t)))
			sys.RTCores[core] = append(sys.RTCores[core], Demand{WCET: c, Period: t})
		}
	}
	var hp []Interferer
	for n := rng.Intn(5); n > 0; n-- {
		t := task.Time(2 + rng.Intn(60))
		c := task.Time(1 + rng.Int63n(int64(t)))
		r := c + rng.Int63n(int64(2*t))
		hp = append(hp, Interferer{WCET: c, Period: t, Resp: r})
	}
	cs := task.Time(1 + rng.Intn(25))
	return sys, hp, cs
}

// The piecewise-linear form omegaLine reports must be EXACT: the value
// at x matches omegaDominance, and so does every point of the claimed
// piece [x, bp) under the claimed slope. This is the load-bearing
// invariant behind the in-piece replay and the closed-form creep
// batch.
func TestOmegaLineIsExactPiecewiseForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		sys, hp, cs := randKernelCase(rng)
		sc := NewScratch(sys)
		sc.primeHP(hp)
		x := cs + rng.Int63n(400)
		omega, slope, bp := sc.omegaLine(x, cs)
		if ref := sys.omegaDominance(x, cs, hp); omega != ref {
			t.Fatalf("trial %d: omegaLine(%d) = %d, omegaDominance = %d", trial, x, omega, ref)
		}
		if bp <= x {
			t.Fatalf("trial %d: breakpoint %d does not advance past x=%d", trial, bp, x)
		}
		if slope < 0 {
			t.Fatalf("trial %d: negative slope %d (Ω is monotone)", trial, slope)
		}
		end := min(bp, x+150)
		for y := x + 1; y < end; y++ {
			want := sys.omegaDominance(y, cs, hp)
			got := omega + slope*(y-x)
			if got != want {
				t.Fatalf("trial %d: piece [%d,%d) slope %d wrong at y=%d: line says %d, Ω says %d",
					trial, x, bp, slope, y, got, want)
			}
		}
	}
}

// The staircase kernel must reproduce the naive creep bit for bit:
// same fixed points, same divergence verdicts, on dense random
// interference sets. Limits stay below the iteration budget so the
// naive reference is guaranteed to settle one way or the other.
func TestStaircaseKernelMatchesNaiveCreep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4000; trial++ {
		sys, hp, cs := randKernelCase(rng)
		limit := cs + rng.Int63n(3000)
		wantR, wantOK := naiveMigratingWCRT(sys, cs, hp, limit)
		sc := NewScratch(sys)
		gotR, gotOK := sc.MigratingWCRT(cs, hp, limit, Dominance)
		if gotR != wantR || gotOK != wantOK {
			t.Fatalf("trial %d (M=%d, %d hp, cs=%d, limit=%d): kernel (%d,%v) != naive creep (%d,%v)",
				trial, sys.M, len(hp), cs, limit, gotR, gotOK, wantR, wantOK)
		}
		// A scratch is reusable: the second run from warm buffers (and
		// warm period windows) must agree with the first.
		againR, againOK := sc.MigratingWCRT(cs, hp, limit, Dominance)
		if againR != gotR || againOK != gotOK {
			t.Fatalf("trial %d: warm rerun (%d,%v) != first run (%d,%v)", trial, againR, againOK, gotR, gotOK)
		}
	}
}

// primeHP keeps the longest prefix of interferer windows whose C, T
// and x̄ match the new band and rebuilds the rest. Re-priming one
// scratch — windows warm from evaluations of the previous band — with
// a band that changed one entry's period or response, or grew or lost
// its tail, must leave omegaValue and omegaLine exactly where
// omegaDominance puts the new band, over a range of window lengths.
func TestPrimeHPReprimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		sys, hp, cs := randKernelCase(rng)
		sc := NewScratch(sys)
		sc.primeHP(hp)
		for n := 0; n < 8; n++ {
			y := cs + rng.Int63n(300)
			sc.omegaValue(y, cs)
			sc.omegaLine(y, cs)
		}
		next := append([]Interferer(nil), hp...)
		op := rng.Intn(4)
		if len(next) == 0 {
			op = 2
		}
		switch j := rng.Intn(max(len(next), 1)); op {
		case 0: // one entry's period moves
			next[j].Period = next[j].WCET + rng.Int63n(60)
		case 1: // one entry's response moves, and with it x̄
			next[j].Resp = next[j].WCET + rng.Int63n(2*next[j].Period)
		case 2: // the band grows, by at least one entry
			_, more, _ := randKernelCase(rng)
			next = append(next, more...)
			next = append(next, Interferer{WCET: 3, Period: 20, Resp: 3 + rng.Int63n(40)})
		case 3: // the band loses its tail
			next = next[:j]
		}
		sc.primeHP(next)
		for n := 0; n < 12; n++ {
			y := cs + rng.Int63n(300)
			want := sys.omegaDominance(y, cs, next)
			if got := sc.omegaValue(y, cs); got != want {
				t.Fatalf("trial %d (op %d): re-primed omegaValue(%d) = %d, omegaDominance = %d", trial, op, y, got, want)
			}
			omega, slope, bp := sc.omegaLine(y, cs)
			if omega != want {
				t.Fatalf("trial %d (op %d): re-primed omegaLine(%d) = %d, omegaDominance = %d", trial, op, y, omega, want)
			}
			z := min(bp-1, y+1+rng.Int63n(40))
			if got, want := omega+slope*(z-y), sys.omegaDominance(z, cs, next); got != want {
				t.Fatalf("trial %d (op %d): re-primed piece from %d says %d at %d, omegaDominance = %d", trial, op, y, got, z, want)
			}
		}
	}
}

// The conservative MaxFixpointIterations verdict is part of the
// analysis definition: a clamp-bound creep the naive kernel abandons
// after the budget must be reported unschedulable by the staircase
// kernel too — not solved through to the fixed point the naive creep
// never reached. The construction mirrors the regression set in
// resume_test.go: one heavy RT task whose clamp binds for ~10^7 ticks,
// more one-tick refinements than the budget allows.
func TestStaircaseKernelKeepsBudgetVerdict(t *testing.T) {
	sys := &System{M: 1, RTCores: [][]Demand{{
		{WCET: 10_000_000, Period: 1_000_000_000},
	}}}
	cs := task.Time(100_000_000)
	limit := task.Time(900_000_000)
	wantR, wantOK := naiveMigratingWCRT(sys, cs, nil, limit)
	if wantOK {
		t.Fatal("construction broken: the naive creep was expected to exhaust its budget")
	}
	gotR, gotOK := NewScratch(sys).MigratingWCRT(cs, nil, limit, Dominance)
	if gotR != wantR || gotOK != wantOK {
		t.Fatalf("budget verdict drifted: kernel (%d,%v) != naive creep (%d,%v)", gotR, gotOK, wantR, wantOK)
	}
}

// Steady-state fixpoints must not allocate: the scratch owns every
// buffer the kernel touches.
func TestMigratingWCRTAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sys, hp, cs := randKernelCase(rng)
	for len(hp) == 0 { // ensure the carry-in machinery is exercised
		sys, hp, cs = randKernelCase(rng)
	}
	sc := NewScratch(sys)
	limit := cs + 5000
	if avg := testing.AllocsPerRun(200, func() {
		sc.MigratingWCRT(cs, hp, limit, Dominance)
	}); avg != 0 {
		t.Fatalf("MigratingWCRT allocates %.1f objects per steady-state call; want 0", avg)
	}
}

// The per-probe feasibility check — the binary search's inner loop —
// must be allocation-free too once the scratch is warm.
func TestLowerPrioritySchedulableAllocFree(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "a", WCET: 2, Period: 10, Deadline: 10, Core: 0, Priority: 0},
			{Name: "b", WCET: 5, Period: 40, Deadline: 40, Core: 1, Priority: 1},
		},
		Security: []task.SecurityTask{
			{Name: "s0", WCET: 3, MaxPeriod: 300, Priority: 0, Core: -1},
			{Name: "s1", WCET: 4, MaxPeriod: 400, Priority: 1, Core: -1},
			{Name: "s2", WCET: 2, MaxPeriod: 500, Priority: 2, Core: -1},
		},
	}
	sys := NewSystem(ts)
	sec := ts.SecurityByPriority()
	sc := NewScratch(sys)
	sc.ensure(len(sec))
	periods := []task.Time{300, 400, 500}
	resp := make([]task.Time, len(sec))
	sc.responseTimes(sec, periods, Dominance, resp, 0)
	if avg := testing.AllocsPerRun(200, func() {
		lowerPrioritySchedulable(sc, sec, periods, resp, 0, 120, Dominance)
	}); avg != 0 {
		t.Fatalf("lowerPrioritySchedulable allocates %.1f objects per probe; want 0", avg)
	}
}

// The primed fixpoint behind warm probes — it replays the cached chain
// (the x̄-skipping carry-in scan whose bounded heap keeps the top-(M−1)
// order statistics, line replay, component split) — runs O(n) times
// per admitted delta at massive scale, so a single allocation per call
// would dominate the delta budget. It must be allocation-free on a
// warm scratch.
func TestOrderStatisticsWarmPathAllocFree(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "a", WCET: 2, Period: 10, Deadline: 10, Core: 0, Priority: 0},
			{Name: "b", WCET: 5, Period: 40, Deadline: 40, Core: 1, Priority: 1},
		},
		Security: []task.SecurityTask{
			{Name: "s0", WCET: 3, MaxPeriod: 300, Priority: 0, Core: -1},
			{Name: "s1", WCET: 4, MaxPeriod: 400, Priority: 1, Core: -1},
			{Name: "s2", WCET: 2, MaxPeriod: 500, Priority: 2, Core: -1},
			{Name: "s3", WCET: 1, MaxPeriod: 600, Priority: 3, Core: -1},
		},
	}
	sys := NewSystem(ts)
	sec := ts.SecurityByPriority()
	sc := NewScratch(sys)
	sc.ensure(len(sec))
	periods := []task.Time{300, 400, 500, 600}
	resp := make([]task.Time, len(sec))
	sc.responseTimes(sec, periods, Dominance, resp, 0)
	hp := make([]Interferer, 0, 3)
	for i := 0; i < 3; i++ {
		hp = append(hp, Interferer{WCET: sec[i].WCET, Period: periods[i], Resp: resp[i]})
	}
	sc.primeHP(hp)
	cs := sec[3].WCET
	if avg := testing.AllocsPerRun(200, func() {
		sc.fixpointPrimed(cs, cs, 600)
	}); avg != 0 {
		t.Fatalf("fixpointPrimed allocates %.1f objects per warm call; want 0", avg)
	}
}

// SelectPeriods results must be invariant under scratch reuse: a
// long-lived owner re-priming one workspace across many different
// systems (the admission engine's pattern) gets the same answers as
// fresh scratches.
func TestScratchReuseAcrossSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := NewScratch(nil)
	for trial := 0; trial < 300; trial++ {
		sys, hp, cs := randKernelCase(rng)
		limit := cs + rng.Int63n(2000)
		sc.Reset(sys)
		gotR, gotOK := sc.MigratingWCRT(cs, hp, limit, Dominance)
		wantR, wantOK := naiveMigratingWCRT(sys, cs, hp, limit)
		if gotR != wantR || gotOK != wantOK {
			t.Fatalf("trial %d: reused scratch (%d,%v) != naive (%d,%v)", trial, gotR, gotOK, wantR, wantOK)
		}
	}
}
