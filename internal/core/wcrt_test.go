package core

import (
	"math/rand"
	"testing"

	"hydrac/internal/rta"
	"hydrac/internal/task"
)

func TestMigratingWCRTIdleSystem(t *testing.T) {
	sys := &System{M: 2, RTCores: make([][]Demand, 2)}
	r, ok := NewScratch(sys).MigratingWCRT(7, nil, 100, Dominance)
	if !ok || r != 7 {
		t.Fatalf("idle system: got (%d, %v), want (7, true)", r, ok)
	}
}

func TestMigratingWCRTWCETBeyondLimit(t *testing.T) {
	sys := &System{M: 2}
	if _, ok := NewScratch(sys).MigratingWCRT(11, nil, 10, Dominance); ok {
		t.Fatal("WCET beyond Tmax accepted")
	}
}

// On a single core with only partitioned RT interference the
// semi-partitioned analysis must agree with classic uniprocessor RTA:
// with M = 1 the busy period serialises and Ω/1 + Cs is the familiar
// recurrence (the clamp min(·, x−Cs+1) is never the binding term at
// the fixed point when the task is schedulable).
func TestMigratingWCRTReducesToUniprocessor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(4)
		demands := make([]Demand, n)
		hpRTA := make([]rta.Demand, n)
		var util float64
		for i := 0; i < n; i++ {
			p := task.Time(10 + rng.Intn(90))
			c := 1 + task.Time(rng.Int63n(int64(p)/3+1))
			demands[i] = Demand{WCET: c, Period: p}
			hpRTA[i] = rta.Demand{WCET: c, Period: p}
			util += float64(c) / float64(p)
		}
		if util > 0.8 {
			continue
		}
		cs := 1 + task.Time(rng.Intn(10))
		limit := task.Time(100000)
		sys := &System{M: 1, RTCores: [][]Demand{demands}}
		got, okGot := NewScratch(sys).MigratingWCRT(cs, nil, limit, Dominance)
		want, okWant := rta.ResponseTime(cs, hpRTA, limit)
		if okGot != okWant || (okGot && got != want) {
			t.Fatalf("trial %d: semi-partitioned M=1 gave (%d,%v), uniprocessor RTA gave (%d,%v)\ndemands=%+v cs=%d",
				trial, got, okGot, want, okWant, demands, cs)
		}
	}
}

// Hand-checked two-core example. RT: core0 has (C=2,T=4), core1 has
// (C=3,T=6). Security task cs=4, no higher-priority security tasks.
//
// Iteration from x=4: Ω(4) = min(W0(4), 1) + min(W1(4), 1) = 1+1 = 2;
// x ← ⌊2/2⌋+4 = 5. Ω(5) = min(4,2)+min(3,2) = 4; x ← 6.
// Ω(6) = min(4,3)+min(3,3) = 6; x ← 7. Ω(7) = min(4,4)+min(6,4) = 8;
// x ← 8. Ω(8) = min(4,5)+min(6,5) = 9; x ← 8 (⌊9/2⌋=4). Fixed at 8.
func TestMigratingWCRTTwoCoreExample(t *testing.T) {
	sys := &System{M: 2, RTCores: [][]Demand{
		{{WCET: 2, Period: 4}},
		{{WCET: 3, Period: 6}},
	}}
	r, ok := NewScratch(sys).MigratingWCRT(4, nil, 100, Dominance)
	if !ok || r != 8 {
		t.Fatalf("got (%d, %v), want (8, true)", r, ok)
	}
}

// A migrating task on M cores is never worse off than the same task
// pinned to the single most-loaded core (migration only adds slack).
func TestMigratingBeatsPinnedWorstCore(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(3)
		sys := &System{M: m, RTCores: make([][]Demand, m)}
		worstUni := task.Time(0)
		cs := 1 + task.Time(rng.Intn(10))
		limit := task.Time(1 << 30)
		feasibleEverywhere := true
		for k := 0; k < m; k++ {
			n := rng.Intn(3)
			var hpRTA []rta.Demand
			var util float64
			for i := 0; i < n; i++ {
				p := task.Time(10 + rng.Intn(90))
				c := 1 + task.Time(rng.Int63n(int64(p)/4+1))
				sys.RTCores[k] = append(sys.RTCores[k], Demand{WCET: c, Period: p})
				hpRTA = append(hpRTA, rta.Demand{WCET: c, Period: p})
				util += float64(c) / float64(p)
			}
			if util > 0.7 {
				feasibleEverywhere = false
				break
			}
			r, ok := rta.ResponseTime(cs, hpRTA, limit)
			if !ok {
				feasibleEverywhere = false
				break
			}
			if r > worstUni {
				worstUni = r
			}
		}
		if !feasibleEverywhere {
			continue
		}
		got, ok := NewScratch(sys).MigratingWCRT(cs, nil, limit, Dominance)
		if !ok {
			t.Fatalf("trial %d: migrating task diverged where every pinned core converges", trial)
		}
		if got > worstUni {
			t.Fatalf("trial %d: migrating WCRT %d exceeds worst pinned-core WCRT %d", trial, got, worstUni)
		}
	}
}

// Dominance must upper-bound the literal Eq. 8 enumeration — never
// report a smaller response time or accept where Exhaustive rejects.
func TestDominanceUpperBoundsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(2)
		sys := &System{M: m, RTCores: make([][]Demand, m)}
		for k := 0; k < m; k++ {
			if rng.Intn(2) == 0 {
				p := task.Time(20 + rng.Intn(80))
				c := 1 + task.Time(rng.Int63n(int64(p)/4+1))
				sys.RTCores[k] = append(sys.RTCores[k], Demand{WCET: c, Period: p})
			}
		}
		nhp := rng.Intn(4)
		hp := make([]Interferer, nhp)
		for i := range hp {
			p := task.Time(50 + rng.Intn(200))
			c := 1 + task.Time(rng.Int63n(int64(p)/4+1))
			r := c + task.Time(rng.Int63n(int64(p-c)+1))
			hp[i] = Interferer{WCET: c, Period: p, Resp: r}
		}
		cs := 1 + task.Time(rng.Intn(15))
		limit := task.Time(2000)

		rd, okd := NewScratch(sys).MigratingWCRT(cs, hp, limit, Dominance)
		re, oke := NewScratch(sys).MigratingWCRT(cs, hp, limit, Exhaustive)
		switch {
		case !okd && !oke:
			// both diverge: fine
		case okd && !oke:
			t.Fatalf("trial %d: dominance accepted (R=%d) where exhaustive diverged", trial, rd)
		case !okd && oke:
			// dominance more pessimistic: acceptable by construction
		default:
			if rd < re {
				t.Fatalf("trial %d: dominance R=%d below exhaustive R=%d (unsound)", trial, rd, re)
			}
		}
	}
}

// With a single higher-priority migrating task and M ≥ 2 the
// exhaustive and dominance analyses coincide (one carry-in candidate,
// which dominance always takes when it helps).
func TestDominanceExactForOneInterferer(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		sys := &System{M: 2, RTCores: make([][]Demand, 2)}
		p := task.Time(30 + rng.Intn(100))
		c := 1 + task.Time(rng.Int63n(int64(p)/3+1))
		r := c + task.Time(rng.Int63n(int64(p-c)+1))
		hp := []Interferer{{WCET: c, Period: p, Resp: r}}
		cs := 1 + task.Time(rng.Intn(10))
		limit := task.Time(5000)
		rd, okd := NewScratch(sys).MigratingWCRT(cs, hp, limit, Dominance)
		re, oke := NewScratch(sys).MigratingWCRT(cs, hp, limit, Exhaustive)
		if okd != oke || (okd && rd != re) {
			t.Fatalf("trial %d: dominance (%d,%v) != exhaustive (%d,%v)", trial, rd, okd, re, oke)
		}
	}
}

func TestResponseTimesTopDown(t *testing.T) {
	// Two security tasks on an idle 2-core system: the top one runs
	// unimpeded (R = C); the second runs in parallel on the other core
	// (M=2, one interferer: still R = C because a single hp task can
	// only occupy one core).
	sys := &System{M: 2, RTCores: make([][]Demand, 2)}
	sec := []task.SecurityTask{
		{Name: "hi", WCET: 10, MaxPeriod: 100, Priority: 0},
		{Name: "lo", WCET: 20, MaxPeriod: 300, Priority: 1},
	}
	resp := sys.ResponseTimes(sec, []task.Time{100, 300}, Dominance)
	if resp[0] != 10 {
		t.Errorf("R(hi) = %d, want 10", resp[0])
	}
	if resp[1] != 20 {
		t.Errorf("R(lo) = %d, want 20 (parallel execution on the free core)", resp[1])
	}

	// On one core they serialise instead.
	sys1 := &System{M: 1, RTCores: make([][]Demand, 1)}
	resp1 := sys1.ResponseTimes(sec, []task.Time{100, 300}, Dominance)
	if resp1[0] != 10 {
		t.Errorf("M=1 R(hi) = %d, want 10", resp1[0])
	}
	if resp1[1] <= 20 {
		t.Errorf("M=1 R(lo) = %d, want > 20 (serialised behind hi)", resp1[1])
	}
}

func TestNewSystemGroupsByCore(t *testing.T) {
	ts := &task.Set{
		Cores: 2,
		RT: []task.RTTask{
			{Name: "a", WCET: 1, Period: 10, Deadline: 10, Core: 1, Priority: 0},
			{Name: "b", WCET: 2, Period: 20, Deadline: 20, Core: 0, Priority: 1},
			{Name: "c", WCET: 3, Period: 30, Deadline: 30, Core: 1, Priority: 2},
		},
	}
	sys := NewSystem(ts)
	if sys.M != 2 {
		t.Fatalf("M = %d, want 2", sys.M)
	}
	if len(sys.RTCores[0]) != 1 || sys.RTCores[0][0].WCET != 2 {
		t.Errorf("core 0 demands = %+v, want [{2 20}]", sys.RTCores[0])
	}
	if len(sys.RTCores[1]) != 2 {
		t.Errorf("core 1 demands = %+v, want two entries", sys.RTCores[1])
	}
}
