package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hydrac/internal/task"
)

// Property-based tests (testing/quick) on the analysis invariants.
// Each generated value carries a small random platform + security
// band, well-formed by construction.

// quickTask is one generated migrating task.
type quickTask struct {
	C, T task.Time
}

// quickSystem is a generated platform for the WCRT engine.
type quickSystem struct {
	M       int
	RTCores [][]Demand
	HP      []quickTask
	Cs      task.Time
}

// Generate implements quick.Generator: 1–4 cores, up to two RT tasks
// per core at bounded utilisation, up to four higher-priority
// migrating tasks.
func (quickSystem) Generate(r *rand.Rand, _ int) reflect.Value {
	s := quickSystem{M: 1 + r.Intn(4)}
	s.RTCores = make([][]Demand, s.M)
	for m := 0; m < s.M; m++ {
		for n := r.Intn(3); n > 0; n-- {
			p := task.Time(20 + r.Intn(180))
			c := 1 + task.Time(r.Int63n(int64(p)/5+1))
			s.RTCores[m] = append(s.RTCores[m], Demand{WCET: c, Period: p})
		}
	}
	for n := r.Intn(5); n > 0; n-- {
		p := task.Time(100 + r.Intn(400))
		c := 1 + task.Time(r.Int63n(int64(p)/5+1))
		s.HP = append(s.HP, quickTask{C: c, T: p})
	}
	s.Cs = 1 + task.Time(r.Intn(30))
	return reflect.ValueOf(s)
}

// interferers converts the generated hp band, assigning each task a
// feasible response time (R ∈ [C, T]).
func (s quickSystem) interferers(r task.Time) []Interferer {
	out := make([]Interferer, len(s.HP))
	for i, h := range s.HP {
		resp := h.C + (h.T-h.C)*r%max(h.T-h.C+1, 1)
		if resp < h.C {
			resp = h.C
		}
		out[i] = Interferer{WCET: h.C, Period: h.T, Resp: resp}
	}
	return out
}

// The fixed point never undercuts the task's own WCET, and a converged
// result is genuinely a fixed point of Eq. 7.
func TestQuickWCRTFixedPoint(t *testing.T) {
	f := func(s quickSystem) bool {
		sys := &System{M: s.M, RTCores: s.RTCores}
		hp := s.interferers(3)
		limit := task.Time(1 << 22)
		r, ok := NewScratch(sys).MigratingWCRT(s.Cs, hp, limit, Dominance)
		if !ok {
			return true
		}
		if r < s.Cs {
			return false
		}
		return sys.omegaDominance(r, s.Cs, hp)/task.Time(s.M)+s.Cs == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Adding one more higher-priority migrating task never shrinks the
// response time.
func TestQuickWCRTMonotoneInInterference(t *testing.T) {
	f := func(s quickSystem) bool {
		if len(s.HP) == 0 {
			return true
		}
		sys := &System{M: s.M, RTCores: s.RTCores}
		hp := s.interferers(3)
		limit := task.Time(1 << 22)
		rSmall, okSmall := NewScratch(sys).MigratingWCRT(s.Cs, hp[:len(hp)-1], limit, Dominance)
		rBig, okBig := NewScratch(sys).MigratingWCRT(s.Cs, hp, limit, Dominance)
		if !okSmall {
			return true
		}
		if !okBig {
			return true // divergence with more interference is legal
		}
		return rBig >= rSmall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Adding a core never hurts: the same workload on M+1 cores has a
// response time no larger than on M cores.
func TestQuickWCRTMonotoneInCores(t *testing.T) {
	f := func(s quickSystem) bool {
		sysM := &System{M: s.M, RTCores: s.RTCores}
		grown := append(append([][]Demand(nil), s.RTCores...), nil) // one empty extra core
		sysM1 := &System{M: s.M + 1, RTCores: grown}
		hp := s.interferers(3)
		limit := task.Time(1 << 22)
		rM, okM := NewScratch(sysM).MigratingWCRT(s.Cs, hp, limit, Dominance)
		rM1, okM1 := NewScratch(sysM1).MigratingWCRT(s.Cs, hp, limit, Dominance)
		if !okM {
			return true
		}
		return okM1 && rM1 <= rM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// quickSet generates a full task set for period-selection properties.
type quickSet struct {
	TS *task.Set
}

func (quickSet) Generate(r *rand.Rand, _ int) reflect.Value {
	m := 1 + r.Intn(3)
	ts := &task.Set{Cores: m}
	for c := 0; c < m; c++ {
		for n := 1 + r.Intn(2); n > 0; n-- {
			p := task.Time(20 + r.Intn(180))
			w := 1 + task.Time(r.Int63n(int64(p)/4+1))
			ts.RT = append(ts.RT, task.RTTask{
				Name: "rt" + string(rune('a'+c)) + string(rune('0'+n)),
				WCET: w, Period: p, Deadline: p, Core: c,
			})
		}
	}
	task.AssignRateMonotonic(ts.RT)
	for n := 1 + r.Intn(4); n > 0; n-- {
		tmax := task.Time(300 + r.Intn(1200))
		w := 1 + task.Time(r.Int63n(int64(tmax)/6+1))
		ts.Security = append(ts.Security, task.SecurityTask{
			Name: "s" + string(rune('0'+n)), WCET: w, MaxPeriod: tmax,
			Priority: n, Core: -1,
		})
	}
	return reflect.ValueOf(quickSet{TS: ts})
}

// Relaxing every Tmax never turns a schedulable set unschedulable.
// (Individual selected periods may legitimately grow: looser bounds
// let high-priority tasks shrink further, which pushes more
// interference onto the tasks below — Algorithm 1's documented
// greediness.)
func TestQuickSelectPeriodsMonotoneInTmax(t *testing.T) {
	f := func(q quickSet) bool {
		base, err := SelectPeriods(q.TS, Options{})
		if err != nil || !base.Schedulable {
			return true
		}
		relaxed := q.TS.Clone()
		for i := range relaxed.Security {
			relaxed.Security[i].MaxPeriod *= 2
		}
		after, err := SelectPeriods(relaxed, Options{})
		return err == nil && after.Schedulable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Shrinking one security WCET keeps the set schedulable.
func TestQuickSelectPeriodsMonotoneInWCET(t *testing.T) {
	f := func(q quickSet, pick uint8) bool {
		base, err := SelectPeriods(q.TS, Options{})
		if err != nil || !base.Schedulable {
			return true
		}
		i := int(pick) % len(q.TS.Security)
		if q.TS.Security[i].WCET == 1 {
			return true
		}
		smaller := q.TS.Clone()
		smaller.Security[i].WCET = smaller.Security[i].WCET/2 + smaller.Security[i].WCET%2
		after, err := SelectPeriods(smaller, Options{})
		return err == nil && after.Schedulable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
