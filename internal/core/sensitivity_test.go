package core

import (
	"testing"

	"hydrac/internal/task"
)

func TestWCETSensitivityRover(t *testing.T) {
	ts := roverLikeSet()
	maxW, err := WCETSensitivity(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ts.Security {
		if maxW[i] < s.WCET {
			t.Errorf("%s: sensitivity %d below current WCET %d", s.Name, maxW[i], s.WCET)
		}
		if maxW[i] > s.MaxPeriod {
			t.Errorf("%s: sensitivity %d beyond Tmax %d", s.Name, maxW[i], s.MaxPeriod)
		}
	}
	// The bound is tight: one tick above must be unschedulable.
	for i := range ts.Security {
		probe := ts.Clone()
		probe.Security[i].WCET = maxW[i]
		res, err := SelectPeriods(probe, Options{})
		if err != nil || !res.Schedulable {
			t.Fatalf("%s: claimed-feasible WCET %d rejected (%v)", ts.Security[i].Name, maxW[i], err)
		}
		if maxW[i] < ts.Security[i].MaxPeriod {
			probe.Security[i].WCET = maxW[i] + 1
			res, err = SelectPeriods(probe, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Schedulable {
				t.Errorf("%s: WCET %d+1 still schedulable; sensitivity not maximal", ts.Security[i].Name, maxW[i])
			}
		}
	}
}

func TestWCETSensitivityUnschedulableSet(t *testing.T) {
	ts := roverLikeSet()
	for i := range ts.Security {
		ts.Security[i].MaxPeriod = 5400
	}
	maxW, err := WCETSensitivity(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range maxW {
		if w != 0 {
			t.Errorf("task %d: sensitivity %d for an unschedulable set, want 0", i, w)
		}
	}
}

func TestScaleSensitivityRover(t *testing.T) {
	ts := roverLikeSet()
	k, err := ScaleSensitivity(ts)
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 {
		t.Fatalf("schedulable set reports scale %v < 1", k)
	}
	// Applying the factor keeps the set schedulable.
	probe := ts.Clone()
	for i := range probe.Security {
		w := task.Time(float64(probe.Security[i].WCET) * k)
		if w < 1 {
			w = 1
		}
		probe.Security[i].WCET = min(w, probe.Security[i].MaxPeriod)
	}
	res, err := SelectPeriods(probe, Options{})
	if err != nil || !res.Schedulable {
		t.Fatalf("scale %v claimed feasible but rejected (%v)", k, err)
	}
}

func TestScaleSensitivityOverloaded(t *testing.T) {
	ts := roverLikeSet()
	// Make the monitors far too big: the factor must come back < 1.
	for i := range ts.Security {
		ts.Security[i].WCET = ts.Security[i].MaxPeriod - 1
	}
	k, err := ScaleSensitivity(ts)
	if err != nil {
		t.Fatal(err)
	}
	if k >= 1 {
		t.Fatalf("overloaded set reports scale %v >= 1", k)
	}
}

func TestScaleSensitivityNoSecurity(t *testing.T) {
	ts := roverLikeSet()
	ts.Security = nil
	if _, err := ScaleSensitivity(ts); err == nil {
		t.Fatal("empty security band accepted")
	}
}
