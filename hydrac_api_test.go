// Tests of the public API: everything a downstream user touches must
// work through the root package alone.
package hydrac_test

import (
	"context"
	"strings"
	"testing"

	"hydrac"
)

func apiTaskSet() *hydrac.TaskSet {
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

// apiAnalyze runs the default pipeline on ts and insists on admission.
func apiAnalyze(t *testing.T, ts *hydrac.TaskSet) *hydrac.Report {
	t.Helper()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Analyze(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable {
		t.Fatal("quickstart set unschedulable")
	}
	return rep
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ts := apiTaskSet()
	rep := apiAnalyze(t, ts)
	for i, s := range ts.Security {
		if p := rep.Tasks[i].Period; p <= 0 || p > s.MaxPeriod {
			t.Fatalf("%s: period %d out of range", s.Name, p)
		}
	}
	cfgd, err := rep.ApplyTo(ts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := hydrac.Simulate(cfgd, hydrac.SimConfig{
		Policy: hydrac.SemiPartitioned, Horizon: 2000, RecordIntervals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.RTDeadlineMisses != 0 || out.SecurityDeadlineMisses != 0 {
		t.Fatalf("deadline misses: %d RT, %d security", out.RTDeadlineMisses, out.SecurityDeadlineMisses)
	}
	if g := hydrac.Gantt(out, 0, 200, 2); !strings.Contains(g, "core 0") {
		t.Fatalf("Gantt output malformed:\n%s", g)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	ts := apiTaskSet()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []hydrac.Scheme{hydrac.SchemeHydra, hydrac.SchemeHydraAggressive, hydrac.SchemeHydraTMax} {
		v, err := a.Baseline(context.Background(), ts, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !v.Schedulable {
			t.Fatalf("%s: unschedulable on the quickstart set", scheme)
		}
		for _, sv := range v.Tasks {
			if sv.Core < 0 || sv.Core >= ts.Cores {
				t.Fatalf("%s: bad core binding %d", scheme, sv.Core)
			}
		}
	}
	v, err := a.Baseline(context.Background(), ts, hydrac.SchemeGlobalTMax)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Schedulable {
		t.Fatal("GlobalTMax: unschedulable on the quickstart set")
	}
}

func TestPublicAPIPartition(t *testing.T) {
	ts := apiTaskSet()
	for i := range ts.RT {
		ts.RT[i].Core = -1
	}
	// The Analyzer places the unassigned band, then selects periods.
	rep := apiAnalyze(t, ts)
	if len(rep.RT) != len(ts.RT) {
		t.Fatalf("report places %d RT tasks, want %d", len(rep.RT), len(ts.RT))
	}
	for _, rt := range rep.RT {
		if rt.Core < 0 {
			t.Fatalf("task %s unassigned", rt.Name)
		}
	}
	if _, err := rep.ApplyTo(ts); err != nil {
		t.Fatalf("placement does not apply: %v", err)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	ts := apiTaskSet()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Baseline(context.Background(), ts, hydrac.SchemeHydraAggressive)
	if err != nil || !v.Schedulable {
		t.Fatal("baseline failed")
	}
	cfgd, err := v.ApplyTo(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []hydrac.Policy{hydrac.SemiPartitioned, hydrac.FullyPartitioned, hydrac.Global} {
		out, err := hydrac.Simulate(cfgd, hydrac.SimConfig{Policy: pol, Horizon: 2000})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if out.RTDeadlineMisses != 0 {
			t.Fatalf("%v: RT misses on a lightly loaded set", pol)
		}
	}
}
