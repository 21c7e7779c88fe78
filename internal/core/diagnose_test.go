package core

import (
	"strings"
	"testing"

	"hydrac/internal/gen"
	"hydrac/internal/task"
)

func TestDiagnoseRover(t *testing.T) {
	ts := roverLikeSet()
	res, err := SelectPeriods(ts, Options{})
	if err != nil || !res.Schedulable {
		t.Fatal(err)
	}
	diags, err := Diagnose(ts, res.Periods)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != len(ts.Security) {
		t.Fatalf("got %d diagnoses", len(diags))
	}
	for i, d := range diags {
		if d.Task != ts.Security[i].Name {
			t.Errorf("diagnosis %d for %s, want %s", i, d.Task, ts.Security[i].Name)
		}
		if !d.Schedulable {
			t.Errorf("%s reported unschedulable in a schedulable set", d.Task)
		}
		// The diagnosed response must agree with SelectPeriods' final
		// response times.
		if d.Resp != res.Resp[i] {
			t.Errorf("%s: diagnosed R=%d, selected R=%d", d.Task, d.Resp, res.Resp[i])
		}
		// The fixed point must reconstruct from the reported Ω.
		if got := d.Omega/2 + ts.Security[i].WCET; got != d.Resp {
			t.Errorf("%s: ⌊Ω/M⌋+C = %d, want R = %d", d.Task, got, d.Resp)
		}
		// Term interferences sum to Ω.
		var sum task.Time
		for _, term := range d.Terms {
			sum += term.Interference
		}
		if sum != d.Omega {
			t.Errorf("%s: terms sum to %d, Ω = %d", d.Task, sum, d.Omega)
		}
	}
	// The lower-priority task must see a security hp term.
	low := diags[indexByName(ts.Security, "tripwire")]
	foundSec := false
	for _, term := range low.Terms {
		if strings.Contains(term.Source, "security hp") {
			foundSec = true
		}
	}
	if !foundSec {
		t.Error("tripwire diagnosis lacks the kmod interference term")
	}
	if out := low.Render(); !strings.Contains(out, "tripwire") || !strings.Contains(out, "interference") {
		t.Errorf("render malformed:\n%s", out)
	}
}

// Diagnose's breakdown is a third evaluation of Eq. 6, after the
// kernel and omegaDominance. Over Table-3 sets it must give the
// reference Ω at every selected response time, walking each
// schedulable set's chain in priority order.
func TestDiagnoseOmegaMatchesReference(t *testing.T) {
	checked := 0
	for _, m := range []int{2, 4, 8} {
		cfg := gen.TableThree(m)
		for g := 0; g < 8; g++ {
			for i := 0; i < 10; i++ {
				ts, err := cfg.GenerateAt(11, g, i)
				if err != nil {
					continue // no partitionable draw
				}
				res, err := SelectPeriods(ts, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Schedulable {
					continue
				}
				diags, err := Diagnose(ts, res.Periods)
				if err != nil {
					t.Fatal(err)
				}
				sys := NewSystem(ts)
				var hp []Interferer
				for _, s := range ts.SecurityByPriority() {
					k := indexByName(ts.Security, s.Name)
					d := diags[k]
					if d.Resp != res.Resp[k] {
						t.Fatalf("M=%d g=%d i=%d %s: diagnosed R=%d, selected R=%d", m, g, i, s.Name, d.Resp, res.Resp[k])
					}
					if want := sys.omegaDominance(d.Resp, s.WCET, hp); d.Omega != want {
						t.Fatalf("M=%d g=%d i=%d %s: diagnosed Ω=%d, omegaDominance=%d", m, g, i, s.Name, d.Omega, want)
					}
					hp = append(hp, Interferer{WCET: s.WCET, Period: res.Periods[k], Resp: res.Resp[k]})
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no schedulable set exercised")
	}
	t.Logf("%d tasks checked", checked)
}

func TestDiagnoseUnschedulable(t *testing.T) {
	ts := roverLikeSet()
	for i := range ts.Security {
		ts.Security[i].MaxPeriod = 5400
	}
	periods := []task.Time{5400, 5400}
	diags, err := Diagnose(ts, periods)
	if err != nil {
		t.Fatal(err)
	}
	bad := diags[indexByName(ts.Security, "tripwire")]
	if bad.Schedulable {
		t.Fatal("tripwire diagnosed schedulable with Tmax 5400")
	}
	if !strings.Contains(bad.Render(), "UNSCHEDULABLE") {
		t.Error("render hides the verdict")
	}
	if len(bad.Terms) == 0 {
		t.Error("no interference terms for the rejected task")
	}
}

func TestDiagnoseValidation(t *testing.T) {
	ts := roverLikeSet()
	if _, err := Diagnose(ts, []task.Time{1}); err == nil {
		t.Error("period-count mismatch accepted")
	}
}
