package hydrac

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hydrac/internal/core"
)

func baseSet() *TaskSet {
	return &TaskSet{
		Cores: 2,
		RT: []RTTask{
			{Name: "rt0", WCET: 2, Period: 20, Deadline: 20, Core: 0, Priority: 0},
			{Name: "rt1", WCET: 3, Period: 30, Deadline: 30, Core: 1, Priority: 1},
			{Name: "rt2", WCET: 4, Period: 40, Deadline: 40, Core: 0, Priority: 2},
		},
		Security: []SecurityTask{
			{Name: "sec0", WCET: 2, MaxPeriod: 200, Core: -1, Priority: 0},
			{Name: "sec1", WCET: 3, MaxPeriod: 400, Core: -1, Priority: 1},
		},
	}
}

// openSession opens a session over base on a default Analyzer.
func openSession(t *testing.T, base *TaskSet) (*Session, *Report) {
	t.Helper()
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s, rep, err := a.NewSession(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	return s, rep
}

// coldResult is the reference: a from-scratch Algorithm 1 run over the
// session's placed set.
func coldResult(t *testing.T, ts *TaskSet) *core.Result {
	t.Helper()
	res, err := core.SelectPeriods(ts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestApplySecurityMatchesCold(t *testing.T) {
	s, _ := openSession(t, baseSet())
	cand, res, stats, admitted, err := s.apply(context.Background(), Delta{
		AddSecurity: []SecurityTask{{Name: "sec2", WCET: 1, MaxPeriod: 300, Core: -1, Priority: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !admitted {
		t.Fatal("schedulable admission denied")
	}
	if !reflect.DeepEqual(res, coldResult(t, cand)) {
		t.Fatal("incremental admission diverged from cold analysis of the final set")
	}
	if stats.Verified == 0 && stats.Adopted == 0 {
		t.Error("no task verified or adopted in place despite unchanged prefix")
	}
}

func TestApplyRTPlacesAndMatchesCold(t *testing.T) {
	s, _ := openSession(t, baseSet())
	cand, res, _, admitted, err := s.apply(context.Background(), Delta{
		AddRT: []RTTask{{Name: "rt3", WCET: 2, Period: 25, Deadline: 25, Core: -1, Priority: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !admitted {
		t.Fatal("RT admission denied")
	}
	placed := cand.RT[len(cand.RT)-1]
	if placed.Name != "rt3" || placed.Core < 0 {
		t.Fatalf("rt3 not placed: %+v", placed)
	}
	if !reflect.DeepEqual(res, coldResult(t, cand)) {
		t.Fatal("incremental RT admission diverged from cold")
	}
	// Best-fit: core 0 carries 2/20+4/40 = 0.2, core 1 carries 0.1;
	// rt3 fits both, so best-fit picks the fuller core 0.
	if placed.Core != 0 {
		t.Errorf("best-fit placed rt3 on core %d, want 0", placed.Core)
	}
}

func TestApplyDeniesUnschedulableAdmission(t *testing.T) {
	s, _ := openSession(t, baseSet())
	var hooked int
	s.SetCommitHook(func(Delta, *TaskSet, int) error { hooked++; return nil })
	before := s.Set()
	// A security task whose WCET swamps both cores cannot be admitted.
	_, res, _, admitted, err := s.apply(context.Background(), Delta{
		AddSecurity: []SecurityTask{{Name: "hog", WCET: 190, MaxPeriod: 200, Core: -1, Priority: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if admitted || res.Schedulable {
		t.Fatal("unschedulable admission committed")
	}
	if before.Hash() != s.Set().Hash() {
		t.Fatal("denied delta mutated the session state")
	}
	if hooked != 0 {
		t.Fatal("denied delta reached the commit hook")
	}
	// The session must still admit afterwards (hints survived).
	_, _, _, admitted, err = s.apply(context.Background(), Delta{
		AddSecurity: []SecurityTask{{Name: "light", WCET: 1, MaxPeriod: 300, Core: -1, Priority: 2}},
	})
	if err != nil || !admitted {
		t.Fatalf("session wedged after a denial: admitted=%v err=%v", admitted, err)
	}
}

func TestApplyRemoveUnknownName(t *testing.T) {
	s, _ := openSession(t, baseSet())
	if _, _, _, _, err := s.apply(context.Background(), Delta{Remove: []string{"ghost"}}); err == nil {
		t.Fatal("removing an unknown task succeeded")
	} else if !strings.Contains(err.Error(), "ghost") {
		t.Errorf("error %q does not name the missing task", err)
	}
}

func TestApplyRemoveThenReAddRoundTrips(t *testing.T) {
	s, first := openSession(t, baseSet())
	if _, _, _, _, err := s.apply(context.Background(), Delta{Remove: []string{"sec1"}}); err != nil {
		t.Fatal(err)
	}
	cand, res, _, _, err := s.apply(context.Background(), Delta{
		AddSecurity: []SecurityTask{{Name: "sec1", WCET: 3, MaxPeriod: 400, Core: -1, Priority: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same membership, but sec1 now sits at the end of the Security
	// slice: periods must match the original per task name.
	resByName := map[string]Time{}
	for i, sec := range cand.Security {
		resByName[sec.Name] = res.Periods[i]
	}
	for _, v := range first.Tasks {
		if resByName[v.Name] != v.Period {
			t.Errorf("%s: period %d after round trip, want %d", v.Name, resByName[v.Name], v.Period)
		}
	}
	if !reflect.DeepEqual(res, coldResult(t, cand)) {
		t.Fatal("round-tripped state diverged from cold")
	}
}

func TestApplyRemovalOnlyCommitsFromUnschedulableBase(t *testing.T) {
	base := baseSet()
	// Swamp the security band: unschedulable at Tmax, but the base is
	// the running system and must be representable.
	base.Security = append(base.Security, SecurityTask{Name: "hog", WCET: 190, MaxPeriod: 200, Core: -1, Priority: 2})
	s, rep := openSession(t, base)
	if rep.Schedulable {
		t.Fatal("swamped base should be unschedulable")
	}
	if s.hints != nil || s.prior != nil {
		t.Fatal("an unschedulable commit left warm-start hints behind")
	}
	// Removing the hog must commit and restore schedulability.
	cand, res, stats, admitted, err := s.apply(context.Background(), Delta{Remove: []string{"hog"}})
	if err != nil {
		t.Fatal(err)
	}
	if !admitted || !res.Schedulable {
		t.Fatalf("removal-only delta denied from unschedulable base: admitted=%v %+v", admitted, res)
	}
	if stats.Verified != 0 || stats.Adopted != 0 {
		t.Errorf("selection after an unschedulable commit reused hints: %+v", stats)
	}
	if !reflect.DeepEqual(res, coldResult(t, cand)) {
		t.Fatal("recovery diverged from cold")
	}
}

func TestApplyRTInfeasibleDeltaErrors(t *testing.T) {
	s, _ := openSession(t, baseSet())
	before := s.Set()
	// WCET 30 of period 30 on every core: no placement keeps Eq. 1.
	_, _, _, _, err := s.apply(context.Background(), Delta{
		AddRT: []RTTask{{Name: "brick", WCET: 30, Period: 30, Deadline: 30, Core: -1, Priority: 9}},
	})
	if err == nil {
		t.Fatal("infeasible RT admission succeeded")
	}
	if before.Hash() != s.Set().Hash() {
		t.Fatal("failed delta mutated the session state")
	}
}

func TestNewSessionUnassignedBaseIsPartitioned(t *testing.T) {
	ctx := context.Background()
	base := baseSet()
	for i := range base.RT {
		base.RT[i].Core = -1
	}
	a, err := New(WithHeuristic(BestFit))
	if err != nil {
		t.Fatal(err)
	}
	s, rep, err := a.NewSession(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range s.Set().RT {
		if rt.Core < 0 {
			t.Fatalf("task %s left unplaced", rt.Name)
		}
	}
	cold, err := a.Analyze(ctx, s.Set())
	if err != nil {
		t.Fatal(err)
	}
	cold.Timing = nil
	if !reflect.DeepEqual(rep, cold) {
		t.Fatalf("partitioned base diverged from cold:\nsession %+v\ncold    %+v", rep, cold)
	}
}

func TestNewSessionMixedBaseRejected(t *testing.T) {
	base := baseSet()
	base.RT[0].Core = -1
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.NewSession(context.Background(), base); err == nil {
		t.Fatal("mixed pinned/unassigned base accepted")
	}
}

func TestApplyReplayDeterminism(t *testing.T) {
	ctx := context.Background()
	s, _ := openSession(t, baseSet())
	var committed []Delta
	// The deltas below are never reused, so the hook may keep them.
	s.SetCommitHook(func(d Delta, _ *TaskSet, _ int) error { committed = append(committed, d); return nil })
	deltas := []Delta{
		{AddSecurity: []SecurityTask{{Name: "s2", WCET: 1, MaxPeriod: 250, Core: -1, Priority: 2}}},
		{AddRT: []RTTask{{Name: "rt3", WCET: 1, Period: 15, Deadline: 15, Core: -1, Priority: 3}}},
		{Remove: []string{"sec0"}},
		{Remove: []string{"rt3"}, AddSecurity: []SecurityTask{{Name: "s3", WCET: 2, MaxPeriod: 500, Core: -1, Priority: 5}}},
	}
	for _, d := range deltas {
		if _, _, _, _, err := s.apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	replay, _ := openSession(t, baseSet())
	for _, d := range committed {
		if _, _, _, _, err := replay.apply(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if s.Set().Hash() != replay.Set().Hash() {
		t.Fatal("serial replay of the committed deltas diverged")
	}
}

// TestApplyChurnMatchesCold drives a long random sequence of security
// add / remove / replace deltas — the shapes the trusted-prefix fast
// path classifies differently — through one session, pinning every
// intermediate result bit-identical to a cold analysis of the same
// set. The walk must traverse the adoption path, the two-probe
// verification path, and full searches; the final tallies prove all
// three ran.
func TestApplyChurnMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	ctx := context.Background()
	s, _ := openSession(t, churnBase())
	live := []string{"sec0", "sec1", "sec2", "sec3"}
	prio := map[string]int{"sec0": 0, "sec1": 3, "sec2": 5, "sec3": 7}
	next := 4
	freePriority := func() int {
		used := make(map[int]bool, len(prio))
		for _, p := range prio {
			used[p] = true
		}
		for {
			if p := rng.Intn(40); !used[p] {
				return p
			}
		}
	}
	adopted, verified, searched := 0, 0, 0
	for step := 0; step < 120; step++ {
		var d Delta
		op := rng.Intn(3)
		switch {
		case op == 0 && len(live) > 2: // remove a random task
			i := rng.Intn(len(live))
			d.Remove = []string{live[i]}
			delete(prio, live[i])
			live = append(live[:i], live[i+1:]...)
		case op == 1 && len(live) > 2: // replace: remove + add at a fresh priority
			i := rng.Intn(len(live))
			d.Remove = []string{live[i]}
			delete(prio, live[i])
			live = append(live[:i], live[i+1:]...)
			fallthrough
		default: // add at a random unused priority
			sec := SecurityTask{
				Name:      fmt.Sprintf("sec%d", next),
				WCET:      Time(1 + rng.Intn(3)),
				MaxPeriod: Time(150 + rng.Intn(400)),
				Core:      -1,
				Priority:  freePriority(),
			}
			next++
			d.AddSecurity = append(d.AddSecurity, sec)
			live = append(live, sec.Name)
			prio[sec.Name] = sec.Priority
		}
		cand, res, stats, admitted, err := s.apply(ctx, d)
		if err != nil {
			t.Fatalf("step %d (%+v): %v", step, d, err)
		}
		adopted += stats.Adopted
		verified += stats.Verified
		searched += stats.Searched
		cold := coldResult(t, cand)
		if !reflect.DeepEqual(res, cold) {
			t.Fatalf("step %d (%+v): incremental result diverged from cold\n got %+v\nwant %+v",
				step, d, res, cold)
		}
		if !admitted {
			// Rejected candidate: the committed state must be untouched
			// and still match a cold run.
			snap := s.Set()
			if res, err := core.SelectPeriods(snap, core.Options{}); err != nil || !res.Schedulable {
				t.Fatalf("step %d: committed state no longer schedulable after a denial", step)
			}
			if len(d.AddSecurity) > 0 {
				added := d.AddSecurity[0].Name
				for k, name := range live {
					if name == added {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
				delete(prio, added)
			}
			for _, name := range d.Remove {
				live = append(live, name)
				for _, sec := range snap.Security {
					if sec.Name == name {
						prio[name] = sec.Priority
					}
				}
			}
		}
	}
	t.Logf("churn tallies: adopted=%d verified=%d searched=%d", adopted, verified, searched)
	if adopted == 0 || verified == 0 || searched == 0 {
		t.Fatalf("churn walk did not traverse all selection paths: adopted=%d verified=%d searched=%d",
			adopted, verified, searched)
	}
}

func churnBase() *TaskSet {
	return &TaskSet{
		Cores: 3,
		RT: []RTTask{
			{Name: "rt0", WCET: 2, Period: 20, Deadline: 20, Core: 0, Priority: 0},
			{Name: "rt1", WCET: 3, Period: 30, Deadline: 30, Core: 1, Priority: 1},
			{Name: "rt2", WCET: 4, Period: 40, Deadline: 40, Core: 2, Priority: 2},
			{Name: "rt3", WCET: 2, Period: 50, Deadline: 50, Core: 0, Priority: 3},
		},
		Security: []SecurityTask{
			{Name: "sec0", WCET: 2, MaxPeriod: 300, Core: -1, Priority: 0},
			{Name: "sec1", WCET: 1, MaxPeriod: 250, Core: -1, Priority: 3},
			{Name: "sec2", WCET: 2, MaxPeriod: 400, Core: -1, Priority: 5},
			{Name: "sec3", WCET: 1, MaxPeriod: 350, Core: -1, Priority: 7},
		},
	}
}
