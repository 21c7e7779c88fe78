package hydrac_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
)

func sessionBase() *hydrac.TaskSet {
	return &hydrac.TaskSet{
		Cores: 2,
		RT: []hydrac.RTTask{
			{Name: "rt0", WCET: 2, Period: 20, Deadline: 20, Core: 0, Priority: 0},
			{Name: "rt1", WCET: 3, Period: 30, Deadline: 30, Core: 1, Priority: 1},
			{Name: "rt2", WCET: 4, Period: 40, Deadline: 40, Core: 0, Priority: 2},
		},
		Security: []hydrac.SecurityTask{
			{Name: "sec0", WCET: 2, MaxPeriod: 200, Core: -1, Priority: 0},
			{Name: "sec1", WCET: 3, MaxPeriod: 400, Core: -1, Priority: 1},
		},
	}
}

// canonicalBytes renders a report with the per-call volatile fields
// (Timing, FromCache) cleared — the byte-identity currency of the
// differential tests.
func canonicalBytes(t *testing.T, rep *hydrac.Report) []byte {
	t.Helper()
	cp := rep.Clone()
	cp.Timing = nil
	cp.FromCache = false
	var buf bytes.Buffer
	if err := hydrac.WriteReport(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every session report must be byte-identical to a cold Analyze of the
// session's materialized set — including when the Analyzer carries
// baselines, which session reports must run too.
func TestSessionReportsByteIdenticalToColdAnalyze(t *testing.T) {
	ctx := context.Background()
	a, err := hydrac.New(hydrac.WithBaselines(hydrac.SchemeHydraTMax, hydrac.SchemeGlobalTMax))
	if err != nil {
		t.Fatal(err)
	}
	sess, rep, err := a.NewSession(ctx, sessionBase())
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, rep *hydrac.Report) {
		t.Helper()
		cold, err := a.Analyze(ctx, sess.Set())
		if err != nil {
			t.Fatalf("%s: cold analysis failed: %v", step, err)
		}
		if !bytes.Equal(canonicalBytes(t, rep), canonicalBytes(t, cold)) {
			t.Fatalf("%s: session report differs from cold Analyze:\nsession: %s\ncold:    %s",
				step, canonicalBytes(t, rep), canonicalBytes(t, cold))
		}
		if rep.Timing != nil || rep.FromCache {
			t.Fatalf("%s: session report carries volatile fields", step)
		}
	}
	check("create", rep)

	rep, admitted, err := sess.Admit(ctx, hydrac.Delta{
		AddSecurity: []hydrac.SecurityTask{{Name: "sec2", WCET: 1, MaxPeriod: 300, Core: -1, Priority: 2}},
	})
	if err != nil || !admitted {
		t.Fatalf("admit security: admitted=%v err=%v", admitted, err)
	}
	check("admit security", rep)

	rep, admitted, err = sess.Admit(ctx, hydrac.Delta{
		AddRT: []hydrac.RTTask{{Name: "rt3", WCET: 2, Period: 25, Deadline: 25, Core: -1, Priority: 3}},
	})
	if err != nil || !admitted {
		t.Fatalf("admit rt: admitted=%v err=%v", admitted, err)
	}
	check("admit rt", rep)

	rep, admitted, err = sess.Admit(ctx, hydrac.Delta{
		Remove:      []string{"sec2"},
		AddSecurity: []hydrac.SecurityTask{{Name: "sec2", WCET: 2, MaxPeriod: 280, Core: -1, Priority: 2}},
	})
	if err != nil || !admitted {
		t.Fatalf("replace: admitted=%v err=%v", admitted, err)
	}
	check("replace", rep)

	rep, admitted, err = sess.Admit(ctx, hydrac.Delta{Remove: []string{"sec0", "rt3"}})
	if err != nil || !admitted {
		t.Fatalf("remove: admitted=%v err=%v", admitted, err)
	}
	check("remove", rep)
}

// A generated mid-utilisation set: the same differential property on a
// heavier workload, admitting and removing through a longer random
// delta sequence.
func TestSessionDifferentialOnGeneratedSet(t *testing.T) {
	ctx := context.Background()
	ts, err := gen.TableThree(2).Generate(rand.New(rand.NewSource(5)), 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := a.NewSession(ctx, ts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	names := []string{}
	for step := 0; step < 12; step++ {
		var rep *hydrac.Report
		var committed bool
		if len(names) > 0 && rng.Intn(2) == 0 {
			last := names[len(names)-1]
			names = names[:len(names)-1]
			rep, committed, err = sess.Admit(ctx, hydrac.Delta{Remove: []string{last}})
		} else {
			name := fmt.Sprintf("probe%02d", step)
			rep, committed, err = sess.Admit(ctx, hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
				Name: name, WCET: 1 + hydrac.Time(rng.Intn(3)),
				MaxPeriod: hydrac.Time(20000 + rng.Intn(10000)), Core: -1, Priority: 100 + step,
			}}})
			if err == nil && committed {
				names = append(names, name)
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !committed {
			continue // denied: rep describes the rejected candidate, not the state
		}
		cold, err := a.Analyze(ctx, sess.Set())
		if err != nil {
			t.Fatal(err)
		}
		if sess.Set().Hash() != cold.TaskSetHash {
			t.Fatal("hash drift")
		}
		if !bytes.Equal(canonicalBytes(t, rep), canonicalBytes(t, cold)) {
			t.Fatalf("step %d: committed session report differs from cold", step)
		}
	}
}

// Concurrent admissions and removals against one Analyzer's session
// under -race. The deltas the commit hook saw must replay serially to
// the identical final state and report.
func TestSessionConcurrentAdmitRemoveMatchesSerialReplay(t *testing.T) {
	ctx := context.Background()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := a.NewSession(ctx, sessionBase())
	if err != nil {
		t.Fatal(err)
	}
	committed := recordCommits(sess)
	const goroutines = 8
	const opsPer = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				name := fmt.Sprintf("mon_g%d_k%d", g, k)
				_, _, err := sess.Admit(ctx, hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
					Name: name, WCET: 1, MaxPeriod: 500 + hydrac.Time(10*(g*opsPer+k)),
					Core: -1, Priority: 10 + g*100 + k,
				}}})
				if err != nil {
					errs <- fmt.Errorf("admit %s: %w", name, err)
					return
				}
				if k%2 == 1 { // remove the previous one, keep churn going
					prev := fmt.Sprintf("mon_g%d_k%d", g, k-1)
					if _, _, err := sess.Admit(ctx, hydrac.Delta{Remove: []string{prev}}); err != nil {
						errs <- fmt.Errorf("remove: %w", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial replay of the committed deltas over the same base.
	replay, _, err := a.NewSession(ctx, sessionBase())
	if err != nil {
		t.Fatal(err)
	}
	var lastRep *hydrac.Report
	for i, d := range *committed {
		var committed bool
		lastRep, committed, err = replay.Admit(ctx, d)
		if err != nil || !committed {
			t.Fatalf("replaying delta %d: committed=%v err=%v", i, committed, err)
		}
	}
	if sess.Set().Hash() != replay.Set().Hash() {
		t.Fatal("concurrent final state differs from serial replay")
	}
	finalRep, err := a.Analyze(ctx, sess.Set())
	if err != nil {
		t.Fatal(err)
	}
	if lastRep != nil && !bytes.Equal(canonicalBytes(t, lastRep), canonicalBytes(t, finalRep)) {
		t.Fatal("replayed final report differs from cold analysis")
	}
}

// Denied admissions must leave the session state untouched and report
// unschedulable without error.
func TestSessionDenialKeepsState(t *testing.T) {
	ctx := context.Background()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := a.NewSession(ctx, sessionBase())
	if err != nil {
		t.Fatal(err)
	}
	committed := recordCommits(sess)
	before := sess.Set().Hash()
	rep, admitted, err := sess.Admit(ctx, hydrac.Delta{
		AddSecurity: []hydrac.SecurityTask{{Name: "hog", WCET: 190, MaxPeriod: 200, Core: -1, Priority: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedulable || admitted {
		t.Fatal("hog admitted")
	}
	if sess.Set().Hash() != before {
		t.Fatal("denied admission mutated the session")
	}
	if len(*committed) != 0 {
		t.Fatal("denied admission reached the commit hook")
	}
}

// recordCommits installs a commit hook that records every committed
// delta. The hook runs under the session lock, so appends are
// serialized; read the slice only once no Admit is in flight. The
// tests never reuse a delta after passing it, so the hook may keep it.
func recordCommits(sess *hydrac.Session) *[]hydrac.Delta {
	var committed []hydrac.Delta
	sess.SetCommitHook(func(d hydrac.Delta, _ *hydrac.TaskSet, _ int) error {
		committed = append(committed, d)
		return nil
	})
	return &committed
}

// A pinned RT task skips placement, so only the Eq. 1 screen can reject
// it: the delta must fail without touching the session, and the session
// must keep admitting afterwards with reports identical to cold.
func TestSessionPinnedRTDeltaFailingEq1(t *testing.T) {
	ctx := context.Background()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := a.NewSession(ctx, sessionBase())
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Set().Hash()
	if _, _, err := sess.Admit(ctx, hydrac.Delta{
		AddRT: []hydrac.RTTask{{Name: "pin", WCET: 15, Period: 20, Deadline: 20, Core: 0, Priority: 5}},
	}); err == nil {
		t.Fatal("pinned RT task failing Eq. 1 was admitted")
	}
	if sess.Set().Hash() != before {
		t.Fatal("failed RT delta mutated the session")
	}
	rep, admitted, err := sess.Admit(ctx, hydrac.Delta{
		AddSecurity: []hydrac.SecurityTask{{Name: "sec2", WCET: 1, MaxPeriod: 300, Core: -1, Priority: 2}},
	})
	if err != nil || !admitted {
		t.Fatalf("admit security after a failed RT delta: admitted=%v err=%v", admitted, err)
	}
	cold, err := a.Analyze(ctx, sess.Set())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonicalBytes(t, rep), canonicalBytes(t, cold)) {
		t.Fatalf("session report differs from cold Analyze:\nsession: %s\ncold:    %s",
			canonicalBytes(t, rep), canonicalBytes(t, cold))
	}
}
