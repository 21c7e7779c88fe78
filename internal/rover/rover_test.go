package rover

import (
	"strings"
	"testing"

	"hydrac/internal/rta"
)

func TestTaskSetMatchesPaper(t *testing.T) {
	ts := TaskSet()
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	if ts.Cores != 2 {
		t.Errorf("cores = %d, want 2", ts.Cores)
	}
	u := ts.RTUtilization()
	if u < 0.7039 || u > 0.7041 {
		t.Errorf("RT utilisation %.4f, want 0.7040 (paper §5.1.2)", u)
	}
	total := ts.MinUtilization()
	if total < 1.26 || total > 1.261 {
		t.Errorf("total minimum utilisation %.4f, want ≈ 1.2605", total)
	}
	if !rta.SetSchedulable(ts) {
		t.Error("rover RT band must be schedulable")
	}
}

func TestCycles(t *testing.T) {
	if got := Cycles(1); got != 700_000 {
		t.Errorf("Cycles(1 ms) = %v, want 700000 (700 MHz)", got)
	}
	if got := Cycles(1000); got != 7e8 {
		t.Errorf("Cycles(1 s) = %v, want 7e8", got)
	}
}

func TestTableTwoMentionsKeyRows(t *testing.T) {
	tbl := TableTwo()
	for _, want := range []string{"700 MHz", "navigation", "tripwire", "45000 ms"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunTrialsInvariants(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.Trials = 8 // keep the test quick; the bench runs the full 35
	hydraC, hydra, err := RunTrials(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hydraC.Undetected != 0 || hydra.Undetected != 0 {
		t.Fatalf("undetected attacks: HYDRA-C %d, HYDRA %d", hydraC.Undetected, hydra.Undetected)
	}
	if hydraC.DetectionMS.N() != 16 || hydra.DetectionMS.N() != 16 {
		t.Fatalf("sample sizes: %d vs %d, want 16 each", hydraC.DetectionMS.N(), hydra.DetectionMS.N())
	}
	// Tripwire ends up with the same analytic minimum under both
	// pipelines on this task set (the per-core and migrating bounds
	// coincide at 7582 ms); kmodcheck differs.
	if hydraC.TripwirePeriod != 7582 || hydra.TripwirePeriod != 7582 {
		t.Errorf("tripwire periods: HYDRA-C %d, HYDRA %d, want 7582 (analysis regression)",
			hydraC.TripwirePeriod, hydra.TripwirePeriod)
	}
	if hydra.KmodPeriod != 463 {
		t.Errorf("HYDRA kmod period %d, want 463 (WCRT on the navigation core)", hydra.KmodPeriod)
	}
	if hydraC.KmodPeriod != 2783 {
		t.Errorf("HYDRA-C kmod period %d, want 2783 (Eq. 7 fixed point under tripwire interference)",
			hydraC.KmodPeriod)
	}
	// Detection latency is period-dominated; with the above periods the
	// two pipelines land within 2x of each other, and both detect every
	// attack well before the next Tmax window.
	ratio := hydraC.DetectionMS.Mean() / hydra.DetectionMS.Mean()
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("detection ratio %.2f wildly off: HYDRA-C %.0f ms, HYDRA %.0f ms",
			ratio, hydraC.DetectionMS.Mean(), hydra.DetectionMS.Mean())
	}
	if hydraC.MeanDetectionCycles() <= 0 {
		t.Error("cycle conversion must be positive")
	}
}

// The controlled comparison isolates the migration mechanism: same
// periods, pinned vs migrating scheduler. The paper's Fig. 5b shape —
// more context switches under migration — must hold; detection stays
// period-dominated and therefore close.
func TestRunControlledShapes(t *testing.T) {
	cfg := DefaultTrialConfig()
	cfg.Trials = 8
	migrating, pinned, err := RunControlled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if migrating.TripwirePeriod != pinned.TripwirePeriod || migrating.KmodPeriod != pinned.KmodPeriod {
		t.Fatal("controlled comparison must use identical periods")
	}
	if migrating.ContextSwitches.Mean() <= pinned.ContextSwitches.Mean() {
		t.Errorf("context switches: migrating %.0f !> pinned %.0f (Fig. 5b shape)",
			migrating.ContextSwitches.Mean(), pinned.ContextSwitches.Mean())
	}
	if migrating.Undetected != 0 || pinned.Undetected != 0 {
		t.Fatalf("undetected attacks: %d / %d", migrating.Undetected, pinned.Undetected)
	}
	ratio := migrating.DetectionMS.Mean() / pinned.DetectionMS.Mean()
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("controlled detection ratio %.2f outside parity band", ratio)
	}
}
