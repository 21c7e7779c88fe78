package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestTable2Flag(t *testing.T) {
	code, out, _ := runCapture(t, "-table2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"700 MHz", "tripwire", "45000 ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, stderr := runCapture(t, "-no-such-flag"); code != 2 || !strings.Contains(stderr, "flag") {
		t.Errorf("unknown flag exit %d stderr %q, want 2", code, stderr)
	}
	// -h prints usage and succeeds, as the pre-refactor flag.Parse did.
	if code, _, stderr := runCapture(t, "-h"); code != 0 || !strings.Contains(stderr, "-parallel") {
		t.Errorf("-h exit %d, want 0 with usage on stderr", code)
	}
	// Counts below 1 fail with a message instead of panicking in the
	// victim draw (-objects) or rendering a NaN speedup (-trials).
	for _, args := range [][]string{{"-objects", "0"}, {"-objects", "-1"}, {"-trials", "0"}, {"-trials", "-3"}} {
		code, stdout, stderr := runCapture(t, args...)
		if code != 1 || !strings.Contains(stderr, "must each be at least 1") || strings.Contains(stdout, "NaN") {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 1 with the count error", args, code, stdout, stderr)
		}
		if !strings.HasPrefix(stderr, "rover: ") || strings.Count(stderr, "rover: ") != 1 {
			t.Errorf("%v: stderr %q, want exactly one leading \"rover: \"", args, stderr)
		}
	}
}

func TestTinyRunRenders(t *testing.T) {
	code, out, _ := runCapture(t, "-trials", "4", "-hist")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"Fig. 5a", "Fig. 5b", "HYDRA-C", "Controlled", "distribution"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTinyRunGolden pins the full stdout of a tiny Fig. 5 run, the
// rover's counterpart of cmd/sweep's fig6_tiny.golden. Regenerate
// testdata/rover_tiny.golden (`go run ./cmd/rover -trials 4 -hist`)
// only on a deliberate change to the rover experiments, and say why
// in CHANGES.md.
func TestTinyRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/rover_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCapture(t, "-trials", "4", "-hist")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out != string(want) {
		t.Errorf("tiny run diverged from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestParallelFlagEquivalence asserts -parallel changes nothing but
// wall-clock: byte-identical stdout at 1, 3, and all-CPU workers.
func TestParallelFlagEquivalence(t *testing.T) {
	base := []string{"-trials", "5", "-seed", "3"}
	_, ref, _ := runCapture(t, append(base, "-parallel", "1")...)
	if ref == "" {
		t.Fatal("empty serial output")
	}
	for _, par := range []string{"3", "0"} {
		if _, got, _ := runCapture(t, append(base, "-parallel", par)...); got != ref {
			t.Errorf("-parallel %s output differs from serial", par)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	code, _, stderr := runCapture(t, "-trials", "3", "-parallel", "2", "-progress")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stderr, "trial runs 6/6 (100%)") {
		t.Errorf("progress never reached 6/6:\n%s", stderr)
	}
}
