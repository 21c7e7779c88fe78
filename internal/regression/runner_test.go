package regression

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallLoadCase is a fast paired load case for harness self-tests:
// one concurrency level, short window, dup traffic (no generator cost
// in the measured path).
func smallLoadCase(goal Goal, tolerance float64) Case {
	return Case{
		Name: "selftest-" + string(goal),
		Profile: Profile{
			Kind:        KindLoad,
			Concurrency: []int{2},
			Duration:    120 * time.Millisecond,
			Mix:         map[string]int{MixDup: 1},
			Daemon:      DaemonOpts{Cache: 64, Sessions: 16},
			Workload:    Workload{Cores: 4, Group: 3, Seed: 3, Sets: 2, Batch: 2},
		},
		Experiment: Experiment{Goal: goal, Tolerance: tolerance, Alpha: 0.05},
	}
}

// An identical-handler A/A run must pass: same code on both sides, so
// any verdict that fails the gate is a false positive. Tolerance is
// set wide (50%) so the assertion tests the harness plumbing, not the
// statistical size (which stats_test.go covers directly).
func TestRunCaseAAPasses(t *testing.T) {
	r := Runner{
		Base:    Side{Name: "base", Target: HandlerTarget{}},
		Head:    Side{Name: "head", Target: HandlerTarget{}},
		Samples: 4,
	}
	res := r.RunCase(smallLoadCase(GoalThroughput, 0.5))
	if res.Error != "" {
		t.Fatalf("A/A run errored: %s", res.Error)
	}
	if res.Failed() {
		t.Fatalf("A/A run failed the gate: verdict=%s change=%+.1f%% p=%.4f", res.Verdict, 100*res.Change, res.P)
	}
	if len(res.Base) != 4 || len(res.Head) != 4 {
		t.Fatalf("sample counts: base=%d head=%d, want 4/4", len(res.Base), len(res.Head))
	}
}

// A sleep injected into every head request (the synthetic regression)
// must be flagged: with 5ms added to a sub-millisecond handler the
// sides separate, and the change dwarfs any tolerance. At 6+6 samples
// the exact Mann–Whitney p stays ≤ 0.041 with up to 5 inverted pairs,
// so one sample spiking under CPU load cannot flip the verdict (at
// 4+4 a single inversion gave p = 0.057).
func TestRunCaseDetectsInjectedSleep(t *testing.T) {
	for _, goal := range []Goal{GoalThroughput, GoalP99} {
		t.Run(string(goal), func(t *testing.T) {
			r := Runner{
				Base:    Side{Name: "base", Target: HandlerTarget{}},
				Head:    Side{Name: "head", Target: HandlerTarget{Wrap: SleepInjector(5 * time.Millisecond)}},
				Samples: 6,
			}
			res := r.RunCase(smallLoadCase(goal, 0.05))
			if res.Error != "" {
				t.Fatalf("run errored: %s", res.Error)
			}
			if res.Verdict != VerdictRegressed {
				t.Fatalf("injected 5ms sleep not flagged: verdict=%s change=%+.1f%% p=%.4f",
					res.Verdict, 100*res.Change, res.P)
			}
			if !res.Failed() {
				t.Fatal("regressed verdict must fail the gate")
			}
		})
	}
}

// The same sleep on the BASE side is an improvement for head, which
// must not fail the gate (6+6 samples for the same reason as above).
func TestRunCaseImprovementDoesNotFail(t *testing.T) {
	r := Runner{
		Base:    Side{Name: "base", Target: HandlerTarget{Wrap: SleepInjector(5 * time.Millisecond)}},
		Head:    Side{Name: "head", Target: HandlerTarget{}},
		Samples: 6,
	}
	res := r.RunCase(smallLoadCase(GoalThroughput, 0.05))
	if res.Verdict != VerdictImproved {
		t.Fatalf("verdict=%s change=%+.1f%% p=%.4f, want improved", res.Verdict, 100*res.Change, res.P)
	}
	if res.Failed() {
		t.Fatal("improvement failed the gate")
	}
}

// A deliberately overloaded admission gate (8 closed-loop workers
// against max_inflight 1) sheds most traffic with 429 — which must NOT
// fail the sample: shed is not an error, and the goal metric is
// measured from the requests that were admitted.
func TestRunCaseOverloadShedIsNotAnError(t *testing.T) {
	c := smallLoadCase(GoalP99, 0.5)
	c.Name = "selftest-overload"
	c.Profile.Concurrency = []int{8}
	c.Profile.Daemon.MaxInflight = 1
	c.Profile.Daemon.MaxQueue = 1
	c.Profile.Daemon.QueueWait = 5 * time.Millisecond
	r := Runner{
		Base:    Side{Name: "base", Target: HandlerTarget{}},
		Head:    Side{Name: "head", Target: HandlerTarget{}},
		Samples: 2,
	}
	res := r.RunCase(c)
	if res.Error != "" {
		t.Fatalf("overload A/A run errored: %s", res.Error)
	}
	if res.Failed() {
		t.Fatalf("overload A/A run failed the gate: verdict=%s change=%+.1f%% p=%.4f", res.Verdict, 100*res.Change, res.P)
	}
}

func TestRunCaseSkipsWithoutConfiguration(t *testing.T) {
	r := Runner{Base: Side{Name: "base"}, Head: Side{Name: "head"}, Samples: 2}
	if res := r.RunCase(smallLoadCase(GoalThroughput, 0.05)); res.Verdict != VerdictSkipped {
		t.Fatalf("load case without targets: verdict=%s, want skipped", res.Verdict)
	}
	gb := Case{
		Name:       "gb",
		Profile:    Profile{Kind: KindGobench, Package: ".", Bench: "BenchmarkX", Benchtime: "10x"},
		Experiment: Experiment{Goal: GoalAllocs, Tolerance: 0.01, Alpha: 0.05},
	}
	if res := r.RunCase(gb); res.Verdict != VerdictSkipped {
		t.Fatalf("gobench case without trees: verdict=%s, want skipped", res.Verdict)
	}
}

// fakeBench writes an executable that prints canned `go test -bench`
// output, so the gobench sample parser is tested without compiling a
// second source tree.
func fakeBench(t *testing.T, output string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake.test")
	script := "#!/bin/sh\ncat <<'EOF'\n" + output + "EOF\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGobenchSampleParsesAllocs(t *testing.T) {
	bin := fakeBench(t, `goos: linux
BenchmarkAnalyzeCold-8   	     100	    488986 ns/op	   14448 B/op	      88 allocs/op
BenchmarkAnalyzeCold50-8 	     100	    923411 ns/op	   20000 B/op	     112 allocs/op
PASS
`)
	got, err := gobenchSample(bin, t.TempDir(), Profile{Bench: "BenchmarkAnalyzeCold", Benchtime: "100x"}, "allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if want := 100.0; got != want { // mean of 88 and 112
		t.Fatalf("allocs/op = %v, want %v", got, want)
	}
	ns, err := gobenchSample(bin, t.TempDir(), Profile{Bench: "BenchmarkAnalyzeCold", Benchtime: "100x"}, "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if want := 706198.5; ns != want { // mean of 488986 and 923411 (the fake prints both)
		t.Fatalf("ns/op = %v, want %v", ns, want)
	}
}

func TestGobenchSampleNoMatch(t *testing.T) {
	bin := fakeBench(t, "PASS\n")
	_, err := gobenchSample(bin, t.TempDir(), Profile{Bench: "BenchmarkNope", Benchtime: "1x"}, "allocs/op")
	if err == nil {
		t.Fatal("no matching benchmark must be an error, not a silent zero")
	}
	if !errors.Is(err, errNoBenchMatch) {
		t.Fatalf("no-match error %v does not carry the sentinel the base-skip path keys on", err)
	}
}

// judge direction sanity: the same downward move is a regression for
// throughput and an improvement for p99.
func TestJudgeDirections(t *testing.T) {
	down := CaseResult{
		Goal: GoalThroughput, Alpha: 0.05, Tolerance: 0.05,
		Base: []float64{100, 101, 102, 103, 104},
		Head: []float64{50, 51, 52, 53, 54},
	}
	down.judge()
	if down.Verdict != VerdictRegressed {
		t.Fatalf("throughput halved: verdict=%s", down.Verdict)
	}
	down.Goal = GoalP99
	down.judge()
	if down.Verdict != VerdictImproved {
		t.Fatalf("p99 halved: verdict=%s", down.Verdict)
	}
	// Significant but inside tolerance → no-change.
	tiny := CaseResult{
		Goal: GoalThroughput, Alpha: 0.05, Tolerance: 0.10,
		Base: []float64{100, 100.1, 100.2, 100.3, 100.4},
		Head: []float64{98, 98.1, 98.2, 98.3, 98.4},
	}
	tiny.judge()
	if tiny.Verdict != VerdictNoChange {
		t.Fatalf("2%% drop at 10%% tolerance: verdict=%s", tiny.Verdict)
	}
}

// A durable (data_dir) load case runs end to end against the
// in-process handler target: the store is real, the WAL is real, only
// the daemon binary is synthetic.
func TestRunCaseDurableDataDir(t *testing.T) {
	c := smallLoadCase(GoalP99, 0.5)
	c.Profile.Mix = map[string]int{MixSession: 1}
	c.Profile.Daemon.DataDir = true
	r := Runner{
		Base:    Side{Name: "base", Target: HandlerTarget{}},
		Head:    Side{Name: "head", Target: HandlerTarget{}},
		Samples: 2,
	}
	res := r.RunCase(c)
	if res.Error != "" {
		t.Fatalf("durable A/A run errored: %s", res.Error)
	}
	if res.Failed() {
		t.Fatalf("durable A/A run failed the gate: verdict=%s change=%+.1f%%", res.Verdict, 100*res.Change)
	}
}

// A target that cannot run the case's configuration (an old build
// rejecting -data-dir) skips the case instead of failing the gate.
type unsupportedTarget struct{}

func (unsupportedTarget) Start(d DaemonOpts) (string, func() error, error) {
	return "", nil, ErrUnsupported
}

func TestRunCaseSkipsUnsupportedTarget(t *testing.T) {
	r := Runner{
		Base:    Side{Name: "base", Target: unsupportedTarget{}},
		Head:    Side{Name: "head", Target: HandlerTarget{}},
		Samples: 2,
	}
	res := r.RunCase(smallLoadCase(GoalThroughput, 0.5))
	if res.Verdict != VerdictSkipped {
		t.Fatalf("verdict = %s (%s), want skipped", res.Verdict, res.Error)
	}
	if res.Failed() {
		t.Fatal("a skipped case must not fail the gate")
	}
}

// A gobench case whose package does not exist in one side's tree (the
// merge-base predating a new subsystem) skips rather than erroring.
func TestRunCaseSkipsMissingGobenchPackage(t *testing.T) {
	base := t.TempDir() // an empty "tree": no internal/wal
	c := Case{
		Name: "allocs-missing",
		Profile: Profile{
			Kind:      KindGobench,
			Package:   "./internal/wal",
			Bench:     "BenchmarkWALAppend$",
			Benchtime: "1x",
		},
		Experiment: Experiment{Goal: GoalAllocs, Tolerance: 0.01, Alpha: 0.05},
	}
	r := Runner{
		Base:    Side{Name: "base", TreeDir: base},
		Head:    Side{Name: "head", TreeDir: "../.."},
		Samples: 2,
	}
	res := r.RunCase(c)
	if res.Verdict != VerdictSkipped {
		t.Fatalf("verdict = %s (%s), want skipped", res.Verdict, res.Error)
	}
}

// A 2-node fleet load case runs end to end against the in-process
// handler target: real ring, real ownership redirects, two real
// member handlers — only the processes are synthetic. An A/A run
// must pass, and the comma-joined URL list must reach loadgen as two
// targets (asserted via Target.Start directly).
func TestRunCaseFleetAAPasses(t *testing.T) {
	url, stop, err := HandlerTarget{}.Start(DaemonOpts{Cache: 64, Sessions: 16, Fleet: 2})
	if err != nil {
		t.Fatal(err)
	}
	members := strings.Split(url, ",")
	if len(members) != 2 {
		t.Fatalf("fleet target returned %q, want two comma-joined URLs", url)
	}
	for _, m := range members {
		resp, err := http.Get(m + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Fleet struct {
				Peers []struct{ Addr, State string } `json:"peers"`
			} `json:"fleet"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(hz.Fleet.Peers) != 2 {
			t.Fatalf("%s healthz fleet view has %d peers, want 2", m, len(hz.Fleet.Peers))
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	c := smallLoadCase(GoalP99, 0.5)
	c.Name = "selftest-fleet"
	c.Profile.Mix = map[string]int{MixSession: 1}
	c.Profile.Daemon.Fleet = 2
	r := Runner{
		Base:    Side{Name: "base", Target: HandlerTarget{}},
		Head:    Side{Name: "head", Target: HandlerTarget{}},
		Samples: 2,
	}
	res := r.RunCase(c)
	if res.Error != "" {
		t.Fatalf("fleet A/A run errored: %s", res.Error)
	}
	if res.Failed() {
		t.Fatalf("fleet A/A run failed the gate: verdict=%s change=%+.1f%%", res.Verdict, 100*res.Change)
	}
}

// BinaryTarget's fleet path boots real hydrad subprocesses joined by
// -peers/-self on pre-reserved ports — the exact configuration
// hydraperf uses for a paired fleet case. Builds the current tree's
// hydrad once; skipped under -short.
func TestBinaryTargetFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots hydrad subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "hydrad")
	cmd := exec.Command("go", "build", "-o", bin, "hydrac/cmd/hydrad")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hydrad: %v: %s", err, out)
	}
	url, stop, err := BinaryTarget{Bin: bin}.Start(DaemonOpts{Cache: 64, Sessions: 16, Fleet: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	members := strings.Split(url, ",")
	if len(members) != 2 {
		t.Fatalf("fleet target returned %q, want two comma-joined URLs", url)
	}
	for _, m := range members {
		resp, err := http.Get(m + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Status string `json:"status"`
			Fleet  struct {
				Self  string                         `json:"self"`
				Peers []struct{ Addr, State string } `json:"peers"`
			} `json:"fleet"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hz.Status != "ok" || hz.Fleet.Self != m || len(hz.Fleet.Peers) != 2 {
			t.Fatalf("%s healthz = %+v, want ok with self and 2 peers", m, hz)
		}
	}
}
