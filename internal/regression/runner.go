package regression

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"hydrac/internal/loadgen"
)

// Side is one arm of a paired run: the merge-base build or the head
// build.
type Side struct {
	Name string
	SHA  string
	// Target boots the hydrad service for load cases; nil skips them.
	Target Target
	// TreeDir is a checkout to build gobench test binaries in; empty
	// skips gobench cases (e.g. under in-process self-test, where
	// there is no second tree to compile).
	TreeDir string
}

// Runner executes cases paired: N samples per side, interleaved —
// base, head, head, base, base, head, ... — so slow drift of the
// machine (thermal, noisy neighbours) hits both sides evenly instead
// of biasing whichever side ran last.
type Runner struct {
	Base, Head Side
	// Samples per side (default 5).
	Samples int
	// Logf receives progress lines; nil is quiet.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) samples() int {
	if r.Samples > 0 {
		return r.Samples
	}
	return 5
}

// RunCases measures every case and returns the results in order.
func (r *Runner) RunCases(cases []Case) []CaseResult {
	out := make([]CaseResult, 0, len(cases))
	for _, c := range cases {
		out = append(out, r.RunCase(c))
	}
	return out
}

// RunCase measures one case paired and judges it.
func (r *Runner) RunCase(c Case) CaseResult {
	start := time.Now()
	metric, unit := c.Experiment.Goal.Metric()
	res := CaseResult{
		Case:      c.Name,
		Goal:      c.Experiment.Goal,
		Metric:    metric,
		Unit:      unit,
		BaseSHA:   r.Base.SHA,
		HeadSHA:   r.Head.SHA,
		Samples:   r.samples(),
		Alpha:     alpha,
		Tolerance: c.Experiment.Tolerance,
	}
	fail := func(err error) CaseResult {
		res.Verdict = VerdictError
		res.Error = err.Error()
		res.WallS = time.Since(start).Seconds()
		return res
	}

	var sample func(s *Side) (float64, error)
	switch c.Profile.Kind {
	case KindLoad:
		if r.Base.Target == nil || r.Head.Target == nil {
			res.Verdict = VerdictSkipped
			res.Error = "no service target configured for load cases"
			res.WallS = time.Since(start).Seconds()
			return res
		}
		src, err := c.BuildSource()
		if err != nil {
			return fail(err)
		}
		sample = func(s *Side) (float64, error) { return r.loadSample(&c, s, src) }
	case KindGobench:
		if r.Base.TreeDir == "" || r.Head.TreeDir == "" {
			res.Verdict = VerdictSkipped
			res.Error = "no source trees configured for gobench cases"
			res.WallS = time.Since(start).Seconds()
			return res
		}
		bins := map[string]string{}
		tmp, err := os.MkdirTemp("", "hydraperf-gobench-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(tmp)
		for _, s := range []*Side{&r.Base, &r.Head} {
			// A side whose tree predates the benchmarked package (a
			// merge-base without the new subsystem) skips the case
			// rather than failing it; the gate self-heals once the
			// package reaches the base.
			if _, err := os.Stat(filepath.Join(s.TreeDir, filepath.FromSlash(strings.TrimPrefix(c.Profile.Package, "./")))); err != nil {
				res.Verdict = VerdictSkipped
				res.Error = fmt.Sprintf("%s tree has no package %s", s.Name, c.Profile.Package)
				res.WallS = time.Since(start).Seconds()
				return res
			}
			bin := filepath.Join(tmp, s.Name+".test")
			if err := buildTestBinary(s.TreeDir, c.Profile.Package, bin); err != nil {
				return fail(fmt.Errorf("building %s test binary: %w", s.Name, err))
			}
			bins[s.Name] = bin
		}
		_, unit := c.Experiment.Goal.Metric()
		sample = func(s *Side) (float64, error) {
			v, err := gobenchSample(bins[s.Name], s.TreeDir, c.Profile.BenchProfile, unit)
			if err != nil && errors.Is(err, errNoBenchMatch) && s == &r.Base {
				// The bench was added in this PR inside a pre-existing
				// package, so the base binary builds but has nothing to
				// run. Skip — the gate self-heals once the bench reaches
				// the merge-base. A head-side miss stays a hard failure:
				// the head tree must always contain its own benches.
				return 0, fmt.Errorf("%w: %v", ErrUnsupported, err)
			}
			return v, err
		}
	default:
		return fail(fmt.Errorf("unknown case kind %q", c.Profile.Kind))
	}

	n := r.samples()
	for i := 0; i < n; i++ {
		// ABBA ordering: alternate which side goes first so linear
		// drift cancels instead of systematically favouring one side.
		order := []*Side{&r.Base, &r.Head}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			v, err := sample(s)
			if err != nil {
				if errors.Is(err, ErrUnsupported) {
					// One side cannot run this configuration at all
					// (e.g. a merge-base hydrad without -data-dir):
					// nothing to compare, nothing to gate.
					res.Verdict = VerdictSkipped
					res.Error = fmt.Sprintf("%s: %v", s.Name, err)
					res.WallS = time.Since(start).Seconds()
					return res
				}
				return fail(fmt.Errorf("%s sample %d: %w", s.Name, i, err))
			}
			if s == &r.Base {
				res.Base = append(res.Base, v)
			} else {
				res.Head = append(res.Head, v)
			}
			r.logf("%s: %s sample %d/%d: %s = %s", c.Name, s.Name, i+1, n, res.Metric, formatValue(v, res.Unit))
		}
	}
	res.judge()
	res.WallS = time.Since(start).Seconds()
	return res
}

// loadSample boots a fresh service on s, drives the case's load
// profile against it, and extracts the goal metric. Any failed
// request fails the sample: a gate that quietly measured errors would
// compare nonsense.
func (r *Runner) loadSample(c *Case, s *Side, src loadgen.Source) (float64, error) {
	url, stop, err := s.Target.Start(c.Profile.Daemon)
	if err != nil {
		return 0, err
	}
	defer stop()
	// A fleet target returns its members' URLs comma-joined; workers
	// spread round-robin and 307 ownership redirects are followed, so
	// a hop is routing, not an error. A single URL degenerates to the
	// historical single-target run.
	fleetLevels, err := loadgen.RunFleet(strings.Split(url, ","), src, loadgen.Config{
		Levels:   c.Profile.Concurrency,
		Duration: time.Duration(c.Profile.Duration),
		Warmup:   2,
	})
	if err != nil {
		return 0, err
	}
	totalReq, totalDur, errs := 0, 0.0, 0
	p99 := 0.0
	for _, fl := range fleetLevels {
		l := fl.Aggregate
		totalReq += l.Requests
		totalDur += l.DurationS
		errs += l.Errors
		if l.P99MS > p99 {
			p99 = l.P99MS
		}
	}
	if errs > 0 {
		return 0, fmt.Errorf("%d failed requests during the measurement window", errs)
	}
	if totalReq == 0 {
		return 0, fmt.Errorf("no requests completed — duration too short for this profile")
	}
	switch c.Experiment.Goal {
	case GoalThroughput:
		return float64(totalReq) / totalDur, nil
	case GoalP99:
		return p99, nil
	}
	return 0, fmt.Errorf("goal %s is not a load metric", c.Experiment.Goal)
}

// buildTestBinary compiles pkg's test binary inside tree.
func buildTestBinary(tree, pkg, out string) error {
	cmd := exec.Command("go", "test", "-c", "-o", out, pkg)
	cmd.Dir = tree
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%v: %s", err, strings.TrimSpace(string(b)))
	}
	return nil
}

// benchLine matches `go test -bench` result lines, e.g.
// "BenchmarkAnalyzeCold-8  100  488986 ns/op  14448 B/op  88 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// errNoBenchMatch reports a bench regexp that selected nothing in a
// side's test binary.
var errNoBenchMatch = errors.New("no benchmark matched")

// gobenchSample runs one -count=1 iteration of the profile's
// benchmark and returns the mean of the requested per-op unit
// ("allocs/op" or "ns/op") across matched benchmarks.
func gobenchSample(bin, dir string, p BenchProfile, unit string) (float64, error) {
	cmd := exec.Command(bin,
		"-test.run", "^$",
		"-test.bench", p.Bench,
		"-test.benchmem",
		"-test.benchtime", p.Benchtime,
		"-test.count", "1",
	)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(string(out)))
	}
	sum, count := 0.0, 0
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i++ {
			if fields[i+1] == unit {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing %s from %q: %w", unit, line, err)
				}
				sum += v
				count++
			}
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("%w %q (output: %s)", errNoBenchMatch, p.Bench, firstLines(string(out), 3))
	}
	return sum / float64(count), nil
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(strings.TrimSpace(s), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, " | ")
}
