// Command perfbench is the repository benchmark: it drives the real
// hydrad handler (internal/hydradhttp, configured as cmd/hydrad's
// defaults configure it) in-process through ServeHTTP, closed-loop,
// with at most two callers, on one of three seeded workloads:
//
//	analyze-cold   distinct Table-3 sets POSTed to /v1/analyze
//	analyze-hot    a fixed pool re-POSTed until every request is a hit
//	admit-durable  admit/remove cycles on durable (WAL-backed) sessions
//
// Usage (run.py builds the binary and passes these through):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-corrupt]
//
// Every caller runs a fixed number of ops derived from -seconds, so the
// same flags do identical work. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, with
// the end-to-end metrics under -trace 0 and the per-layer metrics of a
// separate traced replay under -trace 1. A wrong output makes the run
// exit 1. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"hydrac"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/store"
)

// cmd/hydrad's default flag values, which the benchmark's handler and
// store reproduce; -max-inflight 0 leaves the admission gate off.
const (
	hydradCache        = 1024 // -cache: analyzer cache and byte cache
	hydradSessions     = 256  // -sessions: live sessions (store MaxLive)
	hydradCompactEvery = 256  // -compact-every
)

// Set-up is repeated before the window and its median reported, so one
// slow repetition does not move the figure. Recovery is timed once
// after every round of the window instead (timeRestart), so its median
// spans the whole run rather than one moment of it.
const setupReps = 5

// roundSeconds is the length of one round of the timed window, in
// seconds of -seconds (runWindow explains the rounds).
const roundSeconds = 3

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of hydrad sees, reported with -trace 0.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is reported with -trace 1. Every workload prints every
// name; a layer the workload never calls into reads 0.
var perLayer = []metricDef{
	{"hydradhttp.serve_us", "us"},
	{"hydradhttp.self_us", "us"},
	{"hydradhttp.admit_add_ms", "ms"},
	{"hydradhttp.admit_remove_ms", "ms"},
	{"task.decode_us", "us"},
	{"task.hash_us", "us"},
	{"task.delta_decode_us", "us"},
	{"hydrac.analyze_ms", "ms"},
	{"hydrac.envelope_hit_us", "us"},
	{"hydrac.encode_us", "us"},
	{"partition.assign_us", "us"},
	{"core.select_ms", "ms"},
	{"core.select_p99_ms", "ms"},
	{"core.unschedulable_ratio", "ratio"},
	{"lru.hit_ratio", "ratio"},
	{"net.loopback_us", "us"},
	{"store.acquire_us", "us"},
	{"admit.add_ms", "ms"},
	{"admit.remove_ms", "ms"},
	{"wal.write_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.bytes_per_commit", "bytes"},
	{"store.compactions", "count"},
	{"store.compact_ms", "ms"},
	{"store.open_s", "s"},
	{"wal.read_ms", "ms"},
	{"store.replayed_deltas", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// bench is one run: its flags, its tallies and the metrics it fills.
type bench struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	corrupt  bool
	dir      string // private scratch directory of this run
	out      io.Writer

	attempted, failed int
	// bad is the first output that failed its check; any makes the
	// run incorrect. Callers may report from their goroutines.
	mu      sync.Mutex
	bad     error
	metrics map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "analyze-cold | analyze-hot | admit-durable")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same request bodies")
	seconds := fs.Int("seconds", 10, "sizes each caller's fixed op count to about this many seconds")
	trace := fs.Int("trace", 0, "1 adds the traced replay and prints per-layer metrics instead of end-to-end ones")
	work := fs.String("work", ".bench_build/work", "scratch directory for data dirs and span files")
	corrupt := fs.Bool("corrupt", false, "self-test of the output checks: alter one recorded output before checking (the run must then fail)")
	rank := fs.Bool("rank", false, "time the admit-durable base catalogue and print its durableRank table")
	genTo := fs.String("gen", "", "only build the run's inputs and write them to this file (the benchmark runs itself this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genTo != "" {
		if err := writeInputs(*genTo, *workload, *seed, *seconds); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *rank {
		if err := rankCatalogue(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, corrupt: *corrupt,
		dir: filepath.Join(*work, fmt.Sprintf("%s-seed%d-pid%d", *workload, *seed, os.Getpid())),
		out: stdout, metrics: map[string]float64{},
	}
	var err error
	switch *workload {
	case "analyze-cold":
		err = b.runCold()
	case "analyze-hot":
		err = b.runHot()
	case "admit-durable":
		err = b.runDurable()
	default:
		err = fmt.Errorf("unknown -workload %q (analyze-cold | analyze-hot | admit-durable)", *workload)
	}
	if rmErr := os.RemoveAll(b.dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.printResult()
	if b.bad != nil || b.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: output check failed: %v (%d of %d ops failed)\n", b.bad, b.failed, b.attempted)
		return 1
	}
	return 0
}

// check records a failed output check; the first one is reported.
func (b *bench) check(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bad == nil {
		b.bad = err
	}
}

// printResult writes the result line: the end-to-end metrics, or with
// -trace 1 the per-layer ones.
func (b *bench) printResult() {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: b.bad == nil && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{b.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintf(b.out, "%s\n", line)
}

// logf prints a human-readable line ahead of the result line.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, "%s: "+format+"\n", append([]any{b.workload}, args...)...)
}

// service is one hydrad instance: analyzer, handler and, for the
// durable workload, its store.
type service struct {
	a  *hydrac.Analyzer
	h  http.Handler
	st *store.Store
}

func (s *service) close() {
	if s.st != nil {
		s.st.Close()
	}
}

// newAnalyzer builds the Analyzer as cmd/hydrad's defaults do:
// best-fit placement and a 1024-entry report cache.
func newAnalyzer() (*hydrac.Analyzer, error) {
	return hydrac.New(hydrac.WithHeuristic(hydrac.BestFit), hydrac.WithCache(hydradCache))
}

// newService builds a fresh Analyzer and handler over st (nil for the
// stateless workloads).
func newService(st *store.Store, a *hydrac.Analyzer) *service {
	summary := map[string]any{"cache": hydradCache, "heuristic": "best-fit", "sessions": hydradSessions}
	h := hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer:    a,
		Summary:     summary,
		MaxSessions: hydradSessions,
		CacheSize:   hydradCache,
		Store:       st,
	})
	return &service{a: a, h: h, st: st}
}

// timedBuild builds a service from a collected heap and returns it with
// its build time in seconds.
func timedBuild[T any](build func() (T, error)) (T, float64, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := build()
	return s, time.Since(t0).Seconds(), err
}

// timedReps builds a service n times and returns the last one with
// every build time in seconds; earlier builds are closed.
func timedReps[T interface{ close() }](n int, build func() (T, error)) (T, []float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			last.close()
		}
		s, t, err := timedBuild(build)
		if err != nil {
			return last, nil, err
		}
		times = append(times, t)
		last = s
	}
	return last, times, nil
}

// timeRestart times a fresh service, as a restarted daemon builds it,
// once per call and closes it again. Called between the rounds of an
// untraced window; recovery_s is the median of its times.
func (b *bench) timeRestart(times *[]float64, build func() (*service, error)) {
	if b.traced {
		return
	}
	s, t, err := timedBuild(build)
	if err != nil {
		b.check(fmt.Errorf("restart between rounds: %w", err))
		return
	}
	s.close()
	*times = append(*times, t)
}

// roundsFor is how many rounds the timed window of a -seconds run is
// cut into: one per roundSeconds, at least one.
func roundsFor(seconds int) int { return max(1, seconds/roundSeconds) }

func (b *bench) rounds() int { return roundsFor(b.seconds) }

// endToEndFrom fills the end-to-end metrics from an untraced window and
// the times of the set-ups before it and the restarts between rounds.
// Throughput, CPU cost and p50 are the median round's; p99 is read over
// every op of the window, so that enough samples lie above it.
func (b *bench) endToEndFrom(w *window, callers int, setups, restarts []float64) {
	setupS, recoveryS := median(setups), median(restarts)
	var rate, cpu, p50 []float64
	for _, r := range w.rounds {
		rate = append(rate, float64(r.ops)/r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds()*1e3/float64(r.ops))
		p50 = append(p50, r.p50)
	}
	b.metrics["ops_per_s"] = median(rate)
	b.metrics["latency_p50_ms"] = median(p50)
	b.metrics["latency_p99_ms"] = w.lat.quantile(0.99)
	b.metrics["cpu_ms_per_op"] = median(cpu)
	b.metrics["setup_s"] = setupS
	b.metrics["recovery_s"] = recoveryS
	b.metrics["peak_rss_mb"] = w.rssMiB
	b.metrics["runtime.allocs_per_op"] = float64(w.mallocs) / float64(w.ops)
	b.metrics["runtime.gc_cycles"] = float64(w.gcs)
	above := w.ops - int(math.Ceil(0.99*float64(w.ops)))
	b.logf("%d ops by %d callers in %d rounds, %.3f s: %.1f ops/s, p50 %.4f ms, p99 %.4f ms (%d samples, %d above p99), cpu %.4f ms/op, setup %.4f s, recovery %.4f s, peak RSS %.1f MiB, error_ratio %g",
		w.ops, callers, len(w.rounds), w.wall.Seconds(), b.metrics["ops_per_s"], b.metrics["latency_p50_ms"], b.metrics["latency_p99_ms"],
		w.ops, above, b.metrics["cpu_ms_per_op"], setupS, recoveryS, w.rssMiB, float64(b.failed)/float64(max(b.attempted, 1)))
	for i, r := range w.rounds {
		b.logf("  round %d: %d ops in %.3f s, %.1f ops/s, p50 %.4f ms, cpu %.4f ms/op", i, r.ops, r.wall.Seconds(), rate[i], r.p50, cpu[i])
	}
	b.logf("  set-ups (s): %.4f", setups)
	b.logf("  restarts (s): %.4f", restarts)
	if above < 10 {
		b.logf("warning: only %d samples above p99; raise -seconds for a resolved p99", above)
	}
}

// traceSummary fills the metrics every traced replay shares: the p50
// of its serve spans, which include the recorder's own cost, and the
// overhead against the untraced window of the same run. It then writes
// the spans out.
func (b *bench) traceSummary(rec *recorder) error {
	p50 := ms(median(rec.byName(spServe)))
	b.metrics["trace.latency_p50_ms"] = p50
	b.metrics["trace.overhead_pct"] = 100 * (p50/b.metrics["latency_p50_ms"] - 1)
	if err := os.MkdirAll(filepath.Dir(b.dir), 0o755); err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.logf("traced replay: serve p50 %.4f ms vs %.4f ms untraced; %d spans in %s", p50, b.metrics["latency_p50_ms"], len(rec.spans), path)
	for _, d := range perLayer {
		b.logf("  %-28s %14.6g %s", d.name, b.metrics[d.name], d.unit)
	}
	return nil
}

// us and ms convert nanosecond figures.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// corruptDigit alters the first digit after `"wcrt": ` in a copy of
// resp: the -corrupt self-test's way to fake a wrong response.
func corruptDigit(resp []byte) []byte {
	out := slices.Clone(resp)
	key := []byte(`"wcrt": `)
	for i := 0; i+len(key) < len(out); i++ {
		if string(out[i:i+len(key)]) == string(key) {
			j := i + len(key)
			out[j] = '0' + (out[j]-'0'+1)%10
			return out
		}
	}
	return append(out, '!')
}
