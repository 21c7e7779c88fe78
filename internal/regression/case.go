// Package regression is the declarative regression-detection harness
// behind cmd/hydraperf: a tree of self-describing experiment cases
// (test/regression/cases/<name>/), each a load profile plus one
// optimization goal, run PAIRED — N interleaved samples of the
// merge-base build and the head build — with a nonparametric
// significance test deciding whether the head moved the goal metric
// by more than run-to-run noise. Modelled on DataDog's SMP Regression
// Detector case tree (test/regression/ in datadog-agent).
package regression

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hydrac/internal/gen"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/loadgen"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

// Goal is what a case optimises for; its direction decides which
// significant changes count as regressions.
type Goal string

const (
	// GoalThroughput gates sustained requests per second (higher is
	// better) of a closed-loop load profile.
	GoalThroughput Goal = "throughput"
	// GoalP99 gates tail latency in milliseconds (lower is better).
	GoalP99 Goal = "p99"
	// GoalAllocs gates allocations per operation of a Go benchmark
	// (lower is better); gobench cases only.
	GoalAllocs Goal = "allocs"
	// GoalNsPerOp gates wall time per operation of a Go benchmark
	// (lower is better); gobench cases only. The path for kernel-level
	// time budgets that have no HTTP observable — e.g. the massive-
	// scale corpus entries, whose per-request cost would blow a load
	// profile's measurement window.
	GoalNsPerOp Goal = "nsop"
)

// HigherIsBetter reports the goal's good direction.
func (g Goal) HigherIsBetter() bool { return g == GoalThroughput }

// Metric names the scalar each goal extracts from a sample.
func (g Goal) Metric() (name, unit string) {
	switch g {
	case GoalThroughput:
		return "rps", "req/s"
	case GoalP99:
		return "p99_ms", "ms"
	case GoalAllocs:
		return "allocs_per_op", "allocs/op"
	case GoalNsPerOp:
		return "ns_per_op", "ns/op"
	}
	return string(g), ""
}

// Case kinds.
const (
	// KindLoad drives the hydrad HTTP service with internal/loadgen.
	KindLoad = "load"
	// KindGobench samples a `go test -bench` benchmark binary built in
	// each tree — the path for allocation gates, which have no HTTP
	// observable.
	KindGobench = "gobench"
)

// Mix kinds for load profiles.
const (
	MixCold    = "cold"    // rotating pool of distinct generated sets → cache misses
	MixDup     = "dup"     // one fixed body → exact-byte duplicate hot path
	MixBatch   = "batch"   // rotating batch envelopes on /v1/analyze/batch
	MixSession = "session" // per-worker admission session, alternating admit/remove
)

// Profile is how a case generates load (or which benchmark it
// samples). Kind selects which of the two embedded key sets the
// case's case.json may use.
type Profile struct {
	Kind string
	LoadProfile
	BenchProfile
}

// LoadProfile is the key set of a load case.
type LoadProfile struct {
	Concurrency []int          `json:"concurrency"`
	Duration    Duration       `json:"duration"`
	Mix         map[string]int `json:"mix"` // mix kind → weight
	Daemon      DaemonOpts     `json:"daemon"`
	Workload    Workload       `json:"workload"`
}

// BenchProfile is the key set of a gobench case.
type BenchProfile struct {
	Package   string `json:"package"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
}

// DaemonOpts configures the hydrad instance a load sample boots. Its
// session store keeps hydrad's default live window (-sessions 256).
type DaemonOpts struct {
	Cache int `json:"cache"`
	// DataDir, when true, boots the daemon with a fresh temporary
	// -data-dir — the session store with WAL fsync on every commit —
	// instead of the unsynced temporary store hydrad opens without it.
	// A base build predating the flag makes the sample (and the case)
	// skip, not fail.
	DataDir bool `json:"data_dir"`
	// MaxInflight, when positive, arms the daemon's admission gate
	// (-max-inflight): excess load is shed with 429 instead of queued
	// unboundedly. MaxQueue and QueueWait tune the gate's wait queue
	// and default to hydrad's own defaults at load time, so both
	// target kinds boot identical gates. A base build predating the
	// flags makes the sample skip, not fail.
	MaxInflight int      `json:"max_inflight"`
	MaxQueue    int      `json:"max_queue"`
	QueueWait   Duration `json:"queue_wait"`
	// Fleet, when >= 2, boots that many daemon instances joined into a
	// consistent-hash fleet (-peers/-self): load spreads round-robin
	// over the nodes and 307 ownership redirects are followed, so the
	// sample measures routed-fleet cost, not a single node. A base
	// build predating the fleet flags makes the sample skip, not fail.
	Fleet int `json:"fleet"`
}

// Workload parameterises the input task-set generator (internal/gen,
// the paper's Table 3 shape) for load profiles.
type Workload struct {
	// Cores is M; the generator scales task counts with it.
	Cores int `json:"cores"`
	// Group is the utilisation group (0–9): group g covers normalised
	// utilisation ≈ (0.01+0.1g, 0.1+0.1g]. High groups approach
	// overload.
	Group int `json:"group"`
	// Seed derives the deterministic per-set RNG streams.
	Seed int64 `json:"seed"`
	// Sets is the pool size of distinct task sets (cold/batch mixes).
	Sets int `json:"sets"`
	// Batch is the number of task sets per batch request.
	Batch int `json:"batch"`
}

// Duration is a time.Duration written in case files as a Go duration
// string ("400ms").
type Duration time.Duration

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	*d = Duration(v)
	return err
}

func (d Duration) String() string { return time.Duration(d).String() }

// Experiment is a case's single optimization goal plus gate tuning.
type Experiment struct {
	Goal Goal `json:"optimization_goal"`
	// Tolerance is the relative change treated as within noise even
	// when statistically significant (e.g. 0.05 = ±5%). Significant
	// changes smaller than this never flip the gate.
	Tolerance float64 `json:"tolerance"`
}

// Case is one loaded experiment directory.
type Case struct {
	Name       string
	Dir        string
	Profile    Profile
	Experiment Experiment
}

// alpha is the significance level of every case's Mann–Whitney test.
const alpha = 0.05

// LoadCases reads and validates every case under dir (the cases/
// directory of a regression tree). Names is an optional filter; empty
// loads all. Cases come back sorted by name.
func LoadCases(dir string, names []string) ([]Case, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading case tree: %w", err)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var cases []Case
	found := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if len(want) > 0 && !want[e.Name()] {
			continue
		}
		c, err := loadCase(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", e.Name(), err)
		}
		cases = append(cases, c)
		found[e.Name()] = true
	}
	var missing []string
	for n := range want {
		if !found[n] {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("unknown cases: %s", strings.Join(missing, ", "))
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("no cases under %s", dir)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

func loadCase(dir string) (Case, error) {
	c := Case{Name: filepath.Base(dir), Dir: dir}
	raw, err := os.ReadFile(filepath.Join(dir, "case.json"))
	if err != nil {
		return c, err
	}
	if err := decodeCase(raw, &c); err != nil {
		return c, fmt.Errorf("case.json: %w", err)
	}
	return c, c.validate()
}

// decodeCase fills c's profile and experiment from a case.json
// document: defaults first, then the file's keys over them. Only the
// keys of the file's kind decode — an unknown key, such as a typo or a
// load key in a gobench case, is an error, as is a repeated key.
func decodeCase(raw []byte, c *Case) error {
	head := struct {
		Kind string `json:"kind"`
	}{KindLoad}
	if err := json.Unmarshal(raw, &head); err != nil {
		return err
	}
	if err := noRepeatedKeys(raw); err != nil {
		return err
	}
	p := &c.Profile
	p.Kind = head.Kind
	c.Experiment = Experiment{Tolerance: 0.05}
	common := caseHead{Experiment: &c.Experiment}
	var file any
	switch p.Kind {
	case KindLoad:
		p.LoadProfile = LoadProfile{
			Duration: Duration(500 * time.Millisecond),
			Daemon:   DaemonOpts{Cache: 1024, MaxQueue: 64, QueueWait: Duration(hydradhttp.DefaultQueueWait)},
			Workload: Workload{Cores: 4, Group: 4, Seed: 1, Sets: 32, Batch: 8},
		}
		file = &struct {
			caseHead
			*LoadProfile
		}{common, &p.LoadProfile}
	case KindGobench:
		p.BenchProfile = BenchProfile{Package: ".", Benchtime: "100x"}
		file = &struct {
			caseHead
			*BenchProfile
		}{common, &p.BenchProfile}
	default:
		return fmt.Errorf("kind: %q (want %s or %s)", p.Kind, KindLoad, KindGobench)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(file)
}

// caseHead is the part of a case.json every kind shares.
type caseHead struct {
	Why  string `json:"why"` // prose for the reader; no code reads it
	Kind string `json:"kind"`
	*Experiment
}

// noRepeatedKeys rejects a document in which some object names a key
// twice, which encoding/json would accept by keeping the last value.
func noRepeatedKeys(raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var walk func() error
	walk = func() error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if tok != json.Delim('{') && tok != json.Delim('[') {
			return nil
		}
		seen := map[string]bool{}
		for dec.More() {
			if tok == json.Delim('{') {
				key, err := dec.Token()
				if err != nil {
					return err
				}
				if seen[key.(string)] {
					return fmt.Errorf("repeated key %q", key)
				}
				seen[key.(string)] = true
			}
			if err := walk(); err != nil {
				return err
			}
		}
		_, err = dec.Token() // the closing delimiter
		return err
	}
	return walk()
}

// validate enforces the cross-field rules a runnable case must meet.
func (c *Case) validate() error {
	switch c.Experiment.Goal {
	case GoalThroughput, GoalP99:
		if c.Profile.Kind != KindLoad {
			return fmt.Errorf("goal %s requires a load profile", c.Experiment.Goal)
		}
	case GoalAllocs, GoalNsPerOp:
		if c.Profile.Kind != KindGobench {
			return fmt.Errorf("goal %s requires a gobench profile (per-op metrics are not observable over HTTP)", c.Experiment.Goal)
		}
	case "":
		return fmt.Errorf("case.json must name an optimization_goal (throughput, p99, allocs or nsop)")
	default:
		return fmt.Errorf("unknown optimization_goal %q (want throughput, p99, allocs or nsop)", c.Experiment.Goal)
	}
	if c.Experiment.Tolerance < 0 || c.Experiment.Tolerance >= 1 {
		return fmt.Errorf("tolerance %v out of range [0, 1)", c.Experiment.Tolerance)
	}
	switch c.Profile.Kind {
	case KindLoad:
		if len(c.Profile.Concurrency) == 0 {
			return fmt.Errorf("load profile needs a concurrency sweep")
		}
		for _, lvl := range c.Profile.Concurrency {
			if lvl < 1 {
				return fmt.Errorf("concurrency level %d < 1", lvl)
			}
		}
		if c.Profile.Duration <= 0 {
			return fmt.Errorf("duration must be positive")
		}
		if len(c.Profile.Mix) == 0 {
			return fmt.Errorf("load profile needs a mix (cold, dup, batch, session)")
		}
		for kind, w := range c.Profile.Mix {
			switch kind {
			case MixCold, MixDup, MixBatch, MixSession:
			default:
				return fmt.Errorf("unknown mix kind %q", kind)
			}
			if w < 1 {
				return fmt.Errorf("mix %s: weight %d < 1", kind, w)
			}
		}
		w := c.Profile.Workload
		if w.Cores < 1 || w.Group < 0 || w.Group > 9 || w.Sets < 1 || w.Batch < 1 {
			return fmt.Errorf("bad workload parameters: %+v", w)
		}
		d := c.Profile.Daemon
		if d.MaxInflight < 0 || d.MaxQueue < 0 || d.QueueWait <= 0 {
			return fmt.Errorf("bad daemon gate parameters: max_inflight %d, max_queue %d, queue_wait %s", d.MaxInflight, d.MaxQueue, d.QueueWait)
		}
		if d.Fleet != 0 && (d.Fleet < 2 || d.Fleet > 8) {
			return fmt.Errorf("fleet %d out of range (0 for a single node, or 2..8 members)", d.Fleet)
		}
	case KindGobench:
		if c.Profile.Bench == "" {
			return fmt.Errorf("gobench profile needs a bench regexp")
		}
	}
	return nil
}

// BuildSource materialises a load case's traffic: the generated
// task-set pool, batch envelopes, and session deltas, composed into a
// loadgen source per the mix. The same source (same bodies) feeds
// base AND head samples, so workload generation can never skew the
// pairing.
func (c *Case) BuildSource() (loadgen.Source, error) {
	if c.Profile.Kind != KindLoad {
		return nil, fmt.Errorf("case %s is not a load case", c.Name)
	}
	w := c.Profile.Workload
	pool, err := generatePool(w)
	if err != nil {
		return nil, fmt.Errorf("case %s: %w", c.Name, err)
	}
	var entries []loadgen.MixEntry
	// Deterministic order: kinds sorted by name.
	kinds := make([]string, 0, len(c.Profile.Mix))
	for k := range c.Profile.Mix {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		weight := c.Profile.Mix[kind]
		var src loadgen.Source
		switch kind {
		case MixCold:
			src = loadgen.Rotating{Path: "/v1/analyze", Bodies: pool}
		case MixDup:
			src = loadgen.Fixed{Path: "/v1/analyze", Body: pool[0]}
		case MixBatch:
			batches, err := batchBodies(pool, w.Batch)
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", c.Name, err)
			}
			src = loadgen.Rotating{Path: "/v1/analyze/batch", Bodies: batches}
		case MixSession:
			admit, remove, err := sessionDeltas()
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", c.Name, err)
			}
			src = loadgen.SessionAdmit{Base: pool[0], Admit: admit, Remove: remove}
		}
		entries = append(entries, loadgen.MixEntry{Source: src, Weight: weight})
	}
	if len(entries) == 1 {
		return entries[0].Source, nil
	}
	return loadgen.Mix{Entries: entries}, nil
}

// generatePool draws the workload's pool of distinct task sets and
// pre-encodes them. Draw failures (utilisation groups where some
// seeds yield no partitionable set) skip to the next index; the pool
// must still fill from a bounded number of attempts so a bad
// workload spec fails loudly instead of looping.
func generatePool(w Workload) ([][]byte, error) {
	cfg := gen.TableThree(w.Cores)
	cfg.Partition = partition.BestFit
	pool := make([][]byte, 0, w.Sets)
	maxIdx := w.Sets * 8
	for i := 0; len(pool) < w.Sets && i < maxIdx; i++ {
		ts, err := cfg.GenerateAt(w.Seed, w.Group, i)
		if err != nil {
			continue // this index has no partitionable draw; skip it
		}
		var buf bytes.Buffer
		if err := task.Encode(&buf, ts); err != nil {
			return nil, err
		}
		pool = append(pool, buf.Bytes())
	}
	if len(pool) < w.Sets {
		return nil, fmt.Errorf("workload group %d on %d cores yielded only %d/%d sets — the group is too close to overload for this generator",
			w.Group, w.Cores, len(pool), w.Sets)
	}
	return pool, nil
}

// batchBodies wraps the pool into /v1/analyze/batch envelopes of
// batch sets each, rotating through the pool.
func batchBodies(pool [][]byte, batch int) ([][]byte, error) {
	n := len(pool)
	count := (n + batch - 1) / batch
	out := make([][]byte, 0, count)
	for b := 0; b < count; b++ {
		raws := make([]json.RawMessage, batch)
		for j := 0; j < batch; j++ {
			raws[j] = json.RawMessage(pool[(b*batch+j)%n])
		}
		body, err := json.Marshal(map[string]any{"task_sets": raws})
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

// sessionDeltas builds the admit/remove pair the session mix
// alternates: one minimal security monitor at the lowest priority, so
// admission virtually always succeeds and the session returns to its
// base set every two requests.
func sessionDeltas() (admit, remove []byte, err error) {
	prio := 1 << 20 // far below any generated priority → lowest
	d := task.Delta{AddSecurity: []task.SecurityTask{{
		Name: "hydraperf_probe", WCET: 1, MaxPeriod: 900000, Core: -1, Priority: prio,
	}}}
	var abuf, rbuf bytes.Buffer
	if err := task.EncodeDelta(&abuf, &d); err != nil {
		return nil, nil, err
	}
	if err := task.EncodeDelta(&rbuf, &task.Delta{Remove: []string{"hydraperf_probe"}}); err != nil {
		return nil, nil, err
	}
	return abuf.Bytes(), rbuf.Bytes(), nil
}
