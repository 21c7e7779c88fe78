package regression

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// writeCase materialises a case directory under dir with body as its
// case.json.
func writeCase(t *testing.T, dir, name, body string) {
	t.Helper()
	cd := filepath.Join(dir, name)
	if err := os.MkdirAll(cd, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cd, "case.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// validLoadKeys are the profile keys of a small cold sweep; fixtures
// append experiment keys and close the object.
const validLoadKeys = `{
  "why": "a small cold sweep",
  "kind": "load",
  "concurrency": [1, 2],
  "duration": "200ms",
  "mix": {"cold": 3, "dup": 1},
  "daemon": {"cache": 64},
  "workload": {"cores": 4, "group": 3, "seed": 11, "sets": 8, "batch": 4}`

// loadCaseJSON is the small cold sweep with experiment keys appended.
func loadCaseJSON(experiment string) string {
	return validLoadKeys + ",\n" + experiment + "\n}\n"
}

func TestLoadCasesValid(t *testing.T) {
	dir := t.TempDir()
	writeCase(t, dir, "zz-later", loadCaseJSON(`"optimization_goal": "p99", "tolerance": 0.10`))
	writeCase(t, dir, "aa-first", loadCaseJSON(`"optimization_goal": "throughput"`))
	writeCase(t, dir, "allocs-bench",
		`{"kind": "gobench", "package": ".", "bench": "BenchmarkAnalyzeCold$", "benchtime": "50x", "optimization_goal": "allocs", "tolerance": 0.01}`)

	cases, err := LoadCases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("loaded %d cases, want 3", len(cases))
	}
	// Sorted by name.
	if cases[0].Name != "aa-first" || cases[2].Name != "zz-later" {
		t.Fatalf("cases not sorted: %v, %v, %v", cases[0].Name, cases[1].Name, cases[2].Name)
	}
	c := cases[0]
	if c.Experiment.Goal != GoalThroughput || c.Experiment.Tolerance != 0.05 {
		t.Fatalf("defaults not applied: %+v", c.Experiment)
	}
	if c.Profile.Duration != Duration(200*time.Millisecond) || c.Profile.Mix["cold"] != 3 || c.Profile.Workload.Seed != 11 {
		t.Fatalf("profile mis-parsed: %+v", c.Profile)
	}
	if cases[1].Profile.Kind != KindGobench || cases[1].Profile.Benchtime != "50x" {
		t.Fatalf("gobench profile mis-parsed: %+v", cases[1].Profile)
	}

	// Name filter — selecting an early name must not let the cases
	// sorted after it leak into the load once the filter is satisfied.
	one, err := LoadCases(dir, []string{"aa-first"})
	if err != nil || len(one) != 1 || one[0].Name != "aa-first" {
		t.Fatalf("filtered load: %v, %v", one, err)
	}
	if _, err := LoadCases(dir, []string{"nope"}); err == nil || !strings.Contains(err.Error(), "unknown cases: nope") {
		t.Fatalf("unknown case name: err = %v", err)
	}
}

func TestLoadCasesRejectsBadConfigs(t *testing.T) {
	const p99 = `"optimization_goal": "p99"`
	bad := []struct {
		name, body, wantErr string
	}{
		{"goal-kind-mismatch", loadCaseJSON(`"optimization_goal": "allocs"`), "gobench"},
		{"nsop-kind-mismatch", loadCaseJSON(`"optimization_goal": "nsop"`), "gobench"},
		{"no-goal", loadCaseJSON(`"tolerance": 0.1`), "optimization_goal"},
		{"bad-goal", loadCaseJSON(`"optimization_goal": "speed"`), "unknown optimization_goal"},
		{"bad-tolerance", loadCaseJSON(p99 + `, "tolerance": 1.5`), "tolerance"},
		{"bad-alpha", loadCaseJSON(p99 + `, "alpha": 0`), `unknown field "alpha"`},
		{"typo-key", loadCaseJSON(p99 + `, "tollerance": 0.1`), `unknown field "tollerance"`},
		{"retries-key", loadCaseJSON(p99 + `, "retries": 2`), `unknown field "retries"`},
		{"sessions-key", `{"kind": "load", "concurrency": [1], "mix": {"dup": 1}, "daemon": {"sessions": 16}, ` + p99 + `}`, `unknown field "sessions"`},
		{"no-concurrency", `{"kind": "load", "duration": "1s", "mix": {"dup": 1}, ` + p99 + `}`, "concurrency"},
		{"no-mix", `{"kind": "load", "concurrency": [1], "duration": "1s", ` + p99 + `}`, "mix"},
		{"bad-mix-kind", `{"kind": "load", "concurrency": [1], "duration": "1s", "mix": {"warm": 1}, ` + p99 + `}`, "unknown mix kind"},
		{"bad-group", `{"kind": "load", "concurrency": [1], "duration": "1s", "mix": {"dup": 1}, "workload": {"group": 12}, ` + p99 + `}`, "workload"},
		{"gobench-no-bench", `{"kind": "gobench", "package": ".", "optimization_goal": "allocs"}`, "bench"},
		{"bad-kind", `{"kind": "wrk", ` + p99 + `}`, "kind"},
		{"load-key-in-gobench", `{"kind": "gobench", "bench": "BenchmarkX", "concurrency": [1], "optimization_goal": "allocs"}`, `unknown field "concurrency"`},
		{"repeated-key", loadCaseJSON(p99 + `, "tolerance": 0.1, "tolerance": 0.2`), `repeated key "tolerance"`},
		{"repeated-nested-key", `{"kind": "load", "concurrency": [1], "mix": {"dup": 1, "dup": 2}, ` + p99 + `}`, `repeated key "dup"`},
		{"not-json", "kind: load\n", "case.json"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeCase(t, dir, tc.name, tc.body)
			_, err := LoadCases(dir, nil)
			if err == nil {
				t.Fatalf("loaded invalid case %s without error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// The TestParseYAML* tests keep the names they had when case files
// were YAML; they pin decodeCase on case.json.

// Every key of both kinds decodes into its field: nested objects,
// integers, booleans, floats, strings and duration strings.
func TestParseYAMLProfileShape(t *testing.T) {
	var load Case
	err := decodeCase([]byte(`{
  "why": "every load key",
  "kind": "load",
  "concurrency": [1, 4],
  "duration": "700ms",
  "mix": {"cold": 3, "dup": 1},
  "daemon": {"cache": 16, "data_dir": true, "max_inflight": 2, "max_queue": 4, "queue_wait": "20ms", "fleet": 3},
  "workload": {"cores": 8, "group": 5, "seed": 601, "sets": 64, "batch": 2},
  "optimization_goal": "p99",
  "tolerance": 0.25
}`), &load)
	if err != nil {
		t.Fatal(err)
	}
	want := Case{
		Profile: Profile{Kind: KindLoad, LoadProfile: LoadProfile{
			Concurrency: []int{1, 4},
			Duration:    Duration(700 * time.Millisecond),
			Mix:         map[string]int{"cold": 3, "dup": 1},
			Daemon:      DaemonOpts{Cache: 16, DataDir: true, MaxInflight: 2, MaxQueue: 4, QueueWait: Duration(20 * time.Millisecond), Fleet: 3},
			Workload:    Workload{Cores: 8, Group: 5, Seed: 601, Sets: 64, Batch: 2},
		}},
		Experiment: Experiment{Goal: GoalP99, Tolerance: 0.25},
	}
	if !reflect.DeepEqual(load, want) {
		t.Fatalf("decoded:\n%+v\nwant:\n%+v", load, want)
	}

	var bench Case
	if err := decodeCase([]byte(`{"kind": "gobench", "package": "./internal/wal", "bench": "BenchmarkWALAppend$", "benchtime": "3x", "optimization_goal": "nsop"}`), &bench); err != nil {
		t.Fatal(err)
	}
	wantBench := Case{
		Profile:    Profile{Kind: KindGobench, BenchProfile: BenchProfile{Package: "./internal/wal", Bench: "BenchmarkWALAppend$", Benchtime: "3x"}},
		Experiment: Experiment{Goal: GoalNsPerOp, Tolerance: 0.05},
	}
	if !reflect.DeepEqual(bench, wantBench) {
		t.Fatalf("decoded:\n%+v\nwant:\n%+v", bench, wantBench)
	}
}

// Each JSON scalar lands in its field's type: bool, negative int,
// float, string and duration string.
func TestParseYAMLScalars(t *testing.T) {
	var c Case
	err := decodeCase([]byte(`{"daemon": {"data_dir": true}, "workload": {"seed": -3}, "tolerance": 0.5, "optimization_goal": "p99", "duration": "1.5s"}`), &c)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Profile.Daemon.DataDir || c.Profile.Workload.Seed != -3 || c.Experiment.Tolerance != 0.5 ||
		c.Experiment.Goal != GoalP99 || c.Profile.Duration != Duration(1500*time.Millisecond) {
		t.Fatalf("decoded %+v", c)
	}
}

// A nested object that sets some of its keys keeps the defaults of the
// rest, and a key after it lands at the top level.
func TestParseYAMLDeepNesting(t *testing.T) {
	var c Case
	if err := decodeCase([]byte(`{"daemon": {"cache": 8}, "workload": {"cores": 2}, "duration": "1s"}`), &c); err != nil {
		t.Fatal(err)
	}
	p := c.Profile
	if p.Daemon.Cache != 8 || p.Daemon.MaxQueue != 64 || p.Workload.Cores != 2 || p.Workload.Group != 4 ||
		p.Duration != Duration(time.Second) {
		t.Fatalf("decoded %+v", p)
	}
}

// Documents that are not one well-formed case object of the right
// types fail to decode, whatever validate would say of them.
func TestParseYAMLErrors(t *testing.T) {
	bad := map[string]string{
		"yaml":                  "kind: load\n",
		"comment":               "// a note\n{}",
		"top-level array":       `[{"kind": "load"}]`,
		"trailing data":         `{"kind": "load"} {}`,
		"unterminated string":   `{"kind": "load`,
		"unterminated object":   `{"kind": "load"`,
		"string integer":        `{"daemon": {"cache": "16"}}`,
		"fractional weight":     `{"mix": {"dup": 1.5}}`,
		"numeric duration":      `{"duration": 400}`,
		"bad duration":          `{"duration": "soon"}`,
		"non-string kind":       `{"kind": 1}`,
		"gobench key in load":   `{"kind": "load", "bench": "BenchmarkX"}`,
		"nested unknown key":    `{"workload": {"core": 4}}`,
		"repeated after nested": `{"daemon": {"cache": 1}, "duration": "1s", "daemon": {}}`,
	}
	for name, doc := range bad {
		var c Case
		if err := decodeCase([]byte(doc), &c); err == nil {
			t.Errorf("%s: no error for %q", name, doc)
		}
	}
}

// An empty case.json is an error; an empty object is a load case of
// defaults, which validate then rejects.
func TestParseYAMLEmpty(t *testing.T) {
	for _, doc := range []string{"", "\n  \n"} {
		var c Case
		if err := decodeCase([]byte(doc), &c); err == nil {
			t.Errorf("no error for %q", doc)
		}
	}
	var c Case
	if err := decodeCase([]byte("{}"), &c); err != nil {
		t.Fatal(err)
	}
	if c.Profile.Kind != KindLoad || c.Profile.Workload.Sets != 32 || c.Experiment.Tolerance != 0.05 {
		t.Fatalf("decoded %+v", c)
	}
	if err := c.validate(); err == nil {
		t.Fatal("empty case validated")
	}
}

func TestLoadCasesEmptyTree(t *testing.T) {
	if _, err := LoadCases(t.TempDir(), nil); err == nil {
		t.Fatal("empty tree loaded without error")
	}
}

func TestBuildSourceAllMixKinds(t *testing.T) {
	c := Case{
		Name: "all-mix",
		Profile: Profile{Kind: KindLoad, LoadProfile: LoadProfile{
			Concurrency: []int{1},
			Duration:    Duration(time.Second),
			Mix:         map[string]int{MixCold: 2, MixDup: 1, MixBatch: 1, MixSession: 1},
			Workload:    Workload{Cores: 4, Group: 3, Seed: 5, Sets: 6, Batch: 3},
		}},
		Experiment: Experiment{Goal: GoalThroughput, Tolerance: 0.05},
	}
	src, err := c.BuildSource()
	if err != nil {
		t.Fatal(err)
	}
	if src == nil {
		t.Fatal("nil source")
	}
}

func TestBuildSourceOverloadGroupFailsLoudly(t *testing.T) {
	// Group 9 (utilisation ≈ 1.0) rarely yields partitionable sets; a
	// huge pool demand must error rather than hang or under-fill.
	c := Case{
		Name: "overload",
		Profile: Profile{Kind: KindLoad, LoadProfile: LoadProfile{
			Concurrency: []int{1},
			Duration:    Duration(time.Second),
			Mix:         map[string]int{MixCold: 1},
			Workload:    Workload{Cores: 2, Group: 9, Seed: 1, Sets: 512, Batch: 4},
		}},
		Experiment: Experiment{Goal: GoalThroughput, Tolerance: 0.05},
	}
	if _, err := c.BuildSource(); err == nil {
		t.Skip("group 9 filled the pool on this generator config; nothing to assert")
	} else if !strings.Contains(err.Error(), "sets") {
		t.Fatalf("unhelpful pool error: %v", err)
	}
}

// data_dir is a daemon boolean; anything else is a load error, and
// the shipped durable case must parse with it set.
func TestDaemonDataDirParsing(t *testing.T) {
	dir := t.TempDir()
	writeCase(t, dir, "durable", `{"kind": "load", "concurrency": [1], "mix": {"dup": 1}, "daemon": {"data_dir": true}, "optimization_goal": "p99"}`)
	cases, err := LoadCases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cases[0].Profile.Daemon.DataDir {
		t.Fatal("data_dir: true not parsed into DaemonOpts.DataDir")
	}

	writeCase(t, dir, "durable", `{"kind": "load", "concurrency": [1], "mix": {"dup": 1}, "daemon": {"data_dir": 3}, "optimization_goal": "p99"}`)
	if _, err := LoadCases(dir, nil); err == nil {
		t.Fatal("non-boolean data_dir accepted")
	}
}

// The admission-gate keys parse into DaemonOpts, with hydrad's own
// defaults for the ones left unset, and bad values are load errors.
func TestDaemonGateParsing(t *testing.T) {
	dir := t.TempDir()
	gated := func(daemon string) string {
		return `{"kind": "load", "concurrency": [8], "mix": {"dup": 1}, "daemon": {` + daemon + `}, "optimization_goal": "p99"}`
	}
	writeCase(t, dir, "gated", gated(`"max_inflight": 2, "max_queue": 4, "queue_wait": "20ms"`))
	cases, err := LoadCases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := cases[0].Profile.Daemon
	if d.MaxInflight != 2 || d.MaxQueue != 4 || d.QueueWait != Duration(20*time.Millisecond) {
		t.Fatalf("gate opts mis-parsed: %+v", d)
	}

	// Unset gate keys take hydrad's defaults so BinaryTarget and
	// HandlerTarget boot the same gate from the same DaemonOpts.
	writeCase(t, dir, "gated", gated(`"max_inflight": 2`))
	cases, err = LoadCases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := cases[0].Profile.Daemon; d.MaxQueue != 64 || d.QueueWait <= 0 {
		t.Fatalf("gate defaults not applied: %+v", d)
	}

	for _, bad := range []string{
		`"max_inflight": -1`,
		`"queue_wait": "fast"`,
		`"queue_wait": 20`,
	} {
		writeCase(t, dir, "gated", gated(bad))
		if _, err := LoadCases(dir, nil); err == nil {
			t.Fatalf("bad config accepted: %q", bad)
		}
	}
}

// The fleet key parses into DaemonOpts.Fleet; a fleet of one is a
// load error (a single node is just a daemon with no fleet key).
func TestDaemonFleetParsing(t *testing.T) {
	dir := t.TempDir()
	writeCase(t, dir, "fleet", `{"kind": "load", "concurrency": [2], "mix": {"session": 1}, "daemon": {"fleet": 2}, "optimization_goal": "p99"}`)
	cases, err := LoadCases(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cases[0].Profile.Daemon.Fleet != 2 {
		t.Fatalf("fleet = %d, want 2", cases[0].Profile.Daemon.Fleet)
	}

	writeCase(t, dir, "fleet", `{"kind": "load", "concurrency": [2], "mix": {"session": 1}, "daemon": {"fleet": 1}, "optimization_goal": "p99"}`)
	if _, err := LoadCases(dir, nil); err == nil {
		t.Fatal("fleet of one accepted")
	}
}
