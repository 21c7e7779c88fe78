package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydrac/internal/regression"
)

// writeTree materialises a minimal regression tree with one fast load
// case, returning the tree root.
func writeTree(t *testing.T) string {
	t.Helper()
	tree := t.TempDir()
	caseDir := filepath.Join(tree, "cases", "selftest-smoke")
	if err := os.MkdirAll(caseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := `{
  "why": "a fast dup-traffic case for the harness self-tests",
  "kind": "load",
  "concurrency": [2],
  "duration": "120ms",
  "mix": {"dup": 1},
  "daemon": {"cache": 64},
  "workload": {"cores": 4, "group": 3, "seed": 3, "sets": 2, "batch": 2},
  "optimization_goal": "throughput",
  "tolerance": 0.40
}
`
	if err := os.WriteFile(filepath.Join(caseDir, "case.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return tree
}

// The acceptance pair: `check -selftest regression` must exit nonzero
// (an injected 5ms sleep in every head request is caught), and
// `check -selftest aa` (identical in-process sides) must exit zero.
func TestCheckSelftestRegressionFails(t *testing.T) {
	tree := writeTree(t)
	err := run([]string{"check", "-selftest", "regression", "-tree", tree, "-samples", "4"}, os.Stdout)
	if !errors.Is(err, errRegressed) {
		t.Fatalf("injected regression not gated: err = %v", err)
	}
}

func TestCheckSelftestAAPasses(t *testing.T) {
	tree := writeTree(t)
	if err := run([]string{"check", "-selftest", "aa", "-tree", tree, "-samples", "4"}, os.Stdout); err != nil {
		t.Fatalf("A/A check failed: %v", err)
	}
}

// `run` (not check) reports the regression but does not fail, and its
// artifacts — per-case JSON, markdown table, history record — land
// where the flags point.
func TestRunWritesArtifacts(t *testing.T) {
	tree := writeTree(t)
	outDir := filepath.Join(t.TempDir(), "results")
	mdFile := filepath.Join(t.TempDir(), "verdicts.md")
	err := run([]string{"run", "-selftest", "regression", "-tree", tree,
		"-samples", "4", "-out", outDir, "-md", mdFile, "-record", "testrun"}, os.Stdout)
	if err != nil {
		t.Fatalf("run must not gate: %v", err)
	}

	raw, err := os.ReadFile(filepath.Join(outDir, "selftest-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res regression.CaseResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Case != "selftest-smoke" || res.Verdict != regression.VerdictRegressed || len(res.Base) != 4 {
		t.Fatalf("result JSON wrong: %+v", res)
	}

	md, err := os.ReadFile(mdFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "| selftest-smoke | throughput |") {
		t.Fatalf("markdown table missing case row:\n%s", md)
	}

	entries, err := regression.ReadHistory(filepath.Join(tree, "history"), "selftest-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Label != "testrun" || entries[0].Verdict != regression.VerdictRegressed {
		t.Fatalf("history record wrong: %+v", entries)
	}

	// The recorded history renders through the history subcommand.
	if err := run([]string{"history", "-tree", tree, "selftest-smoke"}, os.Stdout); err != nil {
		t.Fatalf("history render: %v", err)
	}
}

func TestListShowsCases(t *testing.T) {
	tree := writeTree(t)
	if err := run([]string{"list", "-tree", tree}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestBadUsage(t *testing.T) {
	tree := writeTree(t)
	for _, tc := range [][]string{
		{},
		{"frobnicate"},
		{"check", "-selftest", "bogus", "-tree", tree},
		{"check", "-tree", tree, "stray-arg"},
		{"check", "-cases", "no-such-case", "-selftest", "aa", "-tree", tree},
		{"history", "-tree", tree},                 // missing case name
		{"history", "-tree", tree, "no-such-case"}, // no history yet
	} {
		if err := run(tc, os.Stdout); err == nil {
			t.Errorf("run(%v) succeeded, want error", tc)
		}
	}
}

// The real tree in this repository must load cleanly: every shipped
// case validates, and at least the six ISSUE-mandated scenarios exist.
func TestShippedTreeLoads(t *testing.T) {
	cases, err := regression.LoadCases("../../test/regression/cases", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 6 {
		t.Fatalf("shipped tree has %d cases, want at least 6", len(cases))
	}
	for _, c := range cases {
		if c.Profile.Kind == regression.KindLoad {
			if _, err := c.BuildSource(); err != nil {
				t.Errorf("case %s: building traffic source: %v", c.Name, err)
			}
		}
	}
}
