package hydrac_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydrac"
)

// The golden conformance corpus: every task set under testdata/corpus
// has a checked-in golden report, and three surfaces must reproduce it
// byte for byte — the library (this test), `hydrac analyze -json`
// (cmd/hydrac), and the HTTP daemon (cmd/hydrad). A behaviour change
// in the pipeline shows up as a three-way golden diff instead of a
// silent drift between surfaces.
//
// Regenerate after an intentional change with:
//
//	go test -run TestCorpusGolden -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/corpus/*.golden.json from the current pipeline")

// CorpusPaths returns the corpus task-set files, for reuse by the cmd
// tests via this package's exported test helpers... it lives here so
// the three surface tests cannot drift in how they enumerate cases.
func corpusPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sets []string
	for _, p := range paths {
		if !strings.HasSuffix(p, ".golden.json") {
			sets = append(sets, p)
		}
	}
	if len(sets) < 5 {
		t.Fatalf("corpus too thin: %d sets", len(sets))
	}
	return sets
}

func goldenPath(setPath string) string {
	return strings.TrimSuffix(setPath, ".json") + ".golden.json"
}

// canonicalReportBytes scrubs the per-call volatile fields and renders
// the envelope — the exact bytes the goldens hold.
func canonicalReportBytes(t *testing.T, rep *hydrac.Report) []byte {
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

func TestCorpusGoldenLibrary(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpusPaths(t) {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ts, err := hydrac.DecodeTaskSet(f)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := a.Analyze(context.Background(), ts)
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalReportBytes(t, rep)
			if *updateGolden {
				if err := os.WriteFile(goldenPath(p), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(p))
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from golden:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// The corpus also pins the batch path: AnalyzeBatch over the whole
// corpus must produce exactly the golden reports, in order.
func TestCorpusGoldenBatch(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by TestCorpusGoldenLibrary")
	}
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	paths := corpusPaths(t)
	var sets []*hydrac.TaskSet
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := hydrac.DecodeTaskSet(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, ts)
	}
	reps, err := a.AnalyzeBatch(context.Background(), sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		want, err := os.ReadFile(goldenPath(paths[i]))
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalReportBytes(t, rep); !bytes.Equal(got, want) {
			t.Errorf("%s: batch report drifted from golden", paths[i])
		}
	}
}

// And the incremental path: a session opened on each corpus base must
// produce the golden report too (sessions must be indistinguishable
// from cold analyses on identical input).
func TestCorpusGoldenSession(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by TestCorpusGoldenLibrary")
	}
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpusPaths(t) {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ts, err := hydrac.DecodeTaskSet(f)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := a.NewSession(context.Background(), ts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(p))
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalReportBytes(t, rep)
			if strings.Contains(p, "unassigned-rt") {
				// Session reports describe the session's own placed
				// set: the Heuristic marker is empty and the hash is
				// the placed set's. Everything else must match.
				want = bytes.Replace(want, []byte("\n    \"heuristic\": \"best-fit\",\n"), []byte("\n"), 1)
				want = rewriteHash(t, want, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("session report drifted from golden:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// rewriteHash splices got's task_set_hash into want so the
// unassigned-rt session comparison checks everything except the
// documented hash difference (input hash vs placed-set hash).
func rewriteHash(t *testing.T, want, got []byte) []byte {
	t.Helper()
	const key = `"task_set_hash": "`
	wi := bytes.Index(want, []byte(key))
	gi := bytes.Index(got, []byte(key))
	if wi < 0 || gi < 0 {
		t.Fatal("no task_set_hash in report")
	}
	wEnd := wi + len(key) + bytes.IndexByte(want[wi+len(key):], '"')
	gEnd := gi + len(key) + bytes.IndexByte(got[gi+len(key):], '"')
	out := append([]byte(nil), want[:wi+len(key)]...)
	out = append(out, got[gi+len(key):gEnd]...)
	out = append(out, want[wEnd:]...)
	return out
}
