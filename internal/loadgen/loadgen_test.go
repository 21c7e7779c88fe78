package loadgen

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hydrac"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/rover"
	"hydrac/internal/store"
)

func newTestTarget(t *testing.T) string {
	t.Helper()
	a, err := hydrac.New(hydrac.WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), a, store.Options{MaxLive: 16, NoSync: true, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, Summary: map[string]any{}, CacheSize: 64, Store: st,
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func roverBody(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, rover.TaskSet()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The engine must complete a short sweep against the real handler
// with no request errors and sane quantiles.
func TestRunFixedSweep(t *testing.T) {
	target := newTestTarget(t)
	res, err := Run(target, Fixed{Path: "/v1/analyze", Body: roverBody(t)}, Config{
		Levels:   []int{1, 2},
		Duration: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d levels, want 2", len(res))
	}
	for _, l := range res {
		if l.Requests == 0 || l.RPS <= 0 {
			t.Fatalf("level c=%d did no work: %+v", l.Concurrency, l)
		}
		if l.Errors != 0 {
			t.Fatalf("level c=%d saw %d errors", l.Concurrency, l.Errors)
		}
		if l.P50MS <= 0 || l.P99MS < l.P50MS {
			t.Fatalf("level c=%d has nonsense quantiles: %+v", l.Concurrency, l)
		}
	}
}

// A session stream must open its session during setup and then admit
// and remove its probe monitor without a single failed request.
func TestSessionAdmitSource(t *testing.T) {
	target := newTestTarget(t)
	src := SessionAdmit{
		Base:   roverBody(t),
		Admit:  []byte(`{"add_security": [{"name": "lg_probe", "wcet": 1, "max_period": 900000, "priority": 1048576}]}`),
		Remove: []byte(`{"remove": ["lg_probe"]}`),
	}
	res, err := Run(target, src, Config{Levels: []int{2}, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Errors != 0 {
		t.Fatalf("%d admit/remove errors", res[0].Errors)
	}
	if res[0].Requests == 0 {
		t.Fatal("session stream did no work")
	}
}

// countingSource records which paths were hit so the mix schedule is
// observable.
type pathCounter struct{ counts map[string]*atomic.Int64 }

func (p pathCounter) handler() http.Handler {
	mux := http.NewServeMux()
	for path, c := range p.counts {
		c := c
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			c.Add(1)
			fmt.Fprint(w, "{}")
		})
	}
	return mux
}

// Mix must interleave children proportionally to their weights.
func TestMixWeights(t *testing.T) {
	pc := pathCounter{counts: map[string]*atomic.Int64{
		"/a": new(atomic.Int64),
		"/b": new(atomic.Int64),
	}}
	srv := httptest.NewServer(pc.handler())
	defer srv.Close()

	src := Mix{Entries: []MixEntry{
		{Source: Fixed{Path: "/a", Body: []byte("{}")}, Weight: 3},
		{Source: Fixed{Path: "/b", Body: []byte("{}")}, Weight: 1},
	}}
	res, err := Run(srv.URL, src, Config{Levels: []int{1}, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Errors != 0 {
		t.Fatalf("%d errors", res[0].Errors)
	}
	na, nb := pc.counts["/a"].Load(), pc.counts["/b"].Load()
	if na == 0 || nb == 0 {
		t.Fatalf("mix starved a child: a=%d b=%d", na, nb)
	}
	// 3:1 weights; allow slack for the partial final schedule cycle.
	if ratio := float64(na) / float64(nb); ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("mix ratio a:b = %.2f, want ≈3", ratio)
	}
}

// Rotating must cycle distinct bodies rather than re-posting one.
func TestRotatingCycles(t *testing.T) {
	var seen atomic.Int64
	bodies := make(map[string]*atomic.Int64)
	mux := http.NewServeMux()
	mux.HandleFunc("/x", func(w http.ResponseWriter, r *http.Request) {
		buf := new(bytes.Buffer)
		buf.ReadFrom(r.Body)
		if c, ok := bodies[buf.String()]; ok {
			c.Add(1)
		}
		seen.Add(1)
		fmt.Fprint(w, "{}")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var pool [][]byte
	for i := 0; i < 4; i++ {
		b := []byte(fmt.Sprintf(`{"i": %d}`, i))
		pool = append(pool, b)
		bodies[string(b)] = new(atomic.Int64)
	}
	res, err := Run(srv.URL, Rotating{Path: "/x", Bodies: pool}, Config{
		Levels: []int{2}, Duration: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Errors != 0 {
		t.Fatalf("%d errors", res[0].Errors)
	}
	for body, c := range bodies {
		if c.Load() == 0 {
			t.Fatalf("body %s never posted", body)
		}
	}
}

// Quantile follows the nearest-rank rule at the edges.
func TestQuantileEdges(t *testing.T) {
	if q := Quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	one := []time.Duration{5}
	if q := Quantile(one, 0.99); q != 5 {
		t.Fatalf("single-sample p99 = %v", q)
	}
	four := []time.Duration{1, 2, 3, 4}
	if q := Quantile(four, 0.5); q != 2 {
		t.Fatalf("p50 of 1..4 = %v, want 2", q)
	}
	if q := Quantile(four, 1.0); q != 4 {
		t.Fatalf("p100 of 1..4 = %v, want 4", q)
	}
}

// RunFleet spreads workers across targets, every target does work,
// and the aggregate folds the per-target splits exactly.
func TestRunFleetSpreadsAcrossTargets(t *testing.T) {
	targets := []string{newTestTarget(t), newTestTarget(t)}
	res, err := RunFleet(targets, Fixed{Path: "/v1/analyze", Body: roverBody(t)}, Config{
		Levels:   []int{4},
		Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Targets) != 2 {
		t.Fatalf("result shape: %+v", res)
	}
	lvl := res[0]
	sum := 0
	for _, tr := range lvl.Targets {
		if tr.Requests == 0 {
			t.Fatalf("target %s did no work: %+v", tr.Target, tr)
		}
		if tr.Errors != 0 {
			t.Fatalf("target %s saw %d errors", tr.Target, tr.Errors)
		}
		sum += tr.Requests
	}
	if lvl.Aggregate.Requests != sum {
		t.Fatalf("aggregate %d requests, per-target sum %d", lvl.Aggregate.Requests, sum)
	}
	if lvl.Aggregate.Concurrency != 4 {
		t.Fatalf("aggregate concurrency %d, want 4", lvl.Aggregate.Concurrency)
	}
}

// A target answering 307 is followed, served by the redirect's owner,
// and the hops land in Redirects — not in Errors.
func TestRunFleetCountsRedirects(t *testing.T) {
	owner := newTestTarget(t)
	var hops atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hops.Add(1)
		w.Header().Set("X-Hydra-Owner", owner)
		w.Header().Set("Location", owner+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	t.Cleanup(front.Close)

	res, err := RunFleet([]string{front.URL}, Fixed{Path: "/v1/analyze", Body: roverBody(t)}, Config{
		Levels:   []int{2},
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lvl := res[0].Aggregate
	if lvl.Errors != 0 {
		t.Fatalf("redirected traffic counted as errors: %+v", lvl)
	}
	if lvl.Requests == 0 || lvl.Redirects == 0 {
		t.Fatalf("no redirected work recorded: %+v", lvl)
	}
	if lvl.Redirects < lvl.Requests {
		t.Fatalf("every request hopped once; redirects %d < requests %d", lvl.Redirects, lvl.Requests)
	}
}

// RunFleet validates its inputs.
func TestRunFleetRejectsEmptyInputs(t *testing.T) {
	if _, err := RunFleet(nil, Fixed{Path: "/x"}, Config{Levels: []int{1}, Duration: time.Millisecond}); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := RunFleet([]string{"http://x.invalid"}, Fixed{Path: "/x"}, Config{Duration: time.Millisecond}); err == nil {
		t.Fatal("no levels accepted")
	}
}
