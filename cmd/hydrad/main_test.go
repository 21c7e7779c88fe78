package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydrac"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/rover"
	"hydrac/internal/store"
)

func testHandler(t *testing.T, opts ...hydrac.AnalyzerOption) http.Handler {
	t.Helper()
	a, err := hydrac.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), a, store.Options{MaxLive: 16, NoSync: true, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a, Summary: map[string]any{"cache": 0}, CacheSize: 8, Store: st})
}

func roverJSON(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, rover.TaskSet()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeEndpoint(t *testing.T) {
	srv := httptest.NewServer(testHandler(t, hydrac.WithBaselines(hydrac.SchemeHydra)))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(roverJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rep, err := hydrac.ReadReport(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Schedulable {
		t.Fatal("rover set reported unschedulable")
	}
	if len(rep.Tasks) != len(rover.TaskSet().Security) {
		t.Fatalf("verdict count %d", len(rep.Tasks))
	}
	if len(rep.Baselines) != 1 || rep.Baselines[0].Scheme != hydrac.SchemeHydra {
		t.Fatalf("baselines: %+v", rep.Baselines)
	}
	if rep.Timing == nil || rep.Timing.TotalNS <= 0 {
		t.Fatal("report carries no timing")
	}
}

func TestAnalyzeEndpointCacheAcrossRequests(t *testing.T) {
	srv := httptest.NewServer(testHandler(t, hydrac.WithCache(8)))
	defer srv.Close()

	post := func() *hydrac.Report {
		resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(roverJSON(t)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rep, err := hydrac.ReadReport(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if post().FromCache {
		t.Fatal("first request claims a cache hit")
	}
	if !post().FromCache {
		t.Fatal("second request missed the shared cache")
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()

	one := json.RawMessage(roverJSON(t))
	body, err := json.Marshal(map[string]any{"task_sets": []json.RawMessage{one, one, one}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	reps, err := hydrac.ReadReports(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("%d reports for 3 sets", len(reps))
	}
	for i, rep := range reps {
		if !rep.Schedulable {
			t.Fatalf("report %d unschedulable", i)
		}
		if rep.Timing != nil || rep.FromCache {
			t.Fatalf("batch report %d carries per-call stamps", i)
		}
	}
	// Identical inputs must yield identical reports.
	a, _ := json.Marshal(reps[0])
	b, _ := json.Marshal(reps[1])
	if !bytes.Equal(a, b) {
		t.Fatal("identical task sets produced different reports")
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var health struct {
		Status        string `json:"status"`
		ReportVersion int    `json:"report_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.ReportVersion != hydrac.ReportVersion {
		t.Fatalf("health: %+v", health)
	}
}

func TestEndpointErrors(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"get analyze", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"put batch", http.MethodPut, "/v1/analyze/batch", "{}", http.StatusMethodNotAllowed},
		{"post healthz", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
		{"garbage", http.MethodPost, "/v1/analyze", "not json", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/analyze", `{"cores": 1, "bogus": true}`, http.StatusBadRequest},
		{"invalid set", http.MethodPost, "/v1/analyze", `{"cores": 0}`, http.StatusBadRequest},
		{"empty batch", http.MethodPost, "/v1/analyze/batch", `{"task_sets": []}`, http.StatusBadRequest},
		{"bad batch member", http.MethodPost, "/v1/analyze/batch", `{"task_sets": [{"cores": 0}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("error body malformed: %v", err)
			}
		})
	}
}

func TestUnschedulableIsSemanticError(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()

	// An RT band nothing can host: partitioning fails, so the
	// pipeline itself errors — 422, not 500.
	body := `{"cores": 1, "rt_tasks": [
		{"name": "a", "wcet": 90, "period": 100, "core": -1},
		{"name": "b", "wcet": 90, "period": 100, "core": -1}],
		"security_tasks": [{"name": "s", "wcet": 1, "max_period": 1000}]}`
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}

	// A set that partitions but admits no periods is NOT an error:
	// 200 with schedulable=false.
	tight := `{"cores": 1, "rt_tasks": [
		{"name": "a", "wcet": 70, "period": 100, "core": 0}],
		"security_tasks": [{"name": "s", "wcet": 500, "max_period": 600}]}`
	resp2, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(tight))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp2.Body)
		t.Fatalf("status %d: %s", resp2.StatusCode, b)
	}
	rep, err := hydrac.ReadReport(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedulable {
		t.Fatal("hopeless set reported schedulable")
	}
}

func TestOversizedBody(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()
	big := fmt.Sprintf(`{"cores": 1, "meta": {"pad": %q}}`, strings.Repeat("x", maxBodyBytes))
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// -sim-horizon attaches a simulation block to every report and shows
// up in the healthz summary.
func TestSimHorizonFlag(t *testing.T) {
	a, summary, err := buildAnalyzer(0, "best-fit", "", 5000)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a, Summary: summary}))
	defer srv.Close()

	code, body := postJSON(t, srv.URL+"/v1/analyze", roverJSON(t))
	if code != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", code, body)
	}
	rep, err := hydrac.ReadReport(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Simulation == nil || rep.Simulation.Horizon != 5000 {
		t.Fatalf("report simulation = %+v, want a block over horizon 5000", rep.Simulation)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Config map[string]any `json:"config"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if got := health.Config["sim_horizon"]; got != float64(5000) {
		t.Fatalf("healthz config sim_horizon = %v, want 5000", got)
	}
}

func TestRunFlagHandling(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	if !strings.Contains(errb.String(), "-addr") {
		t.Fatalf("usage not printed:\n%s", errb.String())
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
	if code := run([]string{"-heuristic", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad heuristic exited %d, want 2", code)
	}
	if code := run([]string{"-baselines", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad baseline exited %d, want 2", code)
	}
	if code := run([]string{"stray"}, &out, &errb); code != 2 {
		t.Fatalf("stray argument exited %d, want 2", code)
	}
	if code := run([]string{"-addr", "256.256.256.256:99999"}, &out, &errb); code != 1 {
		t.Fatalf("unbindable address exited %d, want 1", code)
	}
}

// postJSON posts body and decodes the status + raw bytes.
func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestSessionEndpoints(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()

	// Open a session on the rover set.
	code, body := postJSON(t, srv.URL+"/v1/session", roverJSON(t))
	if code != http.StatusOK {
		t.Fatalf("create: status %d: %s", code, body)
	}
	var created struct {
		Version   int            `json:"version"`
		SessionID string         `json:"session_id"`
		Report    *hydrac.Report `json:"report"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID == "" || created.Report == nil || !created.Report.Schedulable {
		t.Fatalf("create response: %s", body)
	}

	// Admit one monitor; the report must match a cold /v1/analyze of
	// the session's current set, byte for byte (volatile fields aside).
	delta := []byte(`{"add_security": [{"name": "extra_mon", "wcet": 2, "max_period": 9000, "priority": 99}]}`)
	code, body = postJSON(t, srv.URL+"/v1/session/"+created.SessionID+"/admit", delta)
	if code != http.StatusOK {
		t.Fatalf("admit: status %d: %s", code, body)
	}
	admitRep, err := hydrac.ReadReport(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !admitRep.Schedulable {
		t.Fatalf("extra monitor denied: %s", body)
	}

	// Fetch the materialized set and cross-check against /v1/analyze.
	resp, err := http.Get(srv.URL + "/v1/session/" + created.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	setBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %d: %s", resp.StatusCode, setBytes)
	}
	code, coldBytes := postJSON(t, srv.URL+"/v1/analyze", setBytes)
	if code != http.StatusOK {
		t.Fatalf("cold analyze of session set: %d", code)
	}
	coldRep, err := hydrac.ReadReport(bytes.NewReader(coldBytes))
	if err != nil {
		t.Fatal(err)
	}
	coldRep.Timing, coldRep.FromCache = nil, false
	var a, b bytes.Buffer
	hydrac.WriteReport(&a, admitRep)
	hydrac.WriteReport(&b, coldRep)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("session admit differs from cold analyze:\nsession: %s\ncold:    %s", a.Bytes(), b.Bytes())
	}

	// Unknown name in a delta: 422, state unchanged.
	code, body = postJSON(t, srv.URL+"/v1/session/"+created.SessionID+"/admit", []byte(`{"remove": ["ghost"]}`))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("removing a ghost: status %d: %s", code, body)
	}

	// Malformed delta: 400.
	code, _ = postJSON(t, srv.URL+"/v1/session/"+created.SessionID+"/admit", []byte(`{"add_rt": [{`))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed delta: status %d", code)
	}

	// Unknown session: 404.
	code, _ = postJSON(t, srv.URL+"/v1/session/deadbeef/admit", delta)
	if code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}

	// Wrong method on the session resource: 405.
	resp, err = http.Post(srv.URL+"/v1/session/"+created.SessionID, "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on session resource: status %d", resp.StatusCode)
	}
}

func TestSessionDenialKeepsStateOverHTTP(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()
	code, body := postJSON(t, srv.URL+"/v1/session", roverJSON(t))
	if code != http.StatusOK {
		t.Fatalf("create: %d", code)
	}
	var created struct {
		SessionID string `json:"session_id"`
	}
	json.Unmarshal(body, &created)

	// A monitor that saturates the platform: 200 with a denial report.
	code, body = postJSON(t, srv.URL+"/v1/session/"+created.SessionID+"/admit",
		[]byte(`{"add_security": [{"name": "hog", "wcet": 4000, "max_period": 4100, "priority": 99}]}`))
	if code != http.StatusOK {
		t.Fatalf("denial should be 200 + schedulable:false, got %d: %s", code, body)
	}
	rep, err := hydrac.ReadReport(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedulable {
		t.Fatal("hog admitted")
	}
	// The state must not contain the hog.
	resp, _ := http.Get(srv.URL + "/v1/session/" + created.SessionID)
	setBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(setBytes, []byte("hog")) {
		t.Fatal("denied delta leaked into the session state")
	}
}

// The golden conformance corpus, third surface: POST each corpus set
// to /v1/analyze and compare against the same goldens the library and
// CLI tests assert.
func TestCorpusGoldenHTTP(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range paths {
		if strings.HasSuffix(p, ".golden.json") {
			continue
		}
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			in, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			code, body := postJSON(t, srv.URL+"/v1/analyze", in)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			rep, err := hydrac.ReadReport(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			rep.Timing, rep.FromCache = nil, false
			var got bytes.Buffer
			hydrac.WriteReport(&got, rep)
			want, err := os.ReadFile(strings.TrimSuffix(p, ".json") + ".golden.json")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("HTTP report drifted from golden:\n got: %s\nwant: %s", got.Bytes(), want)
			}
		})
		checked++
	}
	if checked < 5 {
		t.Fatalf("corpus too thin: %d sets", checked)
	}
}

// -sessions 0 disables the session endpoints: creating must fail
// loudly instead of handing out an id nothing will retain, and the
// session and handoff routes say the same.
func TestSessionsDisabled(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a}))
	defer srv.Close()
	for _, path := range []string{"/v1/session", "/v1/session/deadbeef/admit", "/v1/handoff"} {
		code, body := postJSON(t, srv.URL+path, roverJSON(t))
		if code != http.StatusNotFound {
			t.Fatalf("POST %s with sessions disabled: status %d: %s", path, code, body)
		}
		if !bytes.Contains(body, []byte("disabled")) {
			t.Fatalf("POST %s: error should say sessions are disabled: %s", path, body)
		}
	}
}

// Without -data-dir hydrad keeps sessions in a throwaway store under
// TMPDIR: a session pushed out of the -sessions window re-hydrates from
// its files, cleanup removes the directory, and -sessions 0 opens no
// store at all.
func TestOpenStoreTemporary(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	st, cleanup, err := openStore(a, "", store.Options{MaxLive: 1, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("no store opened for -sessions 1 without -data-dir")
	}
	if dirents, _ := os.ReadDir(tmp); len(dirents) != 1 {
		t.Fatalf("TMPDIR holds %d entries, want the store's directory", len(dirents))
	}
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a, Store: st}))
	create := func() string {
		code, body := postJSON(t, srv.URL+"/v1/session", roverJSON(t))
		var created struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &created); code != http.StatusOK || err != nil || created.SessionID == "" {
			t.Fatalf("create: status %d: %s", code, body)
		}
		return created.SessionID
	}
	read := func(id string) []byte {
		resp, err := http.Get(srv.URL + "/v1/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET session %s: status %d: %s", id, resp.StatusCode, body)
		}
		return body
	}
	first := create()
	want := read(first)
	create() // pushes the first session out of the live window
	if got := read(first); !bytes.Equal(got, want) {
		t.Fatalf("re-hydrated session differs:\ngot:  %s\nwant: %s", got, want)
	}
	srv.Close()
	cleanup()
	if dirents, _ := os.ReadDir(tmp); len(dirents) != 0 {
		t.Fatalf("cleanup left %d entries in TMPDIR", len(dirents))
	}

	st, cleanup, err = openStore(a, "", store.Options{MaxLive: 0})
	if err != nil || st != nil {
		t.Fatalf("-sessions 0 without -data-dir: store %v, err %v; want none", st, err)
	}
	cleanup()
}

// The commit verdict travels in the X-Hydra-Admitted header so the
// envelope body stays byte-identical to a cold analysis.
func TestAdmitHeaderCarriesVerdict(t *testing.T) {
	srv := httptest.NewServer(testHandler(t))
	defer srv.Close()
	_, body := postJSON(t, srv.URL+"/v1/session", roverJSON(t))
	var created struct {
		SessionID string `json:"session_id"`
	}
	json.Unmarshal(body, &created)
	post := func(delta string) (string, bool) {
		resp, err := http.Post(srv.URL+"/v1/session/"+created.SessionID+"/admit", "application/json", strings.NewReader(delta))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rep, err := hydrac.ReadReport(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Hydra-Admitted"), rep.Schedulable
	}
	if h, sched := post(`{"add_security": [{"name": "ok_mon", "wcet": 2, "max_period": 9000, "priority": 99}]}`); h != "true" || !sched {
		t.Fatalf("committed admit: header %q sched %v", h, sched)
	}
	if h, sched := post(`{"add_security": [{"name": "hog", "wcet": 4000, "max_period": 4100, "priority": 98}]}`); h != "false" || sched {
		t.Fatalf("denied admit: header %q sched %v", h, sched)
	}
	// Removal from a schedulable state: committed and schedulable.
	if h, _ := post(`{"remove": ["ok_mon"]}`); h != "true" {
		t.Fatalf("removal: header %q", h)
	}
}

func TestPprofListenerRejectsNonLoopback(t *testing.T) {
	for _, addr := range []string{"0.0.0.0:0", "192.168.1.10:6060", "example.com:6060", "bad"} {
		if ln, err := listenPprof(addr); err == nil {
			ln.Close()
			t.Fatalf("listenPprof(%q) accepted a non-loopback address", addr)
		}
	}
}

func TestPprofListenerAndHandler(t *testing.T) {
	ln, err := listenPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &http.Server{Handler: pprofHandler()}
	go srv.Serve(ln)
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("empty pprof cmdline response")
	}
}

func TestRunRejectsNonLoopbackPprof(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-pprof", "0.0.0.0:0", "-addr", "127.0.0.1:0"}, &out, &errOut); code != 1 {
		t.Fatalf("run with non-loopback -pprof returned %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "loopback") {
		t.Fatalf("error does not explain the loopback restriction: %s", errOut.String())
	}
}

// -peers/-self are validated together, before any listener opens.
func TestFleetFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-peers", "http://a:1,http://b:1"}, &out, &errb); code != 2 {
		t.Fatalf("-peers without -self exited %d, want 2", code)
	}
	if code := run([]string{"-self", "http://a:1"}, &out, &errb); code != 2 {
		t.Fatalf("-self without -peers exited %d, want 2", code)
	}
	if code := run([]string{"-peers", "http://a:1,http://b:1", "-self", "http://c:1"}, &out, &errb); code != 2 {
		t.Fatalf("-self outside -peers exited %d, want 2", code)
	}
	if code := run([]string{"-peers", "http://a:1", "-self", "http://a:1"}, &out, &errb); code != 2 {
		t.Fatalf("fleet of one exited %d, want 2", code)
	}
}

// buildFleet normalizes schemeless addresses the same way the fleet
// package does, so -peers 127.0.0.1:8080,... just works.
func TestBuildFleetNormalizes(t *testing.T) {
	fl, err := buildFleet("127.0.0.1:8080, 127.0.0.1:8081/", "127.0.0.1:8081", -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Self() != "http://127.0.0.1:8081" {
		t.Fatalf("self = %q", fl.Self())
	}
	if len(fl.Peers()) != 2 {
		t.Fatalf("peers = %v", fl.Peers())
	}
	fl2, err := buildFleet("", "", -1, nil)
	if err != nil || fl2 != nil {
		t.Fatalf("empty flags: %v, %v; want nil fleet", fl2, err)
	}
}
