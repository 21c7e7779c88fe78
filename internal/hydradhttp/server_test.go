package hydradhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hydrac"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/rover"
	"hydrac/internal/store"
)

func baseBody(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, rover.TaskSet()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func admitBody(t *testing.T, k int) []byte {
	t.Helper()
	d := hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: fmt.Sprintf("mon%02d", k), WCET: 1, MaxPeriod: 900000, Core: -1, Priority: 1000 + k,
	}}}
	var buf bytes.Buffer
	if err := hydrac.EncodeDelta(&buf, &d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func createSession(t *testing.T, srvURL string) string {
	t.Helper()
	resp, body := post(t, srvURL+"/v1/session", baseBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: %d %s", resp.StatusCode, body)
	}
	var cr struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.SessionID == "" {
		t.Fatalf("no session id in %s", body)
	}
	return cr.SessionID
}

// Eviction from the store's live window is invisible: the evicted
// session re-hydrates from disk on the next request, while an id that
// never existed is a plain 404.
func TestDurableModeEvictionIsTransparent(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), a, store.Options{MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, CacheSize: 8, Store: st,
	}))
	defer srv.Close()

	first := createSession(t, srv.URL)
	resp, wantSet := get(t, srv.URL+"/v1/session/"+first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET before eviction: %d", resp.StatusCode)
	}
	createSession(t, srv.URL) // evicts "first" from the live window

	resp, gotSet := get(t, srv.URL+"/v1/session/"+first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after eviction: %d %s", resp.StatusCode, gotSet)
	}
	if !bytes.Equal(gotSet, wantSet) {
		t.Fatal("re-hydrated session set differs from pre-eviction set")
	}
	// And it still accepts commits.
	resp, body := post(t, srv.URL+"/v1/session/"+first+"/admit", admitBody(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit after re-hydration: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, srv.URL+"/v1/session/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: got %d, want 404", resp.StatusCode)
	}
}

// The service-level restart property: a handler torn down and rebuilt
// over the same data dir serves every session byte-identically,
// including deltas committed right before the "crash".
func TestDurableModeSurvivesRestart(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, CacheSize: 8, Store: st,
	}))

	id := createSession(t, srv.URL)
	for k := 0; k < 3; k++ {
		resp, body := post(t, srv.URL+"/v1/session/"+id+"/admit", admitBody(t, k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit %d: %d %s", k, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Hydra-Admitted"); got != "true" {
			t.Fatalf("admit %d: X-Hydra-Admitted = %q", k, got)
		}
	}
	resp, wantSet := get(t, srv.URL+"/v1/session/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart GET: %d", resp.StatusCode)
	}
	// Simulate the crash: no graceful store Close — the WAL is fsynced
	// per commit, so the disk already holds everything acknowledged.
	srv.Close()

	st2, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	srv2 := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, CacheSize: 8, Store: st2,
	}))
	defer srv2.Close()

	resp, gotSet := get(t, srv2.URL+"/v1/session/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart GET: %d %s", resp.StatusCode, gotSet)
	}
	if !bytes.Equal(gotSet, wantSet) {
		t.Fatalf("post-restart set differs:\ngot:  %s\nwant: %s", gotSet, wantSet)
	}
	// healthz counts the recovered session.
	resp, hz := get(t, srv2.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hz), `"sessions":{"count":1}`) {
		t.Fatalf("healthz does not count the recovered session: %d %s", resp.StatusCode, hz)
	}
}

// Sessions created over HTTP land on disk under their minted id, and
// the store accepts those ids (hex) while the handler rejects ids the
// store would refuse as 404, never as a panic or directory escape.
func TestDurableModePathSafety(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer: a, CacheSize: 0, Store: st,
	}))
	defer srv.Close()

	id := createSession(t, srv.URL)
	if _, release, err := st.Acquire(context.Background(), id); err != nil {
		t.Fatalf("minted id %q not acquirable: %v", id, err)
	} else {
		release()
	}
	for _, evil := range []string{"..%2F..%2Fetc", "a%2Fb", "%2e%2e"} {
		resp, _ := get(t, srv.URL+"/v1/session/"+evil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("id %q: got %d, want 404", evil, resp.StatusCode)
		}
	}
}
