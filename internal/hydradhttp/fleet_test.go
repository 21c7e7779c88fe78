package hydradhttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hydrac"
	"hydrac/internal/fleet"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/store"
)

// fleetNode is one in-process fleet member: a real listener (the URL
// is needed before the handler exists, since every handler's fleet
// view must carry all URLs) behind a swappable handler. mw, when set,
// wraps every request — fault-injection tests use it to sabotage
// specific exchanges (e.g. eat a handoff acknowledgement).
type fleetNode struct {
	srv     *httptest.Server
	handler atomic.Pointer[hydradhttp.Handler]
	mw      atomic.Pointer[func(http.Handler) http.Handler]
	fl      *fleet.Fleet
	st      *store.Store
}

func (n *fleetNode) url() string { return n.srv.URL }

// startFleetPair boots two fleet members, each with its own store.
func startFleetPair(t *testing.T) (a, b *fleetNode) {
	t.Helper()
	an, err := hydrac.New(hydrac.WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*fleetNode{{}, {}}
	for _, n := range nodes {
		n := n
		n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := n.handler.Load()
			if h == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			var serve http.Handler = h
			if wrap := n.mw.Load(); wrap != nil {
				serve = (*wrap)(serve)
			}
			serve.ServeHTTP(w, r)
		}))
		t.Cleanup(n.srv.Close)
	}
	peers := []string{nodes[0].url(), nodes[1].url()}
	for _, n := range nodes {
		fl, err := fleet.New(fleet.Options{Self: n.url(), Peers: peers, ProbeEvery: -1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		n.fl = fl
		st, err := store.Open(t.TempDir(), an, store.Options{ProbeEvery: -1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		n.st = st
		n.handler.Store(hydradhttp.NewHandler(hydradhttp.Config{
			Analyzer: an, CacheSize: 16, Store: st, Fleet: fl, Logf: t.Logf,
		}))
	}
	return nodes[0], nodes[1]
}

// noRedirect returns a client that surfaces 307s instead of following
// them, so tests can assert the redirect envelope itself.
func noRedirect() *http.Client {
	return &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
}

func TestFleetCreateMintsSelfOwnedIDs(t *testing.T) {
	a, b := startFleetPair(t)
	for i := 0; i < 8; i++ {
		id := createSession(t, a.url())
		if !a.fl.Owns(id) {
			t.Fatalf("node A minted id %s it does not own", id)
		}
		if b.fl.Owns(id) {
			t.Fatalf("both nodes claim id %s", id)
		}
	}
}

// A non-owner answers 307 + X-Hydra-Owner + Location, and following
// the Location serves the session — both for GET and for POST admit
// (307 preserves method and body).
func TestFleetNonOwnerRedirects(t *testing.T) {
	a, b := startFleetPair(t)
	id := createSession(t, a.url())

	nr := noRedirect()
	resp, err := nr.Get(b.url() + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("GET on non-owner: %d, want 307", resp.StatusCode)
	}
	if owner := resp.Header.Get("X-Hydra-Owner"); owner != a.url() {
		t.Fatalf("X-Hydra-Owner = %q, want %q", owner, a.url())
	}
	if loc := resp.Header.Get("Location"); loc != a.url()+"/v1/session/"+id {
		t.Fatalf("Location = %q", loc)
	}

	// A standards-following client (http.Post replays the body on 307)
	// admits through the wrong node transparently.
	resp2, body := post(t, b.url()+"/v1/session/"+id+"/admit", admitBody(t, 0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("admit via non-owner: %d %s", resp2.StatusCode, body)
	}
	if resp2.Header.Get("X-Hydra-Admitted") != "true" {
		t.Fatalf("delta not admitted: %s", body)
	}
}

// Drain hands every session to the peer; the drained node then
// redirects session traffic and new creates, and its healthz says
// draining.
func TestFleetDrainHandsOffAndRedirects(t *testing.T) {
	a, b := startFleetPair(t)
	var ids []string
	for i := 0; i < 3; i++ {
		id := createSession(t, a.url())
		resp, body := post(t, a.url()+"/v1/session/"+id+"/admit", admitBody(t, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit: %d %s", resp.StatusCode, body)
		}
		ids = append(ids, id)
	}
	// Control states, captured before the drain.
	want := map[string][]byte{}
	for _, id := range ids {
		resp, body := get(t, a.url()+"/v1/session/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-drain GET: %d", resp.StatusCode)
		}
		want[id] = body
	}

	moved, kept := a.handler.Load().Drain(context.Background())
	if moved != len(ids) || kept != 0 {
		t.Fatalf("Drain moved %d kept %d, want %d/0", moved, kept, len(ids))
	}

	// The drained node's healthz reports draining.
	resp, body := get(t, a.url()+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var hz struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
		Fleet  struct {
			Self  string `json:"self"`
			Peers []struct {
				Addr  string `json:"addr"`
				State string `json:"state"`
			} `json:"peers"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz body: %v (%s)", err, body)
	}
	if hz.Status != "draining" {
		t.Fatalf("healthz status %q, want draining", hz.Status)
	}
	if hz.Fleet.Self != a.url() || len(hz.Fleet.Peers) != 2 {
		t.Fatalf("healthz fleet block: %+v", hz.Fleet)
	}

	// Sessions now live on B, bit-identical, and A redirects to B.
	nr := noRedirect()
	for _, id := range ids {
		resp, err := nr.Get(a.url() + "/v1/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("drained node GET: %d, want 307", resp.StatusCode)
		}
		if owner := resp.Header.Get("X-Hydra-Owner"); owner != b.url() {
			t.Fatalf("post-drain owner %q, want %q", owner, b.url())
		}
		got, body := get(t, b.url()+"/v1/session/"+id)
		if got.StatusCode != http.StatusOK {
			t.Fatalf("GET on new owner: %d %s", got.StatusCode, body)
		}
		if !bytes.Equal(body, want[id]) {
			t.Fatalf("session %s state diverged across handoff:\ngot  %s\nwant %s", id, body, want[id])
		}
	}

	// New creates on the draining node redirect to a healthy peer.
	resp3, err := nr.Post(a.url()+"/v1/session", "application/json", bytes.NewReader(baseBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("create on draining node: %d, want 307", resp3.StatusCode)
	}
	if owner := resp3.Header.Get("X-Hydra-Owner"); owner != b.url() {
		t.Fatalf("create redirect owner %q", owner)
	}

	// And a draining node refuses incoming handoffs.
	hreq, _ := json.Marshal(map[string]any{
		"version": 1, "session_id": "bounce", "next_fit": 0,
		"set": json.RawMessage(baseBody(t)), "deltas": []json.RawMessage{},
	})
	resp4, _ := post(t, a.url()+"/v1/handoff", hreq)
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("handoff to draining node: %d, want 503", resp4.StatusCode)
	}
}

// A handoff POSTed by hand imports once: a tokenless duplicate of the
// id conflicts, and a wire version this build does not speak is a 400.
func TestFleetHandoffImportConflicts(t *testing.T) {
	a, b := startFleetPair(t)
	id := createSession(t, b.url())
	for i := 0; i < 2; i++ {
		resp, body := post(t, b.url()+"/v1/session/"+id+"/admit", admitBody(t, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit: %d %s", resp.StatusCode, body)
		}
	}
	_, wantBody := get(t, b.url()+"/v1/session/"+id)

	// Hand a copy of the session to A by hand: ship the CURRENT set as
	// snapshot with no deltas.
	hreq, _ := json.Marshal(map[string]any{
		"version": 1, "session_id": "copy-" + id, "next_fit": 0,
		"set": json.RawMessage(wantBody), "deltas": []json.RawMessage{},
	})
	resp, body := post(t, a.url()+"/v1/handoff", hreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: %d %s", resp.StatusCode, body)
	}
	// Duplicate import conflicts.
	resp2, _ := post(t, a.url()+"/v1/handoff", hreq)
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate handoff: %d, want 409", resp2.StatusCode)
	}
	// Bad version rejected.
	bad, _ := json.Marshal(map[string]any{"version": 99, "session_id": "x", "set": json.RawMessage(wantBody)})
	resp3, _ := post(t, a.url()+"/v1/handoff", bad)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad version: %d, want 400", resp3.StatusCode)
	}
}

// healthz carries uptime_seconds on plain single-node daemons too.
func TestHealthzUptime(t *testing.T) {
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a}))
	defer srv.Close()
	_, body := get(t, srv.URL+"/healthz")
	var hz struct {
		Uptime *float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Uptime == nil || *hz.Uptime < 0 {
		t.Fatalf("uptime_seconds missing or negative in %s", body)
	}
}

// seedSessions creates n sessions on node a with one admitted delta
// each and returns their ids and control bodies.
func seedSessions(t *testing.T, a *fleetNode, n int) (ids []string, want map[string][]byte) {
	t.Helper()
	want = map[string][]byte{}
	for i := 0; i < n; i++ {
		id := createSession(t, a.url())
		resp, body := post(t, a.url()+"/v1/session/"+id+"/admit", admitBody(t, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit: %d %s", resp.StatusCode, body)
		}
		resp2, body2 := get(t, a.url()+"/v1/session/"+id)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("pre-drain GET: %d", resp2.StatusCode)
		}
		ids = append(ids, id)
		want[id] = body2
	}
	return ids, want
}

// The 'no twins' guarantee under a lost acknowledgement: the receiver
// durably commits the import but the sender never sees the 200 (eaten
// here by a middleware that answers 500 instead). The sender's retry
// carries the same handoff token, so the receiver acknowledges the
// duplicate and the session ends up on exactly one node — previously
// the retry answered 409, the sender kept its copy, and both nodes
// held diverging twins.
func TestFleetHandoffRetryAfterLostAck(t *testing.T) {
	a, b := startFleetPair(t)
	ids, want := seedSessions(t, a, 2)

	var eaten atomic.Int32
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/handoff" && eaten.Add(1) == 1 {
				// Commit for real, then lose the acknowledgement.
				next.ServeHTTP(httptest.NewRecorder(), r)
				http.Error(w, "ack lost", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	b.mw.Store(&mw)

	moved, kept := a.handler.Load().Drain(context.Background())
	if moved != len(ids) || kept != 0 {
		t.Fatalf("Drain moved %d kept %d, want %d/0", moved, kept, len(ids))
	}
	if eaten.Load() < 2 {
		t.Fatalf("sabotage never triggered a retry (saw %d handoff POSTs)", eaten.Load())
	}
	// Exactly one node holds each session: B serves it bit-identically,
	// A redirects (its copy is gone, not kept).
	nr := noRedirect()
	for _, id := range ids {
		got, body := get(t, b.url()+"/v1/session/"+id)
		if got.StatusCode != http.StatusOK {
			t.Fatalf("GET on receiver: %d %s", got.StatusCode, body)
		}
		if !bytes.Equal(body, want[id]) {
			t.Fatalf("session %s diverged across retried handoff:\ngot  %s\nwant %s", id, body, want[id])
		}
		resp, err := nr.Get(a.url() + "/v1/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("sender answered %d for moved session, want 307 (twin kept alive?)", resp.StatusCode)
		}
	}
}

// When every POST acknowledgement is lost and the retry budget runs
// dry, the sender's last resort is the confirm probe: GET /v1/handoff
// asks the receiver whether the transfer committed, and a definite
// yes lets the drain surrender the local copy instead of keeping a
// twin.
func TestFleetHandoffConfirmRescuesLostAcks(t *testing.T) {
	a, b := startFleetPair(t)
	ids, want := seedSessions(t, a, 1)

	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/handoff" {
				next.ServeHTTP(httptest.NewRecorder(), r)
				http.Error(w, "ack lost", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	b.mw.Store(&mw)

	moved, kept := a.handler.Load().Drain(context.Background())
	if moved != 1 || kept != 0 {
		t.Fatalf("Drain moved %d kept %d, want 1/0 (confirm probe should rescue the handoff)", moved, kept)
	}
	got, body := get(t, b.url()+"/v1/session/"+ids[0])
	if got.StatusCode != http.StatusOK || !bytes.Equal(body, want[ids[0]]) {
		t.Fatalf("receiver state after confirm-rescued handoff: %d %s", got.StatusCode, body)
	}
}

// A failover successor that holds no copy answers 503, not a redirect:
// the only durable copy is on the downed owner, and 307ing to the next
// healthy peer — equally copyless — would make two healthy nodes
// redirect each other until the client's hop cap.
func TestFleetFailoverWithoutCopyAnswers503(t *testing.T) {
	a, b := startFleetPair(t)
	id := createSession(t, a.url())

	// Take the owner down and let B's prober notice (DownAfter = 2).
	a.srv.Close()
	for i := 0; i < 2; i++ {
		b.fl.ProbeOnce(context.Background())
	}

	resp, err := noRedirect().Get(b.url() + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failover miss answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("owner-down 503 carries no Retry-After")
	}
}

// An aborted drain accounts for every session exactly once:
// moved + kept must equal the starting population, with the
// not-yet-processed remainder counted as kept.
func TestFleetDrainAbortAccounting(t *testing.T) {
	a, b := startFleetPair(t)
	const n = 4
	seedSessions(t, a, n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var posts atomic.Int32
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/handoff" && posts.Add(1) == 3 {
				// Abort the drain mid-flight: the 3rd transfer fails
				// and everything after it stays unprocessed.
				cancel()
				http.Error(w, "aborting", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	b.mw.Store(&mw)

	moved, kept := a.handler.Load().Drain(ctx)
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	if moved+kept != n {
		t.Fatalf("moved %d + kept %d = %d, want the full population %d", moved, kept, moved+kept, n)
	}
}

// The handoff token over the wire: a duplicate of a committed transfer
// is acknowledged, a mismatched token conflicts, and the confirm probe
// answers exactly for the committed token.
func TestFleetHandoffTokenOverHTTP(t *testing.T) {
	a, _ := startFleetPair(t)

	mk := func(id, token string) []byte {
		body, _ := json.Marshal(map[string]any{
			"version": 1, "session_id": id, "token": token, "next_fit": 0,
			"set": json.RawMessage(baseBody(t)), "deltas": []json.RawMessage{},
		})
		return body
	}
	resp, body := post(t, a.url()+"/v1/handoff", mk("tok-sess", "tok-A"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: %d %s", resp.StatusCode, body)
	}
	// Same token: acknowledged duplicate.
	resp2, body2 := post(t, a.url()+"/v1/handoff", mk("tok-sess", "tok-A"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retried handoff with matching token: %d %s, want 200", resp2.StatusCode, body2)
	}
	// Different token: genuine conflict.
	resp3, _ := post(t, a.url()+"/v1/handoff", mk("tok-sess", "tok-B"))
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("handoff with mismatched token: %d, want 409", resp3.StatusCode)
	}

	// The confirm probe: yes for the committed token, no otherwise.
	check := func(query string, want int) {
		t.Helper()
		resp, err := http.Get(a.url() + "/v1/handoff" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET /v1/handoff%s: %d, want %d", query, resp.StatusCode, want)
		}
	}
	check("?session=tok-sess&token=tok-A", http.StatusOK)
	check("?session=tok-sess&token=tok-B", http.StatusNotFound)
	check("?session=other&token=tok-A", http.StatusNotFound)
	check("?session=tok-sess", http.StatusBadRequest)

	// Unsupported methods still 405.
	req, _ := http.NewRequest(http.MethodPut, a.url()+"/v1/handoff", nil)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/handoff: %d, want 405", resp4.StatusCode)
	}
}
