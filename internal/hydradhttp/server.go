// Package hydradhttp is the HTTP surface of the hydrad daemon: the
// routes, error mapping, pooled body handling, and duplicate-request
// byte cache that cmd/hydrad serves. It lives in its own package so
// every consumer of the service hot path mounts the SAME handler —
// the daemon binary, cmd/hydrabench's in-process smoke mode, and the
// regression harness's self-test targets — instead of keeping
// hand-rolled mirrors in sync.
package hydradhttp

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"hydrac"
	"hydrac/internal/fleet"
	"hydrac/internal/lru"
	"hydrac/internal/store"
)

// MaxBodyBytes bounds request bodies; the largest paper-scale task
// sets encode to a few kilobytes, so a megabyte leaves two orders of
// magnitude of headroom while keeping hostile payloads cheap.
const MaxBodyBytes = 1 << 20

// Config assembles a handler; see NewHandler.
type Config struct {
	// Analyzer runs every analysis; required.
	Analyzer *hydrac.Analyzer
	// Summary is echoed on /healthz.
	Summary map[string]any
	// MaxSessions is ignored: the Store's own MaxLive bounds live
	// sessions. It remains so existing callers keep compiling.
	MaxSessions int
	// CacheSize bounds the duplicate-request byte cache (0 disables
	// it, matching a cacheless analyzer where replayable hit envelopes
	// never exist). The cache is also off, said once through Logf,
	// where AES-GCM is unavailable (GODEBUG=fips140=only).
	CacheSize int
	// Store holds every session: creation snapshots to disk, commits
	// append to a WAL before acknowledgement, and LRU-evicted sessions
	// re-hydrate transparently on next touch. Nil disables the session
	// and handoff routes (404).
	Store *store.Store
	// Logf receives operational log lines (handoffs, drain);
	// nil is quiet.
	Logf func(format string, args ...any)

	// Fleet, when non-nil, makes this node one member of a hydrad
	// peer group: session ids are owned by consistent-hash ring
	// position, requests for a session this node does not own answer
	// 307 + X-Hydra-Owner, POST /v1/handoff imports sessions streamed
	// from a draining peer, and Handler.Drain hands local sessions
	// off. Nil keeps the exact single-node behaviour.
	Fleet *fleet.Fleet

	// MaxInflight bounds concurrently executing requests; 0 disables
	// the admission gate (unlimited, the pre-gate behaviour).
	MaxInflight int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxInflight; anything past executing+waiting is shed with 429.
	// Only meaningful with MaxInflight > 0.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed (default DefaultQueueWait).
	QueueWait time.Duration
	// RequestTimeout, when positive, deadlines every gated request's
	// context; expiry surfaces as 503.
	RequestTimeout time.Duration
}

// server carries the shared analyzer behind the HTTP surface.
type server struct {
	analyzer *hydrac.Analyzer
	summary  map[string]any
	// store is the session tier; nil disables sessions.
	store *store.Store
	// respCache short-circuits exact-byte duplicate /v1/analyze
	// requests: body tag → the canonical cache-hit envelope bytes.
	// A hit costs one GHASH pass over the body and one Write — no
	// task-set decode, no report marshal. Entries are only ever
	// populated from analyzer cache hits, so the replayed bytes are
	// the canonical envelope (FromCache true, no per-call Timing),
	// which is identical for every duplicate of those bytes; analysis
	// is deterministic, so entries never go stale.
	//
	// The key is bodyTag's GCM tag with an empty plaintext and the
	// body as additional data under the fixed tagNonce, which is
	// GHASH_H(body) XOR E_K(J0). The nonce fixes the mask E_K(J0) for
	// every body, so two tags are equal exactly when their GHASH
	// values are. GHASH is a polynomial hash keyed by H = E_K(0¹²⁸),
	// and over the random per-handler key two distinct bodies of at
	// most L bytes collide with probability at most
	// (⌈L/16⌉+1)/2¹²⁸, about 2⁻¹¹² at MaxBodyBytes. The tag never
	// leaves the process — it is not written, logged or shown on
	// healthz — so the fixed nonce reveals nothing, and a client
	// learns only hit or miss, one guess per request.
	respCache *lru.Cache[[16]byte, []byte]
	// bodyTag computes respCache keys; nil exactly when respCache is.
	// A cipher.AEAD keeps no per-call state (its key schedule and
	// GHASH table are read-only after construction), so one value
	// serves every request goroutine.
	bodyTag cipher.AEAD
	logf    func(format string, args ...any)
	// gate is the overload-protection front; always non-nil (a
	// zero-limit gate passes everything through) so healthz can
	// report admission stats unconditionally.
	gate *gate
	// fleet is the peer-group view; nil on a single node.
	fleet *fleet.Fleet
	// start anchors healthz's monotonic uptime_seconds.
	start time.Time
}

// Handler is the assembled hydrad HTTP surface. It serves requests
// through the admission gate and, on a fleet member, owns the drain
// path (Drain).
type Handler struct {
	srv *server
}

// ServeHTTP dispatches through the admission gate.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.srv.gate.ServeHTTP(w, r)
}

// NewHandler wires the routes; cmd/hydrad serves it and tests mount
// it on httptest servers.
func NewHandler(cfg Config) *Handler {
	s := &server{
		analyzer: cfg.Analyzer,
		summary:  cfg.Summary,
		store:    cfg.Store,
		logf:     cfg.Logf,
		fleet:    cfg.Fleet,
		start:    time.Now(),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if cfg.CacheSize > 0 {
		if tagger, err := newBodyTagger(); err != nil {
			// GODEBUG=fips140=only refuses GCM with caller-chosen
			// nonces. Without the byte cache, duplicates are still
			// answered from the analyzer cache.
			s.logf("exact-byte response cache disabled: %v", err)
		} else {
			s.respCache = lru.New[[16]byte, []byte](cfg.CacheSize)
			s.bodyTag = tagger
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.analyze)
	mux.HandleFunc("/v1/analyze/batch", s.analyzeBatch)
	mux.HandleFunc("/v1/session", s.sessionCreate)
	mux.HandleFunc("/v1/session/", s.sessionRoute)
	mux.HandleFunc("/v1/handoff", s.handoff)
	mux.HandleFunc("/healthz", s.healthz)
	s.gate = newGate(mux, cfg)
	return &Handler{srv: s}
}

// tagNonce is the nonce of every body tag: fixed for the handler's
// life so that equal tags mean equal GHASH values (see respCache).
var tagNonce [12]byte

// newBodyTagger builds the AES-GCM instance whose tags key respCache,
// under a 128-bit key drawn for this handler alone.
func newBodyTagger() (cipher.AEAD, error) {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("drawing the body-tag key: %w", err)
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// bodyPool recycles request read buffers: every handler slurps the
// (bounded) body once, decodes from the buffer, and returns it, so
// steady-state traffic stops allocating per-request scratch space.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the whole (size-capped) request body into a pooled
// buffer. The caller must putBody the buffer when done with its
// bytes.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		bodyPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

func putBody(buf *bytes.Buffer) { bodyPool.Put(buf) }

// batchRequest is the body of POST /v1/analyze/batch. Each element is
// one task set in the standard file schema.
type batchRequest struct {
	TaskSets []json.RawMessage `json:"task_sets"`
}

func (s *server) analyze(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, badRequestStatus(err), err)
		return
	}
	defer putBody(buf)

	// Exact-byte duplicate of a previously analysed request: one body
	// tag, one Write. Admission-control traffic is dominated by
	// re-posts of the same deployment manifest, so this is the
	// steady-state path. The tag is sealed into the body buffer's
	// spare capacity, which ReadFrom almost always leaves, and copied
	// to the stack, so keying allocates nothing; sealing into key[:0]
	// would move key to the heap.
	var key [16]byte
	if s.respCache != nil {
		copy(key[:], s.bodyTag.Seal(buf.AvailableBuffer(), tagNonce[:], nil, buf.Bytes()))
		if body, ok := s.respCache.Get(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
	}

	ts, err := hydrac.DecodeTaskSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		writeError(w, badRequestStatus(err), err)
		return
	}
	body, fromCache, err := s.analyzer.AnalyzeEnvelope(r.Context(), ts)
	if err != nil {
		writeAnalysisError(w, r, err)
		return
	}
	if s.respCache != nil && fromCache {
		// Only hit envelopes are replayable: they carry no per-call
		// Timing, so every future duplicate of these bytes gets the
		// identical response.
		s.respCache.Add(key, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *server) analyzeBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, badRequestStatus(err), err)
		return
	}
	defer putBody(buf)
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, badRequestStatus(err), fmt.Errorf("decoding batch request: %w", err))
		return
	}
	if len(req.TaskSets) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch request carries no task sets"))
		return
	}
	sets := make([]*hydrac.TaskSet, len(req.TaskSets))
	for i, raw := range req.TaskSets {
		ts, err := hydrac.DecodeTaskSet(bytes.NewReader(raw))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("task set %d: %w", i, err))
			return
		}
		sets[i] = ts
	}
	reps, err := s.analyzer.AnalyzeBatch(r.Context(), sets)
	if err != nil {
		writeAnalysisError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	hydrac.WriteReports(w, reps)
}

// sessionCreateResponse is the body of a successful POST /v1/session:
// the standard report envelope fields plus the session id.
type sessionCreateResponse struct {
	Version   int            `json:"version"`
	SessionID string         `json:"session_id"`
	Report    *hydrac.Report `json:"report"`
}

func (s *server) sessionCreate(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if s.store == nil {
		writeSessionsDisabled(w)
		return
	}
	if s.fleet != nil && s.fleet.Draining() {
		// A draining node takes no new sessions: it is busy shipping
		// the ones it has. Send the client to a healthy peer.
		if target := s.fleet.CreateTarget(); target != "" {
			s.redirect(w, r, target)
			return
		}
		writeError(w, http.StatusServiceUnavailable, errors.New("node is draining and no healthy peer is available for new sessions"))
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeError(w, badRequestStatus(err), err)
		return
	}
	ts, err := hydrac.DecodeTaskSet(bytes.NewReader(buf.Bytes()))
	putBody(buf)
	if err != nil {
		writeError(w, badRequestStatus(err), err)
		return
	}
	id, err := s.newOwnedSessionID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Create snapshots the base set and opens the WAL before the id
	// is handed out, so an acknowledged session is already on disk.
	rep, err := s.store.Create(r.Context(), id, ts)
	if err != nil {
		if errors.Is(err, store.ErrStorage) {
			writeStorageError(w, err)
			return
		}
		writeAnalysisError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sessionCreateResponse{Version: hydrac.ReportVersion, SessionID: id, Report: rep})
}

// sessionRoute dispatches /v1/session/{id} and /v1/session/{id}/admit.
func (s *server) sessionRoute(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeSessionsDisabled(w)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	id, op, _ := strings.Cut(rest, "/")
	if s.fleet != nil && !s.store.Has(id) {
		// Fleet routing: possession beats the ring. A session held
		// locally is always served locally — after a drain handoff the
		// receiver holds ids whose raw ring owner is elsewhere, and
		// redirecting those would bounce forever. Only a local miss
		// defers to the ring: the first healthy node in successor
		// order serves the id, everyone else answers a redirect.
		if addr, isSelf := s.fleet.Route(id); !isSelf {
			s.redirect(w, r, addr)
			return
		}
	}
	// An LRU-evicted session re-hydrates from disk inside Acquire;
	// release pins it live for exactly this operation.
	sess, release, err := s.store.Acquire(r.Context(), id)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrMoved):
			// Handed off during a drain: the new owner has it.
			if s.redirectToHandoffTarget(w, r, id) {
				return
			}
			writeError(w, http.StatusGone, fmt.Errorf("session %q was handed off to another node and no healthy peer is known for it", id))
		case errors.Is(err, store.ErrNotFound):
			if s.writeFailoverUnavailable(w, id) {
				// This node serves the id only as a failover successor
				// (the raw owner is down) and has no local copy: the
				// downed owner holds the only durable copy, so this is
				// a clear 503, not a 404 — and not a redirect to
				// another copyless peer that would 307 straight back.
				return
			}
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		case errors.Is(err, store.ErrStorage):
			writeStorageError(w, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	defer release()
	switch op {
	case "":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		hydrac.EncodeTaskSet(w, sess.Set())
	case "admit":
		if !requirePost(w, r) {
			return
		}
		buf, err := readBody(w, r)
		if err != nil {
			writeError(w, badRequestStatus(err), err)
			return
		}
		d, err := hydrac.DecodeDelta(bytes.NewReader(buf.Bytes()))
		putBody(buf)
		if err != nil {
			writeError(w, badRequestStatus(err), err)
			return
		}
		rep, admitted, err := sess.Admit(r.Context(), *d)
		if err != nil {
			if errors.Is(err, store.ErrStorage) {
				// The admission was fine; the disk was not. The commit
				// was aborted, so memory and WAL still agree — and the
				// background probe will re-arm the session once the
				// disk recovers, so this is a retryable 503, not a 500.
				writeStorageError(w, err)
				return
			}
			writeAnalysisError(w, r, err)
			return
		}
		// The envelope must stay byte-identical to a cold analysis of
		// the same set, so the commit verdict travels in a header.
		w.Header().Set("X-Hydra-Admitted", fmt.Sprintf("%v", admitted))
		w.Header().Set("Content-Type", "application/json")
		hydrac.WriteReport(w, rep)
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session operation %q", op))
	}
}

// newSessionID draws a 128-bit random id.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	status := "ok"
	body := map[string]any{
		"report_version": hydrac.ReportVersion,
		"config":         s.summary,
		"admission":      s.gate.healthSnapshot(),
		// Monotonic by construction: time.Since reads the monotonic
		// clock, so NTP slews never make uptime jump.
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if s.store != nil {
		h := s.store.Health()
		sessions := map[string]any{"count": h.Sessions}
		if !h.OK() {
			// Reads still work; mutations on degraded sessions 503
			// until the background probe re-arms them. Surfaced here
			// so operators see it before clients do.
			status = "degraded"
			sessions["degraded"] = h.Degraded
			sessions["degraded_reason"] = h.Reason
			sessions["degraded_since"] = h.Since.UTC().Format(time.RFC3339)
		}
		body["sessions"] = sessions
	}
	if s.fleet != nil {
		peers := make([]map[string]any, 0, len(s.fleet.Peers()))
		for _, v := range s.fleet.View() {
			peers = append(peers, map[string]any{"addr": v.Addr, "state": v.State})
		}
		body["fleet"] = map[string]any{"self": s.fleet.Self(), "peers": peers}
		if s.fleet.Draining() {
			// Draining outranks degraded: peers must stop sending new
			// sessions and handoffs here, which is exactly what their
			// probers do on seeing this status.
			status = "draining"
		}
	}
	body["status"] = status
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", http.MethodPost)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	return false
}

// writeAnalysisError maps pipeline failures: a server-imposed request
// deadline is a retryable 503, a client that hung up gets no response,
// and everything else is the client's input.
func writeAnalysisError(w http.ResponseWriter, r *http.Request, err error) {
	if ctxErr := r.Context().Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("request deadline expired mid-analysis: %w", err))
		}
		return // plain cancellation: the client hung up, the analysis was shed
	}
	writeError(w, http.StatusUnprocessableEntity, err)
}

// writeSessionsDisabled answers the session and handoff routes of a
// handler built without a Store (hydrad -sessions 0 without -data-dir):
// handing out a session id there would be a dead credential.
func writeSessionsDisabled(w http.ResponseWriter) {
	writeError(w, http.StatusNotFound, errors.New("sessions are disabled on this daemon (-sessions 0)"))
}

// writeStorageError maps a storage-tier fault to 503: the session is
// (or just became) degraded read-only, the background probe re-arms it
// once the disk recovers, so the client should retry — not treat it as
// a server bug. Retry-After is tuned to the probe cadence.
func writeStorageError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds(store.DefaultProbeEvery))
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("storage degraded (reads still served, mutations rejected until re-armed): %w", err))
}

// badRequestStatus distinguishes an oversized body (413) from plain
// bad input (400).
func badRequestStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
