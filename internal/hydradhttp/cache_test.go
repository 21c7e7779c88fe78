package hydradhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sync"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
	"hydrac/internal/rover"
	"hydrac/internal/task"
)

// These tests drive the exact-byte response cache (server.respCache)
// through the handler. They live inside the package so they can read
// the cache's length and recompute a body's key.

// envelopeHead is the part of an analysis envelope the cache tests
// inspect; from_cache is omitted from the JSON when false.
type envelopeHead struct {
	Report struct {
		FromCache   bool   `json:"from_cache"`
		TaskSetHash string `json:"task_set_hash"`
	} `json:"report"`
}

func headOf(t *testing.T, env []byte) envelopeHead {
	t.Helper()
	var h envelopeHead
	if err := json.Unmarshal(env, &h); err != nil {
		t.Fatalf("decoding envelope: %v\n%s", err, env)
	}
	return h
}

func encodeSet(t *testing.T, ts *task.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, ts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newCachingHandler builds a handler whose analyzer cache and byte
// cache both hold size entries.
func newCachingHandler(t *testing.T, size int, logf func(string, ...any)) *Handler {
	t.Helper()
	a, err := hydrac.New(hydrac.WithCache(size))
	if err != nil {
		t.Fatal(err)
	}
	return NewHandler(Config{Analyzer: a, CacheSize: size, Logf: logf})
}

// serveAnalyze answers one POST /v1/analyze in-process.
func serveAnalyze(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func mustAnalyze(t *testing.T, h http.Handler, body []byte) []byte {
	t.Helper()
	code, env := serveAnalyze(h, body)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/analyze: %d %s", code, env)
	}
	return env
}

// cacheLen is the number of byte-cache entries; the cache must exist.
func cacheLen(t *testing.T, h *Handler) int {
	t.Helper()
	if h.srv.respCache == nil {
		t.Fatal("byte cache disabled")
	}
	return h.srv.respCache.Len()
}

// The second POST of a body is the analyzer hit that fills the byte
// cache; the third is replayed from it, byte-identical.
func TestByteCacheReplaysDuplicate(t *testing.T) {
	h := newCachingHandler(t, 8, nil)
	body := encodeSet(t, rover.TaskSet())

	if headOf(t, mustAnalyze(t, h, body)).Report.FromCache {
		t.Fatal("first POST answered from cache")
	}
	if n := cacheLen(t, h); n != 0 {
		t.Fatalf("byte cache holds %d entries after a cold analysis, want 0", n)
	}
	second := mustAnalyze(t, h, body)
	if !headOf(t, second).Report.FromCache {
		t.Fatalf("second POST is not an analyzer hit: %s", second)
	}
	third := mustAnalyze(t, h, body)
	if !bytes.Equal(third, second) {
		t.Fatalf("third POST differs from the second:\n%s\nwant:\n%s", third, second)
	}
	if n := cacheLen(t, h); n != 1 {
		t.Fatalf("byte cache holds %d entries, want 1", n)
	}
	// The one entry sits under this body's tag and holds the hit
	// envelope, so the third answer came from it.
	var key [16]byte
	copy(key[:], h.srv.bodyTag.Seal(nil, tagNonce[:], nil, body))
	if got, ok := h.srv.respCache.Get(key); !ok || !bytes.Equal(got, second) {
		t.Fatalf("byte cache entry under the body's tag: ok=%v, %s", ok, got)
	}
}

// The byte cache keys on exact bytes: the same set re-formatted is a
// byte-cache miss that the analyzer cache answers with the same
// envelope, and it becomes a second entry.
func TestByteCacheReformattedBodyIsSecondEntry(t *testing.T) {
	h := newCachingHandler(t, 8, nil)
	body := encodeSet(t, rover.TaskSet())
	mustAnalyze(t, h, body)
	hit := mustAnalyze(t, h, body)

	reformatted := append(append([]byte(" \n\t"), body...), "\n\n"...)
	for i := 0; i < 2; i++ {
		if got := mustAnalyze(t, h, reformatted); !bytes.Equal(got, hit) {
			t.Fatalf("re-formatted POST %d differs from the hit envelope:\n%s\nwant:\n%s", i, got, hit)
		}
	}
	if n := cacheLen(t, h); n != 2 {
		t.Fatalf("byte cache holds %d entries, want 2", n)
	}
}

// A body with one WCET changed misses both caches.
func TestByteCacheChangedSetMisses(t *testing.T) {
	h := newCachingHandler(t, 8, nil)
	ts := rover.TaskSet()
	body := encodeSet(t, ts)
	mustAnalyze(t, h, body)
	hit := headOf(t, mustAnalyze(t, h, body))

	ts.Security[0].WCET++
	changed := headOf(t, mustAnalyze(t, h, encodeSet(t, ts)))
	if changed.Report.FromCache {
		t.Fatal("changed set answered from cache")
	}
	if changed.Report.TaskSetHash == hit.Report.TaskSetHash {
		t.Fatalf("changed set kept task_set_hash %s", hit.Report.TaskSetHash)
	}
	if n := cacheLen(t, h); n != 1 {
		t.Fatalf("byte cache holds %d entries, want 1", n)
	}
}

// tableThreePool draws n distinct M=4 Table-3 sets cycling through
// utilisation groups 1..8, with the RT band unassigned so the
// Analyzer partitions it.
func tableThreePool(t *testing.T, n int) [][]byte {
	t.Helper()
	cfg := gen.TableThree(4)
	next := map[int]int{}
	seen := map[string]bool{}
	var pool [][]byte
	for k := 0; len(pool) < n; k++ {
		if k > 64*n {
			t.Fatalf("drew only %d distinct sets", len(pool))
		}
		group := 1 + len(pool)%8
		i := next[group]
		next[group] = i + 1
		ts, err := cfg.GenerateAt(1, group, i)
		if err != nil {
			continue
		}
		for j := range ts.RT {
			ts.RT[j].Core = -1
		}
		body := encodeSet(t, ts)
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		pool = append(pool, body)
	}
	return pool
}

// Eight goroutines share one handler, and so one body tagger, over a
// pool of distinct sets. After one cold pass, every answer must be
// byte-equal to the set's canonical hit envelope as a separate
// Analyzer renders it.
func TestByteCacheConcurrentHits(t *testing.T) {
	const poolSize, workers, rounds = 16, 8, 4
	pool := tableThreePool(t, poolSize)

	ref, err := hydrac.New(hydrac.WithCache(poolSize))
	if err != nil {
		t.Fatal(err)
	}
	canon := make([][]byte, len(pool))
	for i, body := range pool {
		ts, err := hydrac.DecodeTaskSet(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			env, hit, err := ref.AnalyzeEnvelope(context.Background(), ts)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 1 {
				if !hit {
					t.Fatalf("set %d: second reference analysis was not a hit", i)
				}
				canon[i] = append([]byte(nil), env...)
			}
		}
	}

	h := newCachingHandler(t, poolSize, nil)
	for _, body := range pool {
		mustAnalyze(t, h, body)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds*len(pool); r++ {
				i := (w*len(pool)/workers + r) % len(pool)
				code, env := serveAnalyze(h, pool[i])
				if code != http.StatusOK || !bytes.Equal(env, canon[i]) {
					t.Errorf("worker %d, set %d: status %d, envelope differs from the canonical hit:\n%s", w, i, code, env)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := cacheLen(t, h); n != len(pool) {
		t.Fatalf("byte cache holds %d entries, want %d", n, len(pool))
	}
}

// noGCMChild marks the re-executed test binary of
// TestByteCacheWithoutGCM.
const noGCMChild = "HYDRADHTTP_NO_GCM_CHILD"

// Under GODEBUG=fips140=only, cipher.NewGCM refuses caller-chosen
// nonces. The handler must still build and answer duplicates, from
// the analyzer cache alone, saying once that the byte cache is off.
// The child asserts the same either way, so the test holds whether or
// not the toolchain knows fips140.
func TestByteCacheWithoutGCM(t *testing.T) {
	if os.Getenv(noGCMChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestByteCacheWithoutGCM$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG=fips140=only", noGCMChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestByteCacheWithoutGCM")) {
			t.Fatalf("child under fips140=only: %v\n%s", err, out)
		}
		t.Logf("child under fips140=only:\n%s", out)
		return
	}

	var logs []string
	h := newCachingHandler(t, 8, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	cacheOn := h.srv.respCache != nil
	wantLogs := 0
	if !cacheOn {
		wantLogs = 1
	}
	if cacheOn != (h.srv.bodyTag != nil) || len(logs) != wantLogs {
		t.Fatalf("byte cache on = %v, body tagger set = %v, log lines %q", cacheOn, h.srv.bodyTag != nil, logs)
	}
	t.Logf("byte cache on: %v; log: %q", cacheOn, logs)

	body := encodeSet(t, rover.TaskSet())
	mustAnalyze(t, h, body)
	second := mustAnalyze(t, h, body)
	if !headOf(t, second).Report.FromCache {
		t.Fatalf("second POST is not an analyzer hit: %s", second)
	}
	if third := mustAnalyze(t, h, body); !bytes.Equal(third, second) {
		t.Fatalf("third POST differs from the second:\n%s\nwant:\n%s", third, second)
	}
}
