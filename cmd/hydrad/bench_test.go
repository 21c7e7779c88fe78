package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
	"hydrac/internal/hydradhttp"
)

// benchBody renders one Table-3 M=4 set (4,961 bytes) with its RT band
// unassigned, drawn as perfbench's analyze-hot pool draws its sets
// (seed 1, utilisation group 1, item 0 is that pool's first set), so
// the per-byte cost of keying the byte cache shows at the body size
// that workload posts. Every request posts the same bytes.
func benchBody(b *testing.B) []byte {
	b.Helper()
	ts, err := gen.TableThree(4).GenerateAt(1, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for j := range ts.RT {
		ts.RT[j].Core = -1
	}
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, ts); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkHydradAnalyzeCacheHit measures the analyze handler's
// steady-state cost on repeated identical traffic. After the first
// timed request, which the analyzer cache answers, every iteration is
// an exact-byte cache hit: read the body, key it, look it up and write
// the stored envelope, with no task-set decode and no report marshal.
// ns/op and allocs/op include the httptest request and recorder built
// per iteration; BenchmarkHydradAnalyzeCacheHitTight leaves them out.
func BenchmarkHydradAnalyzeCacheHit(b *testing.B) {
	a, err := hydrac.New(hydrac.WithCache(8))
	if err != nil {
		b.Fatal(err)
	}
	h := hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a, Summary: map[string]any{"cache": 8}, CacheSize: 8})
	body := benchBody(b)

	warm := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != 200 {
		b.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// benchRW is a reusable ResponseWriter so the tight benchmark below
// measures the handler, not the httptest scaffolding.
type benchRW struct {
	h   http.Header
	buf bytes.Buffer
}

func (w *benchRW) Header() http.Header         { return w.h }
func (w *benchRW) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *benchRW) WriteHeader(int)             {}

// BenchmarkHydradAnalyzeCacheHitTight is the same cache-hit workload
// with the request and response objects reused across iterations:
// allocs/op is the handler's own steady-state allocation count.
func BenchmarkHydradAnalyzeCacheHitTight(b *testing.B) {
	a, err := hydrac.New(hydrac.WithCache(8))
	if err != nil {
		b.Fatal(err)
	}
	h := hydradhttp.NewHandler(hydradhttp.Config{Analyzer: a, Summary: map[string]any{"cache": 8}, CacheSize: 8})
	body := benchBody(b)

	warm := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != 200 {
		b.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
	}

	br := bytes.NewReader(body)
	rc := io.NopCloser(br)
	req := httptest.NewRequest("POST", "/v1/analyze", nil)
	rw := &benchRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(body)
		req.Body = rc
		rw.buf.Reset()
		h.ServeHTTP(rw, req)
		if rw.buf.Len() == 0 {
			b.Fatal("empty response")
		}
	}
}
