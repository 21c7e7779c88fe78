package main

import (
	"io"
	"math"
	"math/bits"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The closed loop allocates nothing per op: each caller owns one
// request, one body reader, one response writer and one latency
// histogram, all reused for every op. The benchmark's memory therefore
// does not grow with the run length.

// bodyReader is a rewindable request body over a pre-encoded slice.
type bodyReader struct {
	b   []byte
	off int
}

func (r *bodyReader) reset(b []byte) { r.b, r.off = b, 0 }

func (r *bodyReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *bodyReader) Close() error { return nil }

// respWriter is an in-memory http.ResponseWriter. The body is appended
// to buf from mark on; with keep set, reset does not rewind buf, so a
// run of responses accumulates in one arena for checking after the
// round.
type respWriter struct {
	h      http.Header
	buf    []byte
	mark   int
	status int
	keep   bool
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.h)
	if !w.keep {
		w.buf = w.buf[:0]
	}
	w.mark = len(w.buf)
	w.status = 0
}

// body is the current response's bytes; valid until the next reset
// (or, with keep, until the arena is rewound).
func (w *respWriter) body() []byte { return w.buf[w.mark:] }

// hist is a log-linear latency histogram in nanoseconds: exact below
// 256 ns, then 128 buckets per power of two (each under 0.8% wide), up
// to 2^40 ns. It is 17 KiB whatever the number of ops.
type hist [histBuckets]uint32

const (
	histSub     = 7  // log2 of the buckets per power of two
	histMaxBits = 40 // latencies are capped at 2^40 ns (about 18 minutes)
	histBuckets = (histMaxBits - histSub + 1) << histSub
)

func histBucket(ns uint64) int {
	if ns >= 1<<histMaxBits {
		ns = 1<<histMaxBits - 1
	}
	e := max(0, bits.Len64(ns)-histSub-1)
	return e<<histSub + int(ns>>e)
}

// histRange is bucket i's lowest value and width, in nanoseconds.
func histRange(i int) (low, width float64) {
	e := max(0, i>>histSub-1)
	return float64(uint64(i-e<<histSub) << e), float64(uint64(1) << e)
}

func (h *hist) add(d time.Duration) { h[histBucket(uint64(max(d, 0)))]++ }

func (h *hist) merge(o *hist) {
	for i, n := range o {
		h[i] += n
	}
}

func (h *hist) count() int64 {
	var n int64
	for _, c := range h {
		n += int64(c)
	}
	return n
}

// quantile is the nearest-rank q-quantile in milliseconds, placed
// within its bucket by its rank among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := max(1, int64(math.Ceil(q*float64(n))))
	var below int64
	for i, c := range h {
		if below+int64(c) >= rank {
			low, width := histRange(i)
			return (low + width*(float64(rank-below)-0.5)/float64(c)) / 1e6
		}
		below += int64(c)
	}
	return 0 // unreachable: the counts sum to n
}

// caller is one closed-loop client: it sends its next request only
// after the previous one has been answered.
type caller struct {
	id   int
	req  *http.Request
	in   bodyReader
	w    respWriter
	lat  hist // this round's latencies
	fail int
}

func newCaller(id int) *caller {
	req, err := http.NewRequest(http.MethodPost, "http://hydrad/", nil)
	if err != nil {
		panic(err) // constant URL
	}
	c := &caller{id: id, req: req}
	c.w.h = make(http.Header)
	return c
}

// do serves one request through h and returns its latency, timed
// around ServeHTTP alone.
func (c *caller) do(h http.Handler, method, path string, body []byte) time.Duration {
	c.req.Method = method
	c.req.URL.Path = path
	if body == nil {
		c.req.Body = http.NoBody
		c.req.ContentLength = 0
	} else {
		c.in.reset(body)
		c.req.Body = &c.in
		c.req.ContentLength = int64(len(body))
	}
	c.w.reset()
	t0 := time.Now()
	h.ServeHTTP(&c.w, c.req)
	return time.Since(t0)
}

// record counts one op's latency.
func (c *caller) record(d time.Duration) { c.lat.add(d) }

// round is what one round of the timed window measured.
type round struct {
	ops       int
	wall, cpu time.Duration
	p50       float64 // ms
}

// window is what the timed window measured, round by round.
type window struct {
	rounds  []round
	ops     int
	wall    time.Duration // sum of the rounds' wall times
	mallocs uint64
	gcs     uint32
	rssMiB  float64
	lat     hist // every op of every round
}

// roundSpan is the slice [from, to) of a caller's n ops that round r
// of rounds runs.
func roundSpan(n, rounds, r int) (from, to int) {
	return r * n / rounds, (r + 1) * n / rounds
}

// runWindow runs the timed window: every caller runs n ops, split into
// rounds. Each round starts all callers at once from a collected heap,
// waits for all of them, and reads wall time, process CPU time, the
// allocator counters and the round's latency p50. after, if not nil,
// runs between rounds, outside the timing, on the ops [from, to) the
// round ran. Reporting the median round, rather than the whole window,
// keeps a burst of load from elsewhere on the machine out of the
// figures unless it covers most of the window.
func runWindow(callers []*caller, n, rounds int, loop func(c *caller, from, to int), after func(from, to int)) *window {
	w := &window{rounds: make([]round, 0, rounds)}
	var m0, m1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		from, to := roundSpan(n, rounds, r)
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, c := range callers {
			wg.Add(1)
			go func(c *caller) {
				defer wg.Done()
				<-start
				loop(c, from, to)
			}(c)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		w.mallocs += m1.Mallocs - m0.Mallocs
		w.gcs += m1.NumGC - m0.NumGC
		var lat hist
		for _, c := range callers {
			lat.merge(&c.lat)
			c.lat = hist{}
		}
		w.lat.merge(&lat)
		ops := (to - from) * len(callers)
		w.rounds = append(w.rounds, round{ops: ops, wall: wall, cpu: cpu, p50: lat.quantile(0.50)})
		w.ops += ops
		w.wall += wall
		if after != nil {
			after(from, to)
		}
	}
	w.rssMiB = peakRSSMiB()
	return w
}

// median of xs (copied, not reordered in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileF is the nearest-rank q-quantile of xs.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size so far (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
