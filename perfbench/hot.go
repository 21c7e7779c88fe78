package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"hydrac"
	"hydrac/internal/task"
)

// analyze-hot: two callers re-POST a fixed pool of distinct M=4 sets
// that fits both caches. After set-up every request is an exact-byte
// hit, so the handler and its caches do all the work.
const (
	// hotOpsPerSecond sizes the op count: about what two callers
	// complete per second on a 2-vCPU x86 machine.
	hotOpsPerSecond = 260000
	hotPoolSize     = 256
	hotCallers      = 2
	// hotTracedOps bounds how many ops per caller the traced replay
	// records spans and layer calls for; the rest are served untraced.
	hotTracedOps = 8192
	// hotReplayOps bounds the traced replay's ops per caller: the
	// window's first ops, so a traced run stays well inside a run's
	// time limit.
	hotReplayOps = 1 << 20
	// loopbackSamples requests go over a real loopback listener in the
	// traced run, for the net.loopback_us context figure.
	loopbackSamples = 2000
	hotStride       = 4
)

func (b *bench) runHot() error {
	in, err := b.loadInputs()
	if err != nil {
		return err
	}
	pool, canon := in.Pool, in.Canon
	build := func() (*service, error) {
		a, err := newAnalyzer()
		if err != nil {
			return nil, err
		}
		s := newService(nil, a)
		c := newCaller(0)
		// The first POST of a body fills the analyzer cache, the second
		// (an analyzer hit) fills the byte cache.
		for pass := 0; pass < 2; pass++ {
			for i, body := range pool {
				c.do(s.h, http.MethodPost, "/v1/analyze", body)
				if c.w.status != http.StatusOK {
					return nil, fmt.Errorf("warm-up request %d answered %d: %s", i, c.w.status, c.w.body())
				}
			}
		}
		return s, nil
	}
	svc, setupS, err := timedReps(setupReps, build)
	if err != nil {
		return err
	}

	perCaller := b.seconds * hotOpsPerSecond / hotCallers
	callers := make([]*caller, hotCallers)
	for i := range callers {
		callers[i] = newCaller(i)
	}
	var recov []float64
	w := runWindow(callers, perCaller, b.rounds(), func(c *caller, from, to int) {
		for i := from; i < to; i++ {
			k := (c.id*hotPoolSize/hotCallers + i) % hotPoolSize
			c.record(c.do(svc.h, http.MethodPost, "/v1/analyze", pool[k]))
			got := c.w.body()
			if b.corrupt && c.id == 0 && i == perCaller/2 {
				got = corruptDigit(got)
			}
			if c.w.status != http.StatusOK || !bytes.Equal(got, canon[k]) {
				c.fail++
			}
		}
	}, func(int, int) { b.timeRestart(&recov, build) })
	b.attempted = w.ops
	for _, c := range callers {
		b.failed += c.fail
	}
	if b.failed > 0 {
		b.check(fmt.Errorf("%d responses differ from their set's canonical hit envelope", b.failed))
	}
	b.check(parallelCheck(len(pool), func(i int) error {
		if _, err := checkAnalysis(pool[i], canon[i], true, hotStride); err != nil {
			return fmt.Errorf("pool set %d: %w", i, err)
		}
		return nil
	}))

	if b.traced {
		return b.traceHot(svc, pool, canon, min(perCaller, hotReplayOps), w, setupS)
	}
	svc.close()
	b.endToEndFrom(w, hotCallers, setupS, recov)
	return nil
}

// traceHot replays the window's first perCaller ops of each caller on
// the warmed service. A sample of ops records the serve span plus the
// layer calls a byte-cache miss would add: decode (task), the
// analyzer-cache hit path AnalyzeEnvelope (hydrac) and the set hash it
// keys on (task). A loopback sample then puts the in-process figures
// in context.
func (b *bench) traceHot(svc *service, pool, canon [][]byte, perCaller int, untraced *window, setupS []float64) error {
	b.endToEndFrom(untraced, hotCallers, setupS, nil)
	defer svc.close()
	sets := make([]*task.Set, len(pool))
	for i, body := range pool {
		ts, err := hydrac.DecodeTaskSet(bytes.NewReader(body))
		if err != nil {
			return err
		}
		sets[i] = ts
	}
	every := max(1, perCaller/hotTracedOps)
	rec := newRecorder(hotCallers * (perCaller/every + 1) * 4)
	ctx := context.Background()
	callers := make([]*caller, hotCallers)
	hits := make([]int, hotCallers)
	for i := range callers {
		callers[i] = newCaller(i)
	}
	tw := runWindow(callers, perCaller, 1, func(c *caller, _, _ int) {
		for i := 0; i < perCaller; i++ {
			k := (c.id*hotPoolSize/hotCallers + i) % hotPoolSize
			if i%every != 0 {
				c.do(svc.h, http.MethodPost, "/v1/analyze", pool[k])
			} else {
				op := int32(c.id*perCaller + i)
				sv := rec.open(spServe, op, -1)
				c.do(svc.h, http.MethodPost, "/v1/analyze", pool[k])
				rec.close(sv)
				rec.time(spDecode, op, -1, func() { _, _ = hydrac.DecodeTaskSet(bytes.NewReader(pool[k])) })
				rec.time(spHash, op, -1, func() { _ = sets[k].Hash() })
				rec.time(spEnvelopeHit, op, -1, func() { _, _, _ = svc.a.AnalyzeEnvelope(ctx, sets[k]) })
			}
			if c.w.status == http.StatusOK && bytes.Equal(c.w.body(), canon[k]) {
				hits[c.id]++
			} else {
				c.fail++
			}
		}
	}, nil)
	b.attempted += tw.ops
	allHits := 0
	for i, c := range callers {
		b.failed += c.fail
		allHits += hits[i]
	}
	loop, err := loopback(svc.h, pool, rec)
	if err != nil {
		return err
	}
	serve := rec.byName(spServe)
	b.metrics["hydradhttp.serve_us"] = us(median(serve))
	b.metrics["task.decode_us"] = us(median(rec.byName(spDecode)))
	b.metrics["task.hash_us"] = us(median(rec.byName(spHash)))
	b.metrics["hydrac.envelope_hit_us"] = us(median(rec.byName(spEnvelopeHit)))
	b.metrics["lru.hit_ratio"] = float64(allHits) / float64(tw.ops)
	b.metrics["net.loopback_us"] = us(loop)
	unsched := 0
	for _, env := range canon {
		if bytes.Contains(env, unschedulableRep) {
			unsched++
		}
	}
	b.metrics["core.unschedulable_ratio"] = float64(unsched) / float64(len(canon))
	return b.traceSummary(rec)
}

// loopback sends loopbackSamples pool requests over a real loopback
// listener, one at a time on a keep-alive connection, and returns the
// median round trip minus the median in-process serve time of the same
// requests, in nanoseconds. It is context only: no end-to-end metric
// includes a socket.
func loopback(h http.Handler, pool [][]byte, rec *recorder) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	url := "http://" + ln.Addr().String() + "/v1/analyze"
	c := newCaller(0)
	rtt := make([]float64, 0, loopbackSamples)
	local := make([]float64, 0, loopbackSamples)
	var firstErr error
	for i := 0; i < loopbackSamples && firstErr == nil; i++ {
		body := pool[i%len(pool)]
		local = append(local, float64(c.do(h, http.MethodPost, "/v1/analyze", body)))
		start := rec.now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			firstErr = err
			break
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		end := rec.now()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("loopback request answered %d", resp.StatusCode)
		}
		firstErr = err
		rec.add(span{name: spLoopback, op: -1, parent: -1, start: start, end: end})
		rtt = append(rtt, float64(end-start))
	}
	tr.CloseIdleConnections()
	if err := srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := <-done; err != http.ErrServerClosed && firstErr == nil {
		firstErr = err
	}
	return median(rtt) - median(local), firstErr
}
