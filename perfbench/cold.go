package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"hydrac"
	"hydrac/internal/core"
	"hydrac/internal/partition"
	"hydrac/internal/task"
)

// analyze-cold: one caller POSTs distinct Table-3 sets to /v1/analyze,
// so both caches miss on every request and the kernel does nearly all
// the work.
const (
	// coldOpsPerSecond sizes the op count: about what one caller
	// completes per second on a 2-vCPU x86 machine.
	coldOpsPerSecond = 190
	// coldWarmup distinct sets, drawn from a fixed seed, are served
	// during set-up (and again after a restart): they fill the kernel
	// scratch pool and the handler's body pool before the window.
	coldWarmup = 128
	// coldTracedOps bounds the traced replay to the window's first
	// ops: whole 32-request periods, so it carries the same mix.
	coldTracedOps = 1024
	// coldStride samples every fourth priority level in the oracle's
	// minimality check.
	coldStride = 4
)

var (
	fromCacheTrue    = []byte(`"from_cache": true`)
	unschedulableRep = []byte(`"schedulable": false`)
)

func (b *bench) runCold() error {
	in, err := b.loadInputs()
	if err != nil {
		return err
	}
	warm, ops := in.Warm, in.Ops
	build := func() (*service, error) {
		a, err := newAnalyzer()
		if err != nil {
			return nil, err
		}
		s := newService(nil, a)
		c := newCaller(0)
		for i, body := range warm {
			c.do(s.h, http.MethodPost, "/v1/analyze", body)
			if c.w.status != http.StatusOK {
				return nil, fmt.Errorf("warm-up request %d answered %d: %s", i, c.w.status, c.w.body())
			}
		}
		return s, nil
	}
	svc, setupS, err := timedReps(setupReps, build)
	if err != nil {
		return err
	}

	// A round's responses accumulate in one arena sized before the
	// window (a report is never larger than its request plus the
	// envelope) and are checked after the round, outside the timing.
	rounds := b.rounds()
	arena := 0
	for r := 0; r < rounds; r++ {
		from, to := roundSpan(len(ops), rounds, r)
		size := 0
		for _, body := range ops[from:to] {
			size += len(body) + 1024
		}
		arena = max(arena, size)
	}
	c := newCaller(0)
	c.w.keep = true
	c.w.buf = make([]byte, 0, arena)
	ends := make([]int, 0, len(ops)/rounds+1)
	var recov []float64
	w := runWindow([]*caller{c}, len(ops), rounds, func(c *caller, from, to int) {
		for _, body := range ops[from:to] {
			c.record(c.do(svc.h, http.MethodPost, "/v1/analyze", body))
			if c.w.status != http.StatusOK {
				c.fail++
			}
			ends = append(ends, len(c.w.buf))
		}
	}, func(from, to int) {
		b.check(parallelCheck(to-from, func(i int) error {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			resp := c.w.buf[start:ends[i]]
			if b.corrupt && from+i == len(ops)/2 {
				resp = corruptDigit(resp)
			}
			if _, err := checkAnalysis(ops[from+i], resp, false, coldStride); err != nil {
				return fmt.Errorf("op %d: %w", from+i, err)
			}
			return nil
		}))
		c.w.buf, ends = c.w.buf[:0], ends[:0]
		b.timeRestart(&recov, build)
	})
	svc.close()
	b.attempted, b.failed = len(ops), c.fail

	if b.traced {
		return b.traceCold(build, ops[:min(len(ops), coldTracedOps)], w, setupS)
	}
	b.endToEndFrom(w, 1, setupS, recov)
	return nil
}

// traceCold replays the window's first requests on a fresh service
// and, per op, times the layer calls the handler makes on that input:
// decode and hash (task), a cacheless AnalyzeEnvelope (hydrac),
// best-fit placement (partition), period selection on the placed set
// (core) and the report encode (hydrac).
func (b *bench) traceCold(build func() (*service, error), ops [][]byte, untraced *window, setupS []float64) error {
	b.endToEndFrom(untraced, 1, setupS, nil)
	svc, err := build()
	if err != nil {
		return err
	}
	cacheless, err := hydrac.New(hydrac.WithHeuristic(hydrac.BestFit))
	if err != nil {
		return err
	}
	ctx := context.Background()
	rec := newRecorder(len(ops) * 8)
	self := make([]float64, 0, len(ops))
	hits, unsched := 0, 0
	var enc bytes.Buffer
	c := newCaller(0)
	runWindow([]*caller{c}, len(ops), 1, func(c *caller, _, _ int) {
		for i, body := range ops {
			op := int32(i)
			sv := rec.open(spServe, op, -1)
			c.do(svc.h, http.MethodPost, "/v1/analyze", body)
			rec.close(sv)
			resp := c.w.body()
			if c.w.status != http.StatusOK {
				c.fail++
			}
			if bytes.Contains(resp, fromCacheTrue) {
				hits++
			}
			if bytes.Contains(resp, unschedulableRep) {
				unsched++
			}
			var ts *task.Set
			var env []byte
			var derr, aerr, perr, serr error
			dec := rec.time(spDecode, op, -1, func() { ts, derr = hydrac.DecodeTaskSet(bytes.NewReader(body)) })
			if derr != nil {
				b.check(derr)
				continue
			}
			rec.time(spHash, op, -1, func() { _ = ts.Hash() })
			an := rec.time(spAnalyze, op, -1, func() { env, _, aerr = cacheless.AnalyzeEnvelope(ctx, ts) })
			placed := ts.Clone()
			rec.time(spPartition, op, -1, func() { perr = partition.AssignCtx(ctx, placed, partition.BestFit) })
			rec.time(spSelect, op, -1, func() { _, serr = core.SelectPeriodsCtx(ctx, placed, core.Options{}) })
			rep, rerr := hydrac.ReadReport(bytes.NewReader(env))
			if err := firstErr(aerr, perr, serr, rerr); err != nil {
				b.check(fmt.Errorf("traced op %d: %w", i, err))
				continue
			}
			enc.Reset()
			rec.time(spEncode, op, -1, func() { hydrac.WriteReport(&enc, rep) })
			self = append(self, float64(rec.get(sv).dur()-dec-an))
		}
	}, nil)
	svc.close()
	b.attempted += len(ops)
	b.failed += c.fail

	sel := rec.byName(spSelect)
	b.metrics["hydradhttp.serve_us"] = us(median(rec.byName(spServe)))
	b.metrics["hydradhttp.self_us"] = us(median(self))
	b.metrics["task.decode_us"] = us(median(rec.byName(spDecode)))
	b.metrics["task.hash_us"] = us(median(rec.byName(spHash)))
	b.metrics["hydrac.analyze_ms"] = ms(median(rec.byName(spAnalyze)))
	b.metrics["partition.assign_us"] = us(median(rec.byName(spPartition)))
	b.metrics["core.select_ms"] = ms(median(sel))
	b.metrics["core.select_p99_ms"] = ms(quantileF(sel, 0.99))
	b.metrics["hydrac.encode_us"] = us(median(rec.byName(spEncode)))
	b.metrics["lru.hit_ratio"] = float64(hits) / float64(len(ops))
	b.metrics["core.unschedulable_ratio"] = float64(unsched) / float64(len(ops))
	return b.traceSummary(rec)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
