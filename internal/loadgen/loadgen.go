// Package loadgen is the closed-loop load engine behind cmd/hydrabench
// and the regression harness (internal/regression, cmd/hydraperf).
// It drives an HTTP target at one or more concurrency levels and
// reports throughput (requests per second) and latency quantiles
// (p50/p95/p99) per level.
//
// Closed loop means every worker issues a request, waits for the full
// response, then issues the next: the offered load adapts to the
// service, so the measured RPS is the service's sustainable throughput
// at that concurrency, not a drop rate under a fixed arrival schedule.
//
// Traffic shape is pluggable through Source: a fixed body re-posted
// forever (dup-heavy, exercising hydrad's exact-byte cache), a rotating
// pool of distinct bodies (cold traffic, defeating the caches), a
// per-worker admission session issuing admit/remove deltas, or a
// weighted mix of any of these.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"hydrac/internal/hydraclient"
)

// Request is one unit of closed-loop work: Method on target+Path with
// Body (nil for GET).
type Request struct {
	Method string
	Path   string
	Body   []byte
}

// Stream yields one worker's request sequence. Next(i) returns the
// i-th request; streams are used by a single worker goroutine and need
// not be safe for concurrent use.
type Stream interface {
	Next(i int) Request
}

// Source builds per-worker request streams. NewStream runs before the
// measurement window opens, so setup traffic (e.g. opening an
// admission session) never pollutes the recorded latencies.
type Source interface {
	NewStream(client *http.Client, target string, worker int) (Stream, error)
}

// LevelResult is one concurrency level's aggregate outcome. The JSON
// shape is part of cmd/hydrabench's output contract.
//
// Failed requests are split three ways because they mean three
// different things when reading an overload run: Shed (429) is the
// server protecting itself — expected and healthy under deliberate
// overload; ServerErrors (any other non-200) is the server failing;
// TransportErrors is the request never completing at the HTTP layer.
// Errors = ServerErrors + TransportErrors: shed traffic is NOT an
// error, so gates that fail a run on errors stay meaningful when a
// case drives the daemon past its admission limits on purpose.
type LevelResult struct {
	Concurrency     int     `json:"concurrency"`
	Requests        int     `json:"requests"`
	Errors          int     `json:"errors"`
	Shed            int     `json:"shed"`
	ServerErrors    int     `json:"server_errors"`
	TransportErrors int     `json:"transport_errors"`
	Redirects       int     `json:"redirects"`
	DurationS       float64 `json:"duration_s"`
	RPS             float64 `json:"rps"`
	MeanMS          float64 `json:"mean_ms"`
	P50MS           float64 `json:"p50_ms"`
	P95MS           float64 `json:"p95_ms"`
	P99MS           float64 `json:"p99_ms"`
}

// TargetLevelResult is one target's share of a fleet level: the same
// aggregate shape, tagged with the target that served it. Redirect
// hops are attributed to the worker's HOME target (the node it aimed
// at), since that is the node whose routing pushed the request away.
type TargetLevelResult struct {
	Target string `json:"target"`
	LevelResult
}

// FleetLevelResult is one concurrency level swept across several
// targets at once: the fleet-wide aggregate plus a per-target split.
type FleetLevelResult struct {
	Aggregate LevelResult         `json:"aggregate"`
	Targets   []TargetLevelResult `json:"targets"`
}

// Config shapes one Run.
type Config struct {
	// Levels is the concurrency sweep; at least one level is required.
	Levels []int
	// Duration is the measurement window per level.
	Duration time.Duration
	// Warmup is the number of untimed requests each worker issues
	// before its level's window opens; negative means none, zero means
	// the default of one (validating the target/source pairing and
	// warming server caches out of band).
	Warmup int
	// Client overrides the HTTP client; nil builds one sized to the
	// largest level so the sweep never starves on idle connections.
	Client *http.Client
	// Retries, when positive, routes every request through a retrying
	// client (internal/hydraclient): capped exponential backoff with
	// jitter, Retry-After honoured, up to Retries extra attempts per
	// request. The recorded latency then covers the whole retry loop —
	// which is the latency a well-behaved client actually experiences
	// against a shedding server. 0 keeps the historical fire-once
	// behaviour.
	Retries int
}

// NewClient returns an HTTP client whose idle-connection pool fits
// maxConc concurrent workers against one host.
func NewClient(maxConc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxConc,
		MaxIdleConnsPerHost: maxConc,
	}}
}

// Run sweeps the configured concurrency levels against target.
// A Stream setup failure (Source.NewStream) aborts the run; request
// failures during the window are counted per level instead.
func Run(target string, src Source, cfg Config) ([]LevelResult, error) {
	fleet, err := RunFleet([]string{target}, src, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]LevelResult, len(fleet))
	for i, f := range fleet {
		out[i] = f.Aggregate
	}
	return out, nil
}

// RunFleet sweeps the configured concurrency levels across several
// targets at once: worker w aims at targets[w%len(targets)], so each
// level spreads its workers round-robin over the fleet and the
// aggregate is the fleet's combined sustainable throughput. Every
// request rides the redirect-following client, so a worker whose
// session was handed off (or that posts to a non-owner) transparently
// follows the 307 and the hop is counted, not failed.
func RunFleet(targets []string, src Source, cfg Config) ([]FleetLevelResult, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("loadgen: no concurrency levels")
	}
	client := cfg.Client
	if client == nil {
		maxConc := 0
		for _, c := range cfg.Levels {
			if c > maxConc {
				maxConc = c
			}
		}
		client = NewClient(maxConc)
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = 1
	}
	retries := cfg.Retries
	if retries <= 0 {
		retries = -1 // fire each request once, but still follow redirects
	}
	hc := hydraclient.New(hydraclient.Config{Client: client, MaxRetries: retries})
	var out []FleetLevelResult
	for _, c := range cfg.Levels {
		res, err := runLevel(client, hc, targets, src, c, cfg.Duration, warmup)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// runLevel drives one closed-loop concurrency level for d and
// aggregates its latencies, fleet-wide and per target. Streams are
// created and warmed before the window opens.
func runLevel(client *http.Client, hc *hydraclient.Client, targets []string, src Source, conc int, d time.Duration, warmup int) (FleetLevelResult, error) {
	streams := make([]Stream, conc)
	for w := 0; w < conc; w++ {
		s, err := src.NewStream(client, targets[w%len(targets)], w)
		if err != nil {
			return FleetLevelResult{}, fmt.Errorf("loadgen: stream for worker %d: %w", w, err)
		}
		streams[w] = s
	}
	// issue fires one request through the retrying, redirect-following
	// client and reports the final status (0 on transport error) plus
	// redirect hops.
	issue := func(target string, req Request) (int, int, error) {
		method := req.Method
		if method == "" {
			method = http.MethodPost
		}
		contentType := ""
		if req.Body != nil {
			contentType = "application/json"
		}
		return hc.DoCount(context.Background(), method, target+req.Path, contentType, req.Body)
	}
	type workerOut struct {
		lat                                []time.Duration
		shed, server, transport, redirects int
	}
	outs := make([]workerOut, conc)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, target := streams[w], targets[w%len(targets)]
			i := 0
			for ; i < warmup; i++ {
				issue(target, s.Next(i))
			}
			for time.Now().Before(deadline) {
				req := s.Next(i)
				i++
				t0 := time.Now()
				status, hops, err := issue(target, req)
				outs[w].redirects += hops
				switch {
				case err != nil:
					outs[w].transport++
				case status == http.StatusOK:
					outs[w].lat = append(outs[w].lat, time.Since(t0))
				case status == http.StatusTooManyRequests:
					outs[w].shed++
				default:
					outs[w].server++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Fold worker outputs per home target, then fleet-wide.
	perTarget := make([]workerOut, len(targets))
	for w, o := range outs {
		t := &perTarget[w%len(targets)]
		t.lat = append(t.lat, o.lat...)
		t.shed += o.shed
		t.server += o.server
		t.transport += o.transport
		t.redirects += o.redirects
	}
	res := FleetLevelResult{}
	var all []time.Duration
	var agg workerOut
	for ti, t := range perTarget {
		res.Targets = append(res.Targets, TargetLevelResult{
			Target:      targets[ti],
			LevelResult: levelStats(conc/len(targets), elapsed, t.lat, t.shed, t.server, t.transport, t.redirects),
		})
		all = append(all, t.lat...)
		agg.shed += t.shed
		agg.server += t.server
		agg.transport += t.transport
		agg.redirects += t.redirects
	}
	res.Aggregate = levelStats(conc, elapsed, all, agg.shed, agg.server, agg.transport, agg.redirects)
	return res, nil
}

// levelStats folds one latency population into a LevelResult.
func levelStats(conc int, elapsed time.Duration, lat []time.Duration, shed, server, transport, redirects int) LevelResult {
	res := LevelResult{
		Concurrency:     conc,
		Requests:        len(lat),
		Errors:          server + transport,
		Shed:            shed,
		ServerErrors:    server,
		TransportErrors: transport,
		Redirects:       redirects,
		DurationS:       elapsed.Seconds(),
	}
	if len(lat) == 0 {
		return res
	}
	sorted := make([]time.Duration, len(lat))
	copy(sorted, lat)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	res.RPS = float64(len(sorted)) / elapsed.Seconds()
	res.MeanMS = sum.Seconds() * 1000 / float64(len(sorted))
	res.P50MS = Quantile(sorted, 0.50).Seconds() * 1000
	res.P95MS = Quantile(sorted, 0.95).Seconds() * 1000
	res.P99MS = Quantile(sorted, 0.99).Seconds() * 1000
	return res
}

// Do issues one request against target and drains the response; any
// transport failure or non-200 status is an error.
func Do(client *http.Client, target string, req Request) error {
	status, err := DoStatus(client, target, req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d from %s%s", status, target, req.Path)
	}
	return nil
}

// DoStatus issues one request against target, drains the response,
// and returns its status code — letting callers distinguish a 429
// shed from a 5xx failure. A non-nil error means the request never
// produced a status (transport failure).
func DoStatus(client *http.Client, target string, req Request) (int, error) {
	method := req.Method
	if method == "" {
		method = http.MethodPost
	}
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequest(method, target+req.Path, body)
	if err != nil {
		return 0, err
	}
	if req.Body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// Quantile reads the q-quantile of sorted latencies by the
// nearest-rank rule.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
