// Command hydrad serves the HYDRA-C admission-control pipeline over
// HTTP: clients POST task sets (the same JSON schema cmd/hydrac
// reads) and receive versioned analysis reports. One long-lived
// hydrac.Analyzer backs every request, so the report cache is shared
// across clients — repeated admission checks of the same workload are
// served from memory.
//
// Usage:
//
//	hydrad [-addr HOST:PORT] [-cache N] [-heuristic H]
//	       [-baselines hydra,global-tmax,...] [-sim-horizon N]
//	       [-data-dir DIR] [-wal-sync=BOOL] [-compact-every N]
//	       [-max-inflight N] [-max-queue N] [-queue-wait D] [-request-timeout D]
//	       [-read-timeout D] [-write-timeout D] [-idle-timeout D]
//	       [-pprof HOST:PORT]
//	       [-peers a,b,c -self a] [-probe-every D] [-drain-timeout D]
//
// -peers/-self join a static fleet: every node lists the same member
// base URLs and names itself. Session ids map to owners on a
// consistent-hash ring (internal/ring), non-owners answer 307 +
// X-Hydra-Owner, a background prober (interval -probe-every) marks
// unreachable peers down so their sessions fail over to the ring
// successor, and SIGTERM triggers a graceful drain: new sessions are
// redirected away while every held session is streamed to its
// successor over POST /v1/handoff (bounded by -drain-timeout), so a
// rolling restart loses no acknowledged delta.
//
// -pprof exposes net/http/pprof on a SEPARATE listener restricted to
// loopback addresses (off by default), so production hot spots can be
// profiled in place without ever exposing the profiler alongside the
// service API:
//
//	hydrad -addr :8080 -pprof 127.0.0.1:6060 &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// Endpoints (wired in internal/hydradhttp, which cmd/hydrabench and
// the regression harness mount in-process):
//
//	POST /v1/analyze             one task set in, one report envelope out
//	POST /v1/analyze/batch       {"task_sets": [...]} in, a reports envelope out
//	POST /v1/session             open an incremental admission session on a base set
//	GET  /v1/session/{id}        the session's current (placed) task set
//	POST /v1/session/{id}/admit  apply one delta; the report envelope describes the result
//	GET  /healthz                liveness + configuration summary
//
// Errors are JSON ({"error": "..."}): 400 for malformed or invalid
// input, 404 for unknown sessions, 405 for wrong methods, 413 for
// oversized bodies, 422 for sets or deltas the pipeline rejects (an
// RT band that is infeasible under Eq. 1 or that no heuristic can
// place, a delta naming an unknown task), 429 with Retry-After when
// the admission gate (-max-inflight) sheds an over-capacity request,
// and 503 with Retry-After when a request deadline (-request-timeout)
// expires or the storage tier is degraded (reads still work; mutations
// are rejected until the background probe re-arms the session).
// An unschedulable *security*
// band is NOT an error — the report says so; on the admit endpoint a
// "schedulable": false report means the delta was DENIED and the
// session state is unchanged (removal-only deltas always commit).
//
// Every session lives in the session store (internal/store): creation
// snapshots the base set, every committed delta is appended to a
// per-session write-ahead log, and at most -sessions engines stay
// live — an evicted session re-hydrates transparently from its files
// on next touch. With -data-dir the store is durable: the WAL is
// fsynced before a commit is acknowledged (unless -wal-sync=false) and
// a restarted daemon recovers every session by replay, bit-identical
// to the pre-restart state. Without it the store lives in an unsynced
// temporary directory that is removed on exit, so a restart loses the
// sessions; -sessions 0 without -data-dir disables them (404).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hydrac"
	"hydrac/internal/fleet"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hydrad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables")
	cacheSize := fs.Int("cache", 1024, "report cache entries (0 disables)")
	sessions := fs.Int("sessions", 256, "admission sessions kept live in memory; the rest re-hydrate from their files on next touch (0 without -data-dir disables sessions)")
	dataDir := fs.String("data-dir", "", "directory for durable session state (snapshot + WAL per session); empty keeps sessions in a temporary directory removed on exit")
	walSync := fs.Bool("wal-sync", true, "fsync the WAL on every committed delta (only meaningful with -data-dir)")
	compactEvery := fs.Int("compact-every", 256, "snapshot + rotate a session's WAL every N committed deltas")
	heuristic := fs.String("heuristic", "best-fit", "partitioning heuristic: best-fit | first-fit | worst-fit | next-fit")
	baselines := fs.String("baselines", "", "comma-separated baseline schemes to attach to every report (hydra, hydra-aggressive, hydra-tmax, global-tmax)")
	simHorizon := fs.Int64("sim-horizon", 0, "when positive, simulate every admitted set for this many ticks")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing requests; 0 disables the admission gate")
	maxQueue := fs.Int("max-queue", 64, "max requests waiting for a slot beyond -max-inflight; excess is shed with 429 (only meaningful with -max-inflight)")
	queueWait := fs.Duration("queue-wait", hydradhttp.DefaultQueueWait, "longest a queued request waits for a slot before a 429 (only meaningful with -max-inflight)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline; expiry answers 503 (0 disables)")
	peers := fs.String("peers", "", "comma-separated base URLs of every fleet member (including this one); empty runs single-node")
	self := fs.String("self", "", "this node's base URL as it appears in -peers (required with -peers)")
	probeEvery := fs.Duration("probe-every", fleet.DefaultProbeEvery, "peer health probe interval (only meaningful with -peers)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time a SIGTERM drain may spend handing sessions to peers (only meaningful with -peers)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: max time to read a full request (0 disables)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout: max time from end-of-read to end-of-write (0 disables)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: max keep-alive idle time (0 disables)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hydrad: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	a, summary, err := buildAnalyzer(*cacheSize, *heuristic, *baselines, *simHorizon)
	if err != nil {
		fmt.Fprintln(stderr, "hydrad:", err)
		return 2
	}
	summary["sessions"] = *sessions
	if *maxInflight > 0 {
		summary["max_inflight"] = *maxInflight
	}

	logf := func(format string, args ...any) { fmt.Fprintf(stderr, "hydrad: "+format+"\n", args...) }
	fl, err := buildFleet(*peers, *self, *probeEvery, logf)
	if err != nil {
		fmt.Fprintln(stderr, "hydrad:", err)
		return 2
	}
	if fl != nil {
		summary["fleet_self"] = fl.Self()
		summary["fleet_size"] = len(fl.Peers())
	}
	st, closeStore, err := openStore(a, *dataDir, store.Options{
		MaxLive:      *sessions,
		NoSync:       !*walSync,
		CompactEvery: *compactEvery,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hydrad:", err)
		return 1
	}
	defer closeStore()
	if *dataDir != "" {
		fmt.Fprintf(stderr, "hydrad: recovered %d durable sessions from %s\n", st.Len(), *dataDir)
		summary["data_dir"] = *dataDir
		summary["wal_sync"] = *walSync
	}

	if *pprofAddr != "" {
		pln, err := listenPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "hydrad:", err)
			return 1
		}
		defer pln.Close()
		// A dedicated server on a dedicated loopback listener: the
		// profiling surface never shares a port (or a handler) with
		// the service API, so exposing the service does not expose
		// the profiler.
		go func() {
			psrv := &http.Server{Handler: pprofHandler(), ReadHeaderTimeout: 10 * time.Second}
			_ = psrv.Serve(pln)
		}()
		fmt.Fprintf(stderr, "hydrad: pprof on http://%s/debug/pprof/\n", pln.Addr())
		summary["pprof"] = pln.Addr().String()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "hydrad:", err)
		return 1
	}
	handler := hydradhttp.NewHandler(hydradhttp.Config{
		Analyzer:       a,
		Summary:        summary,
		CacheSize:      *cacheSize,
		Store:          st,
		Fleet:          fl,
		Logf:           logf,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RequestTimeout: *requestTimeout,
	})
	srv := &http.Server{
		Handler: handler,
		// Server-side timeouts bound how long a slow (or hostile)
		// client can hold a connection at every stage of its life:
		// header read, full-request read, response write, keep-alive
		// idle. Without them one slowloris peer pins a goroutine and
		// an fd forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "hydrad: listening on %s\n", ln.Addr())
	if fl != nil {
		fl.Start()
		defer fl.Stop()
		fmt.Fprintf(stderr, "hydrad: fleet member %s of %d peers\n", fl.Self(), len(fl.Peers()))
	}

	select {
	case <-ctx.Done():
		// Restore default signal handling first: a drain that hangs
		// (peer wedged mid-handoff) must stay killable by a second
		// SIGTERM/Ctrl-C rather than require kill -9.
		stop()
		if fl != nil {
			fmt.Fprintln(stderr, "hydrad: draining")
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			moved, kept := handler.Drain(drainCtx)
			cancel()
			fmt.Fprintf(stderr, "hydrad: drained: %d handed off, %d kept\n", moved, kept)
		}
		fmt.Fprintln(stderr, "hydrad: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "hydrad:", err)
			return 1
		}
		// The deferred closeStore runs after in-flight requests have
		// drained, flushing NoSync WALs (and removing a temporary
		// store) before exit.
		return 0
	case err := <-errc:
		fmt.Fprintln(stderr, "hydrad:", err)
		return 1
	}
}

// openStore opens the session store. With dataDir it is the durable
// store in that directory. Without it the store lives in a fresh
// temporary directory, unsynced because nothing there outlives the
// process, and the returned cleanup removes the directory after
// closing the store. opt.MaxLive <= 0 (-sessions 0) without a dataDir
// opens no store: the handler then answers the session routes with 404.
func openStore(a *hydrac.Analyzer, dataDir string, opt store.Options) (*store.Store, func(), error) {
	if dataDir != "" {
		st, err := store.Open(dataDir, a, opt)
		if err != nil {
			return nil, nil, err
		}
		return st, func() { st.Close() }, nil
	}
	if opt.MaxLive <= 0 {
		return nil, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "hydrad-sessions-*")
	if err != nil {
		return nil, nil, err
	}
	opt.NoSync = true
	st, err := store.Open(dir, a, opt)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return st, func() {
		st.Close()
		if err := os.RemoveAll(dir); err != nil && opt.Logf != nil {
			opt.Logf("removing temporary session store: %v", err)
		}
	}, nil
}

// buildFleet translates -peers/-self into a fleet view; both empty
// keeps the exact single-node behaviour.
func buildFleet(peersCSV, self string, probeEvery time.Duration, logf func(string, ...any)) (*fleet.Fleet, error) {
	if peersCSV == "" && self == "" {
		return nil, nil
	}
	if peersCSV == "" || self == "" {
		return nil, errors.New("-peers and -self must be set together")
	}
	var peers []string
	for _, p := range strings.Split(peersCSV, ",") {
		if n := fleet.Normalize(p); n != "" {
			peers = append(peers, n)
		}
	}
	return fleet.New(fleet.Options{
		Self:       self,
		Peers:      peers,
		ProbeEvery: probeEvery,
		Logf:       logf,
	})
}

// maxBodyBytes mirrors the handler's request-size cap for tests.
const maxBodyBytes = hydradhttp.MaxBodyBytes

// buildAnalyzer translates flags into Analyzer options and a summary
// for /healthz.
func buildAnalyzer(cacheSize int, heuristic, baselines string, simHorizon int64) (*hydrac.Analyzer, map[string]any, error) {
	var opts []hydrac.AnalyzerOption
	summary := map[string]any{
		"cache":     cacheSize,
		"heuristic": heuristic,
	}
	h, err := hydrac.ParseHeuristic(heuristic)
	if err != nil {
		return nil, nil, err
	}
	opts = append(opts, hydrac.WithHeuristic(h), hydrac.WithCache(cacheSize))
	if baselines != "" {
		var schemes []hydrac.Scheme
		for _, name := range strings.Split(baselines, ",") {
			sch, err := hydrac.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				return nil, nil, err
			}
			schemes = append(schemes, sch)
		}
		opts = append(opts, hydrac.WithBaselines(schemes...))
		summary["baselines"] = schemes
	}
	if simHorizon > 0 {
		opts = append(opts, hydrac.WithSimulation(hydrac.SimConfig{
			Policy: hydrac.SemiPartitioned, Horizon: simHorizon,
		}))
		summary["sim_horizon"] = simHorizon
	}
	a, err := hydrac.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	return a, summary, nil
}

// listenPprof opens the profiling listener, refusing any address that
// is not loopback: pprof exposes heap contents and CPU samples, so it
// must never ride on an externally reachable interface by accident.
func listenPprof(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof %q: %w", addr, err)
	}
	if host != "localhost" {
		ip := net.ParseIP(host)
		if ip == nil || !ip.IsLoopback() {
			return nil, fmt.Errorf("-pprof %q: profiling must stay on a loopback address (127.0.0.1, ::1 or localhost)", addr)
		}
	}
	return net.Listen("tcp", addr)
}

// pprofHandler mounts the net/http/pprof endpoints on a fresh mux (the
// package's side-effect registration targets http.DefaultServeMux,
// which hydrad never serves).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}
