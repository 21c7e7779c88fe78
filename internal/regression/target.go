package regression

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hydrac"
	"hydrac/internal/fleet"
	"hydrac/internal/hydradhttp"
	"hydrac/internal/store"
)

// ErrUnsupported reports that the target build does not know a flag
// this case needs (e.g. a merge-base hydrad predating -data-dir). The
// runner turns it into a skipped verdict instead of a failure, so a
// case gating a brand-new feature self-heals once the feature is in
// the base.
var ErrUnsupported = errors.New("target does not support this case's configuration")

// Target boots one fresh service instance for one load sample. Every
// sample gets its own instance so cache state, session stores and GC
// history never leak between samples or sides.
type Target interface {
	Start(d DaemonOpts) (url string, stop func() error, err error)
}

// BinaryTarget runs a hydrad binary as a subprocess on an ephemeral
// loopback port — the production configuration, and the only way to
// run a build from a different commit (the merge-base worktree).
type BinaryTarget struct {
	// Bin is the hydrad executable to launch.
	Bin string
}

// startTimeout bounds how long a daemon may take to report its
// listening address.
const startTimeout = 10 * time.Second

func (t BinaryTarget) Start(d DaemonOpts) (string, func() error, error) {
	if d.Fleet >= 2 {
		return t.startFleet(d)
	}
	args, cleanupData, err := daemonArgs(d, "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return t.launch(args, cleanupData)
}

// daemonArgs builds the hydrad flag list for one node of a sample,
// creating a fresh temporary data dir when the case is durable.
func daemonArgs(d DaemonOpts, addr string) (args []string, cleanup func(), err error) {
	args = []string{
		"-addr", addr,
		"-cache", strconv.Itoa(d.Cache),
	}
	if d.MaxInflight > 0 {
		// Pass the whole gate triple so the subprocess matches what
		// HandlerTarget boots from the same DaemonOpts exactly; a base
		// build predating the flags turns into ErrUnsupported below.
		args = append(args,
			"-max-inflight", strconv.Itoa(d.MaxInflight),
			"-max-queue", strconv.Itoa(d.MaxQueue),
			"-queue-wait", d.QueueWait.String(),
		)
	}
	cleanup = func() {}
	if d.DataDir {
		dataDir, err := os.MkdirTemp("", "hydraperf-data-*")
		if err != nil {
			return nil, nil, err
		}
		args = append(args, "-data-dir", dataDir)
		cleanup = func() { _ = os.RemoveAll(dataDir) }
	}
	return args, cleanup, nil
}

// startFleet boots d.Fleet hydrad subprocesses joined by -peers/-self
// and returns their URLs comma-joined (the runner splits the list and
// spreads load round-robin). Ports are reserved up front: every
// member's -peers list must name every member before any of them
// boots, so the usual -addr :0 dance cannot work here.
func (t BinaryTarget) startFleet(d DaemonOpts) (string, func() error, error) {
	addrs, err := reservePorts(d.Fleet)
	if err != nil {
		return "", nil, err
	}
	peers := make([]string, len(addrs))
	for i, a := range addrs {
		peers[i] = "http://" + a
	}
	peersCSV := strings.Join(peers, ",")
	var stops []func() error
	stopAll := func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i, addr := range addrs {
		args, cleanupData, err := daemonArgs(d, addr)
		if err != nil {
			stopAll()
			return "", nil, err
		}
		args = append(args, "-peers", peersCSV, "-self", peers[i])
		if _, stop, err := t.launch(args, cleanupData); err != nil {
			stopAll()
			// ErrUnsupported propagates untouched: a base build
			// predating -peers skips the case, it does not fail it.
			return "", nil, err
		} else {
			stops = append(stops, stop)
		}
	}
	return peersCSV, stopAll, nil
}

// reservePorts binds n ephemeral loopback listeners, records their
// addresses, and releases them all at once (releasing one at a time
// could hand a later Listen the same port back). The window between
// release and the daemon re-binding is a benign race on loopback.
func reservePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// launch starts one hydrad subprocess and waits for its listening
// address line.
func (t BinaryTarget) launch(args []string, cleanupData func()) (string, func() error, error) {
	cmd := exec.Command(t.Bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		cleanupData()
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		cleanupData()
		return "", nil, fmt.Errorf("starting %s: %w", t.Bin, err)
	}
	// hydrad reports "hydrad: listening on HOST:PORT" once its
	// listener is bound; -addr :0 makes the port ephemeral, so this
	// line is the only way to learn it.
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.TrimSpace(addr):
				default:
				}
			}
			// An older build rejecting a flag it predates (merge-base
			// hydrad vs a case needing -data-dir): not a regression,
			// just a configuration the base cannot run.
			if strings.Contains(line, "flag provided but not defined") {
				select {
				case errc <- fmt.Errorf("%w: %s", ErrUnsupported, strings.TrimSpace(line)):
				default:
				}
			}
		}
		select {
		case errc <- sc.Err():
		default:
		}
	}()
	stop := func() error {
		defer cleanupData()
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
			return nil
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			return fmt.Errorf("%s ignored SIGTERM; killed", t.Bin)
		}
	}
	select {
	case addr := <-addrc:
		return "http://" + addr, stop, nil
	case err := <-errc:
		stop()
		if errors.Is(err, ErrUnsupported) {
			return "", nil, err
		}
		return "", nil, fmt.Errorf("%s exited before listening (stderr closed: %v)", t.Bin, err)
	case <-time.After(startTimeout):
		stop()
		return "", nil, fmt.Errorf("%s did not report a listening address within %s", t.Bin, startTimeout)
	}
}

// HandlerTarget mounts the real hydrad handler (internal/hydradhttp)
// on an httptest server in-process. It exists for the harness's own
// tests and self-test modes: Wrap lets a test inject a synthetic
// regression (e.g. a sleep before the analyze handler) into ONE side
// of a paired run.
type HandlerTarget struct {
	// Wrap, when non-nil, decorates the handler (middleware).
	Wrap func(http.Handler) http.Handler
}

func (t HandlerTarget) Start(d DaemonOpts) (string, func() error, error) {
	if d.Fleet >= 2 {
		return t.startFleet(d)
	}
	h, cleanup, err := t.node(d, nil)
	if err != nil {
		return "", nil, err
	}
	srv := httptest.NewServer(h)
	stop := func() error {
		srv.Close()
		cleanup()
		return nil
	}
	return srv.URL, stop, nil
}

// node builds one in-process hydrad handler — a fleet member when fl
// is non-nil, standalone otherwise. The returned cleanup releases the
// node's store and its directory.
func (t HandlerTarget) node(d DaemonOpts, fl *fleet.Fleet) (http.Handler, func(), error) {
	a, err := hydrac.New(hydrac.WithCache(d.Cache))
	if err != nil {
		return nil, nil, err
	}
	cfg := hydradhttp.Config{
		Analyzer:  a,
		Summary:   map[string]any{"cache": d.Cache},
		CacheSize: d.Cache,
		Fleet:     fl,
	}
	if d.MaxInflight > 0 {
		cfg.MaxInflight = d.MaxInflight
		cfg.MaxQueue = d.MaxQueue
		cfg.QueueWait = time.Duration(d.QueueWait)
	}
	// Like hydrad: sessions always live in a store, fsynced only for
	// data_dir cases.
	dataDir, err := os.MkdirTemp("", "hydraperf-data-*")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dataDir, a, store.Options{NoSync: !d.DataDir})
	if err != nil {
		_ = os.RemoveAll(dataDir)
		return nil, nil, err
	}
	cfg.Store = st
	cleanup := func() {
		_ = st.Close()
		_ = os.RemoveAll(dataDir)
	}
	var h http.Handler = hydradhttp.NewHandler(cfg)
	if t.Wrap != nil {
		h = t.Wrap(h)
	}
	return h, cleanup, nil
}

// startFleet boots d.Fleet in-process members joined into one
// consistent-hash fleet and returns their URLs comma-joined. The
// servers start before the handlers exist (each member's peer list
// needs every member's URL, which httptest only assigns at start), so
// each server fronts an atomic handler slot that answers 503 until
// its node is installed — the same indirection the fleet HTTP tests
// use. Probing is disabled: the members never go down mid-sample, and
// a prober would add unpaired background traffic.
func (t HandlerTarget) startFleet(d DaemonOpts) (string, func() error, error) {
	n := d.Fleet
	holders := make([]atomic.Value, n)
	srvs := make([]*httptest.Server, n)
	for i := range srvs {
		i := i
		srvs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h, ok := holders[i].Load().(http.Handler); ok {
				h.ServeHTTP(w, r)
				return
			}
			http.Error(w, "booting", http.StatusServiceUnavailable)
		}))
	}
	peers := make([]string, n)
	for i, s := range srvs {
		peers[i] = s.URL
	}
	var cleanups []func()
	stop := func() error {
		for _, s := range srvs {
			s.Close()
		}
		for _, c := range cleanups {
			c()
		}
		return nil
	}
	for i := range srvs {
		fl, err := fleet.New(fleet.Options{Self: peers[i], Peers: peers, ProbeEvery: -1})
		if err != nil {
			stop()
			return "", nil, err
		}
		h, cleanup, err := t.node(d, fl)
		if err != nil {
			stop()
			return "", nil, err
		}
		cleanups = append(cleanups, cleanup)
		holders[i].Store(h)
	}
	return strings.Join(peers, ","), stop, nil
}

// SleepInjector returns a Wrap middleware that delays every request
// by d — the canonical synthetic regression for harness self-tests
// (ISSUE 6's "sleep in the analyze handler").
func SleepInjector(d time.Duration) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			next.ServeHTTP(w, r)
		})
	}
}
