// Package store is the durable session tier of hydrad: a lifecycle
// manager that gives every admission session (hydrac.Session) a
// directory of snapshot + write-ahead-log state and recovers all of
// them by replay on boot. Durability rides on the session's own
// semantics — its commit hook sees every committed delta, in commit
// order, and a serial replay of those deltas is deterministic and
// oracle-pinned — so recovery is bit-identical by construction: a
// recovered session re-analyses the same placed set through the same
// equations and must produce byte-identical reports, which the
// crash-injection tests assert against uninterrupted sessions.
//
// Per-session on-disk layout (<root>/<id>/):
//
//	snap-<gen>.json       snapshot: placed task set + placement cursor
//	g<gen>-00000001.wal   CRC-framed log of the deltas committed after it
//
// Each generation has one log file, named as its first segment was
// when logs were segmented, so directories written then open
// unchanged.
//
// Commit ordering: the session's commit hook appends the delta to the
// WAL (and fsyncs) BEFORE the session installs the new state, so an
// acknowledged commit is always on disk; a crash between append and
// acknowledgement replays a delta the client never heard about, which
// is harmless — replay converges on the same committed state. Every
// CompactEvery commits the hook writes a fresh snapshot of the
// post-delta state and rotates to a new WAL generation; recovery
// always loads the highest generation with a valid snapshot, so a
// crash anywhere inside compaction leaves either the old or the new
// generation whole.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hydrac"
	"hydrac/internal/faultfs"
	"hydrac/internal/lru"
	"hydrac/internal/wal"
)

// ErrNotFound reports an id with no session on disk or in memory.
var ErrNotFound = errors.New("store: no such session")

// ErrExists reports a Create of an id that already has a session.
var ErrExists = errors.New("store: session already exists")

// ErrStorage marks commit failures caused by the persistence layer
// (WAL append, compaction) rather than by the admission input — callers
// surface these as server faults, not client errors.
var ErrStorage = errors.New("store: storage failure")

// ErrDegraded marks mutations rejected because the session is in
// degraded read-only mode: an earlier storage fault (failed fsync,
// compaction that lost its log) means new commits could not be made
// durable, so they are refused outright while reads keep working.
// Wraps ErrStorage, so errors.Is(err, ErrStorage) still holds; a
// background probe (or an explicit Probe call) re-arms the session
// from disk once the storage heals. Callers surface this as 503, not
// 500: the condition is expected to clear.
var ErrDegraded = fmt.Errorf("%w: degraded", ErrStorage)

// DefaultMaxLive bounds materialised engines when Options.MaxLive is
// unset: live sessions hold analysed state and kernel scratch, so the
// store keeps a bounded working set warm and re-hydrates the rest
// from disk on demand.
const DefaultMaxLive = 256

// DefaultCompactEvery is the WAL record count that triggers a
// snapshot + log rotation.
const DefaultCompactEvery = 256

// DefaultProbeEvery is the background re-arm interval for degraded
// sessions: long enough that a genuinely sick disk is not hammered,
// short enough that a transient hiccup (full disk freed, remount)
// clears without operator action.
const DefaultProbeEvery = 5 * time.Second

// Options tunes a Store.
type Options struct {
	// MaxLive bounds live engines (LRU); <= 0 means DefaultMaxLive.
	// Evicted sessions stay fully recoverable on disk.
	MaxLive int
	// NoSync disables the per-commit fsync: commits are durable only
	// against process crashes (the OS holds the bytes), not power
	// loss. For benchmarks, tests and stores whose directory does not
	// outlive the process (hydrad without -data-dir); a store meant to
	// survive a restart keeps it false.
	NoSync bool
	// CompactEvery rotates a session's WAL into a fresh snapshot +
	// empty log once it holds this many records; <= 0 means
	// DefaultCompactEvery.
	CompactEvery int
	// ProbeEvery is how often a background goroutine attempts to
	// re-arm degraded sessions from disk; 0 means DefaultProbeEvery,
	// negative disables the loop (tests drive Probe directly).
	ProbeEvery time.Duration
	// FS is the filesystem seam snapshots and WALs write through; nil
	// means the real OS. The chaos suite injects faults here.
	FS faultfs.FS
	// Logf receives operational messages (compaction failures, cleanup
	// of half-created sessions); nil is quiet.
	Logf func(format string, args ...any)
}

// Store manages durable sessions under one root directory. All
// methods are safe for concurrent use.
//
// Lock order: the live-set LRU (and s.mu) are always taken before a
// session entry's lock, and entry lock holders never call back into
// the LRU — commit hooks run under an entry read lock and touch only
// that entry's WAL.
type Store struct {
	dir string
	a   *hydrac.Analyzer
	opt Options
	fs  faultfs.FS

	mu      sync.Mutex
	closed  bool
	entries map[string]*entry
	// movedIDs tombstones sessions handed off to another node
	// (Detach): Acquire answers ErrMoved for them so the HTTP layer
	// redirects instead of 404ing. In-memory only — after a restart
	// the id is simply absent, which is equally true.
	movedIDs map[string]struct{}
	// importTokens remembers the handoff token each imported session
	// arrived with, so a retried import can be told apart from a
	// genuine id conflict and the sender's confirm probe can be
	// answered. Entries survive a Detach — "your handoff committed
	// here" stays true after the session moves on — and reload lazily
	// from the session dir's token file after a restart.
	importTokens map[string]string
	// live keeps the most recently used entries materialised; eviction
	// closes the entry's engine + WAL handle, leaving disk state as
	// the only copy.
	live *lru.Cache[string, *entry]

	// stop/wg manage the background degraded-session probe loop.
	stop chan struct{}
	wg   sync.WaitGroup
}

// entry is one session's lifecycle state. sess/wal/gen are guarded by
// mu: operations hold the read lock (hooks included), while eviction
// and re-hydration hold the write lock, so a session is never torn
// down mid-request and never materialised twice.
type entry struct {
	id  string
	dir string

	mu   sync.RWMutex
	sess *hydrac.Session
	wal  *wal.Log
	gen  uint64
	// moved marks a session handed off to another node (Detach): its
	// disk state is gone and Acquire answers ErrMoved so the HTTP
	// layer can redirect to the new owner instead of 404ing.
	moved bool

	// degMu guards the degraded state separately from mu, because the
	// commit hook (which marks it) runs with mu read-held while the
	// probe loop and health reads inspect it from outside. degraded
	// non-nil means the session is read-only: an earlier storage fault
	// left the live WAL unusable (failed append) or superseded (failed
	// rotation), so further commits would be lost — they are refused
	// with ErrDegraded until a re-hydration from disk re-arms the
	// entry. Reads stay served from the committed in-memory state,
	// which the aborted commit never touched.
	degMu    sync.Mutex
	degraded error
	degSince time.Time
}

// fault returns the entry's degradation, or nil when healthy.
func (e *entry) fault() error {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	return e.degraded
}

// markDegraded flips the entry read-only. The first fault wins: a
// probe failure must not overwrite the root cause with its own.
func (e *entry) markDegraded(err error) {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	if e.degraded == nil {
		e.degraded, e.degSince = err, time.Now()
	}
}

func (e *entry) clearDegraded() {
	e.degMu.Lock()
	defer e.degMu.Unlock()
	e.degraded, e.degSince = nil, time.Time{}
}

// Open loads the store rooted at dir, creating it if absent, and
// recovers every session on disk by replay — each session's latest
// valid snapshot is re-analysed and its WAL deltas re-admitted
// through a fresh engine, repairing torn WAL tails along the way. A
// session that fails recovery fails Open: serving a partial fleet
// would silently drop committed admission state.
func Open(dir string, a *hydrac.Analyzer, opt Options) (*Store, error) {
	if opt.MaxLive <= 0 {
		opt.MaxLive = DefaultMaxLive
	}
	if opt.CompactEvery <= 0 {
		opt.CompactEvery = DefaultCompactEvery
	}
	if opt.ProbeEvery == 0 {
		opt.ProbeEvery = DefaultProbeEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	s := &Store{dir: dir, a: a, opt: opt, fs: faultfs.Default(opt.FS), entries: map[string]*entry{}, movedIDs: map[string]struct{}{}, importTokens: map[string]string{}, stop: make(chan struct{})}
	s.live = lru.New[string, *entry](opt.MaxLive)
	s.live.OnEvict(func(id string, e *entry) { e.close() })

	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning root: %w", err)
	}
	ctx := context.Background()
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		id := de.Name()
		if !validID(id) {
			s.logf("store: ignoring non-session directory %q", id)
			continue
		}
		e := &entry{id: id, dir: filepath.Join(dir, id)}
		if !hasSnapshot(e.dir) {
			// A crash between mkdir and the first snapshot write: the
			// session never existed durably. Clean it up.
			s.logf("store: removing half-created session %s", id)
			_ = os.RemoveAll(e.dir)
			continue
		}
		e.mu.Lock()
		err := s.rehydrate(ctx, e)
		e.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("store: recovering session %s: %w", id, err)
		}
		s.entries[id] = e
		// The LRU caps how many recovered engines stay warm; evicted
		// ones were still verified by the replay above.
		s.live.Add(id, e)
	}
	if opt.ProbeEvery > 0 {
		s.wg.Add(1)
		go s.probeLoop()
	}
	return s, nil
}

// probeLoop periodically re-arms degraded sessions until Close.
func (s *Store) probeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if rearmed, still := s.Probe(context.Background()); rearmed > 0 || still > 0 {
				s.logf("store: probe re-armed %d degraded sessions, %d still degraded", rearmed, still)
			}
		}
	}
}

// Probe attempts to re-arm every degraded session NOW: each one's live
// state is torn down and re-hydrated from disk (latest snapshot + WAL
// replay, the same path a restart takes), which both verifies the
// storage is healthy again and restores the exact committed state —
// the aborted commits that degraded the session were never installed
// in memory or on disk, so the re-hydrated session is bit-identical
// to the committed history. Returns how many sessions were re-armed
// and how many remain degraded. The background loop calls this every
// ProbeEvery; tests and operators can call it directly.
func (s *Store) Probe(ctx context.Context) (rearmed, degraded int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0
	}
	var sick []*entry
	for _, e := range s.entries {
		if e.fault() != nil {
			sick = append(sick, e)
		}
	}
	s.mu.Unlock()
	for _, e := range sick {
		// Lock order: live LRU before the entry lock.
		s.live.Add(e.id, e)
		e.mu.Lock()
		if e.fault() == nil { // raced with another probe or rehydration
			e.mu.Unlock()
			continue
		}
		// Stage the replacement BEFORE tearing anything down: while the
		// disk is still sick the old (degraded but readable) state must
		// keep serving reads, so a failed probe leaves it untouched.
		sess, l, gen, stale, err := s.loadFromDisk(ctx, e)
		if err != nil {
			e.mu.Unlock()
			s.logf("store: session %s still degraded after probe: %v", e.id, err)
			degraded++
			continue
		}
		if e.wal != nil {
			_ = e.wal.Close()
		}
		s.install(e, sess, l, gen, stale)
		e.mu.Unlock()
		s.logf("store: session %s re-armed from disk after degradation", e.id)
		rearmed++
	}
	return rearmed, degraded
}

// Health summarises the store's storage state for /healthz: how many
// sessions are currently degraded (read-only) and one representative
// reason.
type Health struct {
	// Sessions is the total session count (live or not).
	Sessions int
	// Degraded counts sessions refusing mutations.
	Degraded int
	// Reason is one degraded session's fault, empty when healthy.
	Reason string
	// Since is the oldest degradation's start time.
	Since time.Time
}

// OK reports whether every session accepts mutations.
func (h Health) OK() bool { return h.Degraded == 0 }

// Health reports the store's current storage health.
func (s *Store) Health() Health {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	h := Health{Sessions: len(entries)}
	for _, e := range entries {
		e.degMu.Lock()
		if e.degraded != nil {
			h.Degraded++
			if h.Reason == "" || e.degSince.Before(h.Since) {
				h.Reason = e.degraded.Error()
				h.Since = e.degSince
			}
		}
		e.degMu.Unlock()
	}
	return h
}

// Len returns the number of sessions the store holds (live or not).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Has reports whether the store currently holds id (live or cold on
// disk). A handed-off session is not held.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// IDs returns every session id, sorted.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Create opens a new durable session over base: the session is
// analysed first (an infeasible base never touches disk), then its
// placed set and cursor are snapshotted and an empty WAL generation
// is created, and only then is the commit hook attached. Returns the
// initial report.
func (s *Store) Create(ctx context.Context, id string, base *hydrac.TaskSet) (*hydrac.Report, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: invalid session id %q (want 1-128 chars of [a-zA-Z0-9_-])", id)
	}
	e := &entry{id: id, dir: filepath.Join(s.dir, id)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("store: closed")
	}
	if _, ok := s.entries[id]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	s.entries[id] = e
	s.mu.Unlock()

	e.mu.Lock()
	rep, err := s.createLocked(ctx, e, base)
	e.mu.Unlock()
	if err != nil {
		s.mu.Lock()
		delete(s.entries, id)
		s.mu.Unlock()
		_ = os.RemoveAll(e.dir)
		return nil, err
	}
	s.live.Add(id, e)
	return rep, nil
}

// createLocked is the body of Create; e.mu must be write-held. Disk
// failures are wrapped in ErrStorage — the base set was fine, the
// storage was not — so the HTTP layer answers 503, not 422.
func (s *Store) createLocked(ctx context.Context, e *entry, base *hydrac.TaskSet) (*hydrac.Report, error) {
	sess, rep, err := s.a.NewSession(ctx, base)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if err := writeSnapshot(s.fs, e.dir, 0, sess.Set(), sess.PlacementCursor()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	l, _, err := wal.Open(walPath(e.dir, 0), s.walOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	e.sess, e.wal, e.gen = sess, l, 0
	sess.SetCommitHook(s.hookFor(e))
	return rep, nil
}

// Acquire returns the live session for id, re-hydrating it from disk
// if it was evicted, plus a release func the caller must invoke once
// done with THIS operation. The handle is valid only until release:
// holding it longer would race with eviction.
func (s *Store) Acquire(ctx context.Context, id string) (*hydrac.Session, func(), error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, errors.New("store: closed")
	}
	e := s.entries[id]
	_, wasMoved := s.movedIDs[id]
	s.mu.Unlock()
	if e == nil {
		if wasMoved {
			return nil, nil, fmt.Errorf("%w: %s", ErrMoved, id)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	// Touch the live set first (lock order: LRU before entry); this
	// may synchronously evict other entries.
	s.live.Add(id, e)
	for {
		e.mu.RLock()
		if e.moved {
			e.mu.RUnlock()
			return nil, nil, fmt.Errorf("%w: %s", ErrMoved, id)
		}
		if e.sess != nil {
			sess := e.sess
			return sess, e.mu.RUnlock, nil
		}
		e.mu.RUnlock()
		e.mu.Lock()
		var err error
		switch {
		case e.moved:
			err = fmt.Errorf("%w: %s", ErrMoved, id)
		case e.sess == nil:
			err = s.rehydrate(ctx, e)
		}
		e.mu.Unlock()
		if err != nil {
			if errors.Is(err, ErrMoved) {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("store: re-hydrating session %s: %w", id, err)
		}
		// Loop: an eviction storm could tear the session down again
		// between the Unlock and the RLock above.
	}
}

// Close flushes and closes every live session. The store must not be
// used afterwards. With per-commit fsync (the default) there is
// nothing buffered to lose even without Close; it exists so graceful
// shutdown releases file handles and flushes NoSync stores.
func (s *Store) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.stop)
		s.wg.Wait()
	}
	for _, e := range entries {
		e.close()
	}
	return nil
}

// close tears down the entry's live state (engine + WAL handle). Disk
// state remains authoritative; a later Acquire re-hydrates.
func (e *entry) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		_ = e.wal.Close()
	}
	e.sess, e.wal = nil, nil
}

// rehydrate materialises e from disk: load the latest valid snapshot,
// open (and tail-repair) its WAL generation, re-admit every logged
// delta through a fresh engine, then attach the commit hook — after
// replay, so replayed deltas are not re-logged. e.mu must be
// write-held.
func (s *Store) rehydrate(ctx context.Context, e *entry) error {
	sess, l, gen, stale, err := s.loadFromDisk(ctx, e)
	if err != nil {
		return err
	}
	s.install(e, sess, l, gen, stale)
	return nil
}

// loadFromDisk stages a fresh engine + WAL from e's directory without
// touching e's live fields, so callers (Probe) can keep serving the
// old state when staging fails. e.mu must be write-held (it guards the
// directory against concurrent compaction).
func (s *Store) loadFromDisk(ctx context.Context, e *entry) (*hydrac.Session, *wal.Log, uint64, []uint64, error) {
	gen, set, cursor, stale, err := readLatestSnapshot(s.fs, e.dir)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	// An earlier build rotated a log past 1 MiB into a second segment,
	// which this build does not replay. Refuse it before wal.Open may
	// repair anything, so the directory is left as it was.
	second := filepath.Join(e.dir, fmt.Sprintf("g%d-00000002.wal", gen))
	if _, err := os.Stat(second); err == nil {
		return nil, nil, 0, nil, fmt.Errorf("%s continues generation %d's log in a second segment, which this build cannot replay", second, gen)
	}
	l, recs, err := wal.Open(walPath(e.dir, gen), s.walOptions())
	if err != nil {
		return nil, nil, 0, nil, err
	}
	sess, _, err := s.a.NewSessionWith(ctx, set, hydrac.SessionConfig{NextFitCursor: cursor})
	if err != nil {
		l.Close()
		return nil, nil, 0, nil, fmt.Errorf("re-analysing snapshot: %w", err)
	}
	for i, rec := range recs {
		d, err := hydrac.DecodeDelta(bytes.NewReader(rec))
		if err != nil {
			l.Close()
			return nil, nil, 0, nil, fmt.Errorf("WAL record %d: %w", i, err)
		}
		_, admitted, err := sess.Admit(ctx, *d)
		if err != nil {
			l.Close()
			return nil, nil, 0, nil, fmt.Errorf("replaying WAL record %d: %w", i, err)
		}
		if !admitted {
			// The delta committed when it was logged but is denied
			// now: the analyzer configuration must have drifted (e.g.
			// a different heuristic). Refusing is the only safe move —
			// this state was acknowledged to a client.
			l.Close()
			return nil, nil, 0, nil, fmt.Errorf("replay diverged at WAL record %d: a logged delta was denied (analyzer configuration changed since this session was written?)", i)
		}
	}
	return sess, l, gen, stale, nil
}

// install makes a staged session e's live state. e.mu must be
// write-held; any previous live WAL handle must already be closed.
func (s *Store) install(e *entry, sess *hydrac.Session, l *wal.Log, gen uint64, stale []uint64) {
	e.sess, e.wal, e.gen = sess, l, gen
	// A successful re-hydration proves the disk serves reads and a
	// fresh WAL accepts appends again: the session leaves degraded
	// mode (it may never have been in it — this is also the plain
	// eviction re-materialisation path).
	e.clearDegraded()
	sess.SetCommitHook(s.hookFor(e))
	// Older generations are superseded; removing them is cleanup, not
	// correctness (recovery always picks the highest valid snapshot).
	for _, g := range stale {
		s.removeGeneration(e.dir, g)
	}
}

// hookFor builds e's commit hook: append-and-fsync the delta, then
// compact if the generation is full. Runs under the session lock (so
// appends are in commit order) with e.mu read-held by the operation
// that triggered it.
func (s *Store) hookFor(e *entry) hydrac.CommitHook {
	var buf bytes.Buffer
	return func(d hydrac.Delta, state *hydrac.TaskSet, cursor int) error {
		if err := e.fault(); err != nil {
			return fmt.Errorf("%w: session is read-only after a storage fault (a probe re-arms it once the disk heals): %v", ErrDegraded, err)
		}
		buf.Reset()
		if err := hydrac.EncodeDelta(&buf, &d); err != nil {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		if err := e.wal.Append(buf.Bytes()); err != nil {
			// The failed Log must not be appended to again (it may hold
			// a torn frame): flip the session read-only. The commit this
			// hook guards is aborted, so memory still matches the
			// committed on-disk history, and re-hydration (which repairs
			// the torn tail) restores an identical session.
			e.markDegraded(fmt.Errorf("WAL append failed: %v", err))
			s.logf("store: session %s: WAL append failed, session degraded to read-only: %v", e.id, err)
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		if e.wal.Count() >= s.opt.CompactEvery {
			s.compact(e, state, cursor)
		}
		return nil
	}
}

// compact rotates e onto a fresh generation: snapshot the post-delta
// state, open an empty WAL under the next generation prefix, then
// delete the superseded files. Failures never affect the commit that
// triggered compaction — the delta is already durable in the old
// generation. A snapshot failure is retried at the next commit (the
// old generation is still whole and still current); a failure AFTER
// the new snapshot became authoritative flips the session into
// degraded read-only mode — further live commits would land in a log
// recovery no longer reads — until a probe re-arms it from the new
// generation.
func (s *Store) compact(e *entry, state *hydrac.TaskSet, cursor int) {
	next := e.gen + 1
	if err := writeSnapshot(s.fs, e.dir, next, state, cursor); err != nil {
		// Old generation still whole and still current: skip this
		// compaction and retry at the next commit.
		s.logf("store: session %s: compaction snapshot failed (will retry): %v", e.id, err)
		return
	}
	l, _, err := wal.Open(walPath(e.dir, next), s.walOptions())
	if err != nil {
		e.markDegraded(fmt.Errorf("opening WAL generation %d after its snapshot was written: %v", next, err))
		s.logf("store: session %s: compaction lost its log, session degraded to read-only: %v", e.id, err)
		return
	}
	old, oldGen := e.wal, e.gen
	e.wal, e.gen = l, next
	_ = old.Close()
	s.removeGeneration(e.dir, oldGen)
}

// removeGeneration deletes one superseded generation's snapshot and
// log, then syncs the directory once, best-effort.
func (s *Store) removeGeneration(dir string, gen uint64) {
	for _, path := range []string{snapshotPath(dir, gen), walPath(dir, gen)} {
		if err := s.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("store: removing %s: %v", path, err)
		}
	}
	if err := s.fs.SyncDir(dir); err != nil {
		s.logf("store: syncing %s after removing generation %d: %v", dir, gen, err)
	}
}

func (s *Store) walOptions() wal.Options {
	return wal.Options{NoSync: s.opt.NoSync, FS: s.fs}
}

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// walPath names generation gen's log file.
func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("g%d-00000001.wal", gen))
}

// validID accepts ids that are safe as directory names everywhere:
// 1-128 characters of [a-zA-Z0-9_-]. Session ids minted by hydrad
// (32 hex chars) always pass.
func validID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
