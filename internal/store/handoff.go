package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hydrac"
	"hydrac/internal/wal"
)

// ErrMoved reports a session this store USED to hold but handed off
// to another node: the local copy was surrendered and deleted, so the
// caller should re-route to the session's new owner rather than treat
// it as missing.
var ErrMoved = errors.New("store: session was handed off to another node")

// Export is one session's complete durable state in transfer form:
// the latest snapshot's placed set (raw task-file JSON) and placement
// cursor, plus every committed delta logged since that snapshot, in
// commit order. Importing it through the standard recovery replay
// reproduces the session bit-identically — the same machinery, and
// the same guarantee, as a crash restart.
type Export struct {
	// Set is the snapshot's task set, in the standard file schema.
	Set json.RawMessage
	// Cursor is the snapshot's next-fit placement cursor.
	Cursor int
	// Deltas are the WAL records (encoded deltas) after the snapshot.
	Deltas [][]byte
}

// Detach hands the session off: it freezes the session (waiting out
// in-flight operations), reads its snapshot + committed-delta log
// from disk, and calls transfer with the export. Only if transfer
// returns nil is the local copy surrendered — marked moved (further
// Acquires return ErrMoved) and deleted from disk, so a restart can
// never resurrect a stale twin of a session another node now owns.
// On transfer failure the session stays fully local and intact: the
// next Acquire re-hydrates it from the untouched disk state.
//
// The entry lock is held across transfer, so a concurrent request for
// this session blocks until the handoff settles and then either gets
// the intact local session (failure) or ErrMoved (success) — never a
// window where the state exists on both nodes or neither.
func (s *Store) Detach(ctx context.Context, id string, transfer func(Export) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	e := s.entries[id]
	_, wasMoved := s.movedIDs[id]
	s.mu.Unlock()
	if e == nil {
		if wasMoved {
			return fmt.Errorf("%w: %s", ErrMoved, id)
		}
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e.mu.Lock()
	if e.moved {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrMoved, id)
	}
	// Close the live state first so the disk holds everything (a
	// NoSync WAL may have unsynced appends; Close flushes them) and
	// export from files, not memory — the bytes shipped are exactly
	// the bytes a restart would recover from.
	if e.wal != nil {
		_ = e.wal.Close()
	}
	e.sess, e.wal = nil, nil
	exp, err := s.exportLocked(e)
	if err != nil {
		e.mu.Unlock()
		return fmt.Errorf("%w: exporting session %s: %v", ErrStorage, id, err)
	}
	if err := transfer(exp); err != nil {
		e.mu.Unlock()
		return fmt.Errorf("store: handing off session %s: %w", id, err)
	}
	e.moved = true
	// The receiver acknowledged: it is authoritative now. Deleting the
	// local directory is part of correctness, not cleanup — two nodes
	// must never both recover this id.
	if err := os.RemoveAll(e.dir); err != nil {
		s.logf("store: removing handed-off session %s: %v", id, err)
	}
	e.mu.Unlock()
	// Lock order: s.mu is never taken under e.mu, so drop the entry
	// lock first. The live LRU may still reference e; its eviction
	// close is a no-op on an already-torn-down entry.
	s.mu.Lock()
	delete(s.entries, id)
	s.movedIDs[id] = struct{}{}
	s.mu.Unlock()
	return nil
}

// exportLocked reads e's durable state from disk. e.mu must be
// write-held with the live WAL handle closed.
func (s *Store) exportLocked(e *entry) (Export, error) {
	gen, sf, _, err := readLatestSnapshotRaw(s.fs, e.dir)
	if err != nil {
		return Export{}, err
	}
	recs, err := wal.ReadAll(walPath(e.dir, gen), s.walOptions())
	if err != nil {
		return Export{}, err
	}
	return Export{Set: sf.Set, Cursor: sf.NextFit, Deltas: recs}, nil
}

// tokenFile marks a completed import inside a session directory: it
// holds the sender-chosen handoff token and is written only after the
// imported state fully committed (persisted AND replay-verified). Its
// presence is what makes a retried handoff idempotent across a
// receiver restart — the answer to "did handoff <token> commit here?"
// must not depend on this process's memory.
const tokenFile = "handoff.token"

// Import installs a session streamed from another node: persist the
// export as generation 0 (snapshot, then every delta appended to a
// fresh WAL), then recover it through the standard replay path. An
// import is therefore indistinguishable from a restart of a local
// session — same code, same bit-identity guarantee — and the session
// is fully durable before Import returns.
//
// token, when non-empty, is the sender's identity for this handoff
// and makes the import idempotent: a duplicate Import whose token
// matches the one the id was committed with answers nil instead of
// ErrExists. The sender decides surrender-vs-keep its local copy from
// this answer, so a retry after a lost acknowledgement must not be
// told "conflict" — that reading would leave the session alive on
// both nodes. ErrExists is reserved for a genuine id collision.
func (s *Store) Import(ctx context.Context, id string, exp Export, token string) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid session id %q (want 1-128 chars of [a-zA-Z0-9_-])", id)
	}
	e := &entry{id: id, dir: filepath.Join(s.dir, id)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: closed")
	}
	if existing, ok := s.entries[id]; ok {
		s.mu.Unlock()
		// tokenOf takes the entry lock, so a retry racing a
		// still-running first attempt blocks here until that attempt
		// settles and then reads its verdict: token file present ⇒
		// committed ⇒ acknowledge the duplicate.
		if token != "" && s.tokenOf(existing) == token {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	s.entries[id] = e
	// The id may have left this node earlier and is now legitimately
	// coming back (a drain bounced it around the ring): the tombstone
	// is obsolete.
	delete(s.movedIDs, id)
	s.mu.Unlock()

	e.mu.Lock()
	err := s.importLocked(ctx, e, exp, token)
	e.mu.Unlock()
	if err != nil {
		s.mu.Lock()
		delete(s.entries, id)
		s.mu.Unlock()
		_ = os.RemoveAll(e.dir)
		return err
	}
	s.mu.Lock()
	if token != "" {
		s.importTokens[id] = token
	} else {
		delete(s.importTokens, id)
	}
	s.mu.Unlock()
	s.live.Add(id, e)
	return nil
}

// tokenOf reads the handoff token e committed with, waiting out any
// in-flight import or detach on the entry. Empty for sessions created
// locally or whose import never completed.
func (s *Store) tokenOf(e *entry) string {
	e.mu.RLock()
	raw, err := s.fs.ReadFile(filepath.Join(e.dir, tokenFile))
	e.mu.RUnlock()
	if err != nil {
		return ""
	}
	return string(raw)
}

// ImportedWith reports whether a handoff carrying token committed on
// this store for id — whether the session is still held here or has
// since been handed onward. It answers the receiver half of a
// sender's post-failure confirmation probe: true means the sender's
// state landed durably and its local copy must be surrendered.
func (s *Store) ImportedWith(id, token string) bool {
	if token == "" || !validID(id) {
		return false
	}
	s.mu.Lock()
	if t, ok := s.importTokens[id]; ok {
		s.mu.Unlock()
		return t == token
	}
	e := s.entries[id]
	s.mu.Unlock()
	if e == nil {
		return false
	}
	// Recovered-after-restart sessions have no in-memory token yet;
	// the session dir's token file is the durable record.
	t := s.tokenOf(e)
	if t == "" {
		return false
	}
	s.mu.Lock()
	s.importTokens[id] = t
	s.mu.Unlock()
	return t == token
}

// importLocked persists exp into e's directory and rehydrates. e.mu
// must be write-held. Input errors (undecodable set, replay
// divergence) come back raw; disk failures wrap ErrStorage.
func (s *Store) importLocked(ctx context.Context, e *entry, exp Export, token string) error {
	// Validate the payload decodes BEFORE creating anything on disk.
	set, err := hydrac.DecodeTaskSet(bytes.NewReader(exp.Set))
	if err != nil {
		return fmt.Errorf("handoff snapshot set: %w", err)
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	if err := writeSnapshot(s.fs, e.dir, 0, set, exp.Cursor); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	// Unsynced appends: nothing is acknowledged before Close, the
	// replay and the token write all succeed, and Close syncs the log
	// once instead of once per delta.
	l, _, err := wal.Open(walPath(e.dir, 0), wal.Options{NoSync: true, FS: s.fs})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	for i, rec := range exp.Deltas {
		if err := l.Append(rec); err != nil {
			_ = l.Close()
			return fmt.Errorf("%w: persisting handoff delta %d: %v", ErrStorage, i, err)
		}
	}
	if err := l.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	// Recover from what was just persisted — replay validates every
	// delta re-admits, exactly as a restart would.
	if err := s.rehydrate(ctx, e); err != nil {
		return err
	}
	if token != "" {
		// Last write on purpose: the file may only exist once the
		// import is committed, because a retry or confirm probe reads
		// its presence as "acknowledged". It is written as durably as
		// the session itself: a token lost to power failure while the
		// fsynced session survives would turn the sender's retry into a
		// 409 and its confirm probe into a 404, and both nodes would
		// keep the session. Failing this write fails the whole import —
		// re-transferring is cheaper than holding a session whose
		// acknowledgement can never be verified.
		if err := writeFileAtomic(s.fs, filepath.Join(e.dir, tokenFile), []byte(token)); err != nil {
			return fmt.Errorf("%w: writing handoff token: %v", ErrStorage, err)
		}
	}
	return nil
}
