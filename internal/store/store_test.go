package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydrac"
	"hydrac/internal/faultfs"
	"hydrac/internal/store"
	"hydrac/internal/wal"
)

func testBase() *hydrac.TaskSet {
	return &hydrac.TaskSet{
		Cores: 2,
		RT: []hydrac.RTTask{
			{Name: "rt0", WCET: 2, Period: 20, Deadline: 20, Core: 0, Priority: 0},
			{Name: "rt1", WCET: 3, Period: 30, Deadline: 30, Core: 1, Priority: 1},
		},
		Security: []hydrac.SecurityTask{
			{Name: "sec0", WCET: 2, MaxPeriod: 200, Core: -1, Priority: 0},
		},
	}
}

func newAnalyzer(t *testing.T) *hydrac.Analyzer {
	t.Helper()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// monitorDelta is the k-th admissible probe delta of the tests'
// shared sequence.
func monitorDelta(k int) hydrac.Delta {
	return hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: fmt.Sprintf("mon%02d", k), WCET: 1,
		MaxPeriod: hydrac.Time(500 + 10*k), Core: -1, Priority: 100 + k,
	}}}
}

func setBytes(t *testing.T, set *hydrac.TaskSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func reportBytes(t *testing.T, rep *hydrac.Report) []byte {
	t.Helper()
	cp := rep.Clone()
	cp.Timing = nil
	cp.FromCache = false
	var buf bytes.Buffer
	if err := hydrac.WriteReport(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// admitN drives n committed monitor deltas into sess.
func admitN(t *testing.T, sess *hydrac.Session, n int) {
	t.Helper()
	ctx := context.Background()
	for k := 0; k < n; k++ {
		_, admitted, err := sess.Admit(ctx, monitorDelta(k))
		if err != nil || !admitted {
			t.Fatalf("delta %d: admitted=%v err=%v", k, admitted, err)
		}
	}
}

// The tentpole property at store granularity: a recovered session's
// state AND its next report are byte-identical to a session that never
// restarted — including the placement cursor, which the probe delta's
// placement would expose if it drifted.
func TestRecoveredSessionBitIdentical(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()

	s, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "sess-a", testBase()); err != nil {
		t.Fatal(err)
	}
	sess, release, err := s.Acquire(ctx, "sess-a")
	if err != nil {
		t.Fatal(err)
	}
	admitN(t, sess, 5)
	wantSet := setBytes(t, sess.Set())
	wantCursor := sess.PlacementCursor()
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The uninterrupted twin: same base, same deltas, never persisted.
	twin, _, err := a.NewSession(ctx, testBase())
	if err != nil {
		t.Fatal(err)
	}
	admitN(t, twin, 5)

	s2, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	rec, release2, err := s2.Acquire(ctx, "sess-a")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if got := setBytes(t, rec.Set()); !bytes.Equal(got, wantSet) {
		t.Fatalf("recovered set differs:\ngot:  %s\nwant: %s", got, wantSet)
	}
	if got := rec.PlacementCursor(); got != wantCursor {
		t.Fatalf("recovered cursor = %d, want %d", got, wantCursor)
	}
	// Probe: the NEXT admission must also match byte-for-byte.
	recRep, recOK, err := rec.Admit(ctx, monitorDelta(5))
	if err != nil || !recOK {
		t.Fatalf("probe on recovered: admitted=%v err=%v", recOK, err)
	}
	twinRep, twinOK, err := twin.Admit(ctx, monitorDelta(5))
	if err != nil || !twinOK {
		t.Fatalf("probe on twin: admitted=%v err=%v", twinOK, err)
	}
	if !bytes.Equal(reportBytes(t, recRep), reportBytes(t, twinRep)) {
		t.Fatal("probe report after recovery differs from never-restarted session")
	}
}

// Compaction must preserve bit-identity and actually shed the old
// generation's files.
func TestCompactionRotatesGenerationsAndPreservesState(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()

	s, err := store.Open(dir, a, store.Options{CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "c", testBase()); err != nil {
		t.Fatal(err)
	}
	sess, release, err := s.Acquire(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	admitN(t, sess, 7) // 3 compactions (at 2, 4, 6) + 1 live record
	wantSet := setBytes(t, sess.Set())
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Old generations are gone: exactly one snapshot remains, and it
	// is not generation zero.
	ents, err := os.ReadDir(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	var snaps, gen0 []string
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), "snap-") {
			snaps = append(snaps, de.Name())
		}
		if strings.HasPrefix(de.Name(), "g0-") {
			gen0 = append(gen0, de.Name())
		}
	}
	if len(snaps) != 1 || snaps[0] == "snap-0.json" {
		t.Fatalf("want exactly one post-compaction snapshot, got %v", snaps)
	}
	if len(gen0) != 0 {
		t.Fatalf("generation-0 WAL files survived compaction: %v", gen0)
	}

	s2, err := store.Open(dir, a, store.Options{CompactEvery: 2})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	rec, release2, err := s2.Acquire(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if got := setBytes(t, rec.Set()); !bytes.Equal(got, wantSet) {
		t.Fatal("state after compaction + recovery differs")
	}
}

// With MaxLive=1, creating a second session evicts the first; touching
// the first again re-hydrates it from disk with identical state.
func TestEvictionRehydratesTransparently(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	s, err := store.Open(t.TempDir(), a, store.Options{MaxLive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// withSession acquires id, runs fn, and releases even when fn
	// fatals (defer runs during Goexit) — otherwise a failing
	// assertion would deadlock the deferred s.Close.
	withSession := func(id string, fn func(sess *hydrac.Session)) {
		t.Helper()
		sess, release, err := s.Acquire(ctx, id)
		if err != nil {
			t.Fatalf("acquire %s: %v", id, err)
		}
		defer release()
		fn(sess)
	}
	if _, err := s.Create(ctx, "first", testBase()); err != nil {
		t.Fatal(err)
	}
	var want []byte
	withSession("first", func(sess *hydrac.Session) {
		admitN(t, sess, 3)
		want = setBytes(t, sess.Set())
	})

	if _, err := s.Create(ctx, "second", testBase()); err != nil {
		t.Fatal(err) // evicts "first"
	}
	for round := 0; round < 3; round++ {
		// Evicts "second" and re-hydrates "first", then vice versa.
		withSession("first", func(sess *hydrac.Session) {
			if got := setBytes(t, sess.Set()); !bytes.Equal(got, want) {
				t.Fatalf("round %d: re-hydrated state differs", round)
			}
		})
		withSession("second", func(*hydrac.Session) {})
	}
	// Ops keep working across eviction boundaries.
	withSession("first", func(sess *hydrac.Session) {
		if _, admitted, err := sess.Admit(ctx, monitorDelta(3)); err != nil || !admitted {
			t.Fatalf("admit after re-hydration: admitted=%v err=%v", admitted, err)
		}
	})
}

func TestCreateValidation(t *testing.T) {
	ctx := context.Background()
	s, err := store.Open(t.TempDir(), newAnalyzer(t), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Create(ctx, "dup", testBase()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "dup", testBase()); !errors.Is(err, store.ErrExists) {
		t.Fatalf("duplicate id: got %v, want ErrExists", err)
	}
	for _, id := range []string{"", ".", "..", "a/b", "../escape", "no spaces", strings.Repeat("x", 129)} {
		if _, err := s.Create(ctx, id, testBase()); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
	if _, _, err := s.Acquire(ctx, "missing"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unknown id: got %v, want ErrNotFound", err)
	}
	ids := s.IDs()
	if len(ids) != 1 || ids[0] != "dup" {
		t.Fatalf("IDs() = %v", ids)
	}
}

// A WAL holding a delta the current analyzer denies must fail
// recovery loudly — serving a silently different state would betray
// an acknowledged commit.
func TestReplayDivergenceIsAnError(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()
	s, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "d", testBase()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge a logged delta that can never be admitted: a security task
	// so heavy the band becomes unschedulable.
	var buf bytes.Buffer
	bad := hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: "crusher", WCET: 100, MaxPeriod: 101, Core: -1, Priority: 9,
	}}}
	if err := hydrac.EncodeDelta(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(dir, "d", "g0-00000001.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := store.Open(dir, a, store.Options{}); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("recovery over a denied delta: got %v, want divergence error", err)
	}
}

// A generation whose log an earlier build rotated into a second
// segment cannot be replayed by this build: recovery must name the
// file and leave the directory as it was (the torn tail of the first
// segment included) instead of silently dropping the second segment's
// records.
func TestSecondSegmentFailsRecovery(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()
	s, err := store.Open(dir, a, store.Options{CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "seg", testBase()); err != nil {
		t.Fatal(err)
	}
	sess, release, err := s.Acquire(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	admitN(t, sess, 3) // generation 1 holds one logged delta
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sdir := filepath.Join(dir, "seg")
	var buf bytes.Buffer
	d := monitorDelta(3)
	if err := hydrac.EncodeDelta(&buf, &d); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(sdir, "g1-00000002.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first, err := os.OpenFile(filepath.Join(sdir, "g1-00000001.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write([]byte{0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	first.Close()
	files := func() map[string]string {
		ents, err := os.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, de := range ents {
			b, err := os.ReadFile(filepath.Join(sdir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[de.Name()] = string(b)
		}
		return m
	}
	before := files()

	if _, err := store.Open(dir, a, store.Options{CompactEvery: 2}); err == nil || !strings.Contains(err.Error(), "g1-00000002.wal") {
		t.Fatalf("recovery over a second segment: got %v, want an error naming g1-00000002.wal", err)
	}
	after := files()
	if len(after) != len(before) {
		t.Fatalf("failed recovery changed the directory: %d files, want %d", len(after), len(before))
	}
	for name, b := range before {
		if after[name] != b {
			t.Errorf("failed recovery changed %s", name)
		}
	}
}

// A directory that never reached its first snapshot (crash inside
// Create) is cleaned up, not served and not fatal.
func TestHalfCreatedSessionIsCleanedUp(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "halfborn"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, newAnalyzer(t), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != 0 {
		t.Fatalf("recovered %d sessions from a half-created dir, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "halfborn")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("half-created dir not removed: %v", err)
	}
}

// An unparseable latest snapshot must fail Open: falling back a
// generation would rewind acknowledged state.
func TestCorruptSnapshotFailsOpen(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()
	s, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "x", testBase()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "x", "snap-0.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir, a, store.Options{}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

// NoSync stores still flush everything by Close: a graceful shutdown
// loses nothing even without per-commit fsync.
func TestNoSyncCloseFlushes(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()
	s, err := store.Open(dir, a, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "n", testBase()); err != nil {
		t.Fatal(err)
	}
	sess, release, err := s.Acquire(ctx, "n")
	if err != nil {
		t.Fatal(err)
	}
	admitN(t, sess, 3)
	want := setBytes(t, sess.Set())
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, release2, err := s2.Acquire(ctx, "n")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if got := setBytes(t, rec.Set()); !bytes.Equal(got, want) {
		t.Fatal("NoSync store lost committed deltas across a graceful Close")
	}
}

// NoSync drops only the per-commit WAL fsync. hydrad runs a -data-dir
// store with -wal-sync=false as NoSync, that directory outlives the
// process, and recovery trusts the newest snapshot, so a snapshot and
// the directory entries of the snapshot and its log file are
// still synced: a failure of any of those syncs fails Create.
func TestNoSyncStoreSyncsSnapshots(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	for _, r := range []faultfs.Rule{
		{Op: faultfs.OpSync, Path: "snap-0.json"},
		{Op: faultfs.OpSyncDir, Nth: 1}, // after the snapshot's rename
		{Op: faultfs.OpSyncDir, Nth: 2}, // after the log file's creation
	} {
		s, err := store.Open(t.TempDir(), a, store.Options{NoSync: true, ProbeEvery: -1, FS: faultfs.Wrap(nil).Fail(r)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Create(ctx, "n", testBase()); !errors.Is(err, store.ErrStorage) {
			t.Errorf("NoSync store with failing %s #%d: Create = %v, want ErrStorage", r.Op, r.Nth, err)
		}
		s.Close()
	}
}

// Concurrent traffic against a tiny live window: every op either
// completes or re-hydrates, never corrupts, and the survivors replay.
func TestConcurrentAcquireUnderEviction(t *testing.T) {
	ctx := context.Background()
	a := newAnalyzer(t)
	dir := t.TempDir()
	s, err := store.Open(dir, a, store.Options{MaxLive: 2})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	for i := 0; i < sessions; i++ {
		if _, err := s.Create(ctx, fmt.Sprintf("s%d", i), testBase()); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			id := fmt.Sprintf("s%d", i)
			for k := 0; k < 5; k++ {
				sess, release, err := s.Acquire(ctx, id)
				if err != nil {
					done <- fmt.Errorf("%s step %d: %w", id, k, err)
					return
				}
				_, admitted, err := sess.Admit(ctx, monitorDelta(k))
				release()
				if err != nil || !admitted {
					done <- fmt.Errorf("%s step %d: admitted=%v err=%v", id, k, admitted, err)
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything that was acknowledged survives a full restart.
	s2, err := store.Open(dir, a, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := setBytes(t, func() *hydrac.TaskSet {
		twin, _, err := a.NewSession(ctx, testBase())
		if err != nil {
			t.Fatal(err)
		}
		admitN(t, twin, 5)
		return twin.Set()
	}())
	for i := 0; i < sessions; i++ {
		rec, release, err := s2.Acquire(ctx, fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := setBytes(t, rec.Set())
		release()
		if !bytes.Equal(got, want) {
			t.Fatalf("session s%d recovered to a different state", i)
		}
	}
}
