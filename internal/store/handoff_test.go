package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hydrac"
	"hydrac/internal/faultfs"
)

func handoffAnalyzer(t *testing.T) *hydrac.Analyzer {
	t.Helper()
	a, err := hydrac.New()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func handoffBase() *hydrac.TaskSet {
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

func handoffDelta(k int) hydrac.Delta {
	return hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
		Name: fmt.Sprintf("mon%03d", k), WCET: 1,
		MaxPeriod: hydrac.Time(500 + 10*k), Core: -1, Priority: 100 + k,
	}}}
}

func encodeSet(t *testing.T, set *hydrac.TaskSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sessionBytes(t *testing.T, st *Store, id string) []byte {
	t.Helper()
	ctx := context.Background()
	sess, release, err := st.Acquire(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return encodeSet(t, sess.Set())
}

// TestDetachImportRoundTripBitIdentical is the core handoff guarantee:
// a session detached from store A and imported into store B serves the
// exact bytes an uninterrupted control session would — across a
// compaction boundary, so the export carries both a non-trivial
// snapshot generation and trailing WAL deltas.
func TestDetachImportRoundTripBitIdentical(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	src, err := Open(t.TempDir(), a, Options{ProbeEvery: -1, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := Open(t.TempDir(), a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	const id = "sess-roundtrip"
	if _, err := src.Create(ctx, id, handoffBase()); err != nil {
		t.Fatal(err)
	}
	// 10 deltas with CompactEvery=4: two compactions plus a WAL tail.
	control, _, err := a.NewSession(ctx, handoffBase())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		d := handoffDelta(k)
		sess, release, err := src.Acquire(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, admitted, err := sess.Admit(ctx, d); err != nil || !admitted {
			t.Fatalf("admit %d: admitted=%v err=%v", k, admitted, err)
		}
		release()
		if _, admitted, err := control.Admit(ctx, d); err != nil || !admitted {
			t.Fatalf("control admit %d: admitted=%v err=%v", k, admitted, err)
		}
	}

	var exported Export
	if err := src.Detach(ctx, id, func(exp Export) error {
		exported = exp
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(exported.Set) == 0 {
		t.Fatal("export carries no snapshot set")
	}
	if err := dst.Import(ctx, id, exported, ""); err != nil {
		t.Fatal(err)
	}

	want := encodeSet(t, control.Set())
	if got := sessionBytes(t, dst, id); !bytes.Equal(got, want) {
		t.Fatalf("imported session state diverged from uninterrupted control:\ngot  %s\nwant %s", got, want)
	}

	// The source surrendered the session: ErrMoved, and no disk state.
	if _, _, err := src.Acquire(ctx, id); !errors.Is(err, ErrMoved) {
		t.Fatalf("Acquire on detached session: %v, want ErrMoved", err)
	}
	if _, err := os.Stat(filepath.Join(src.dir, id)); !os.IsNotExist(err) {
		t.Fatalf("source still holds %s on disk (stat err %v)", id, err)
	}
	if err := src.Detach(ctx, id, func(Export) error { return nil }); !errors.Is(err, ErrMoved) && !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Detach: %v", err)
	}

	// The destination can keep admitting — the hook re-attached.
	sess, release, err := dst.Acquire(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, admitted, err := sess.Admit(ctx, handoffDelta(10)); err != nil || !admitted {
		t.Fatalf("post-import admit: admitted=%v err=%v", admitted, err)
	}
	release()
	if _, admitted, err := control.Admit(ctx, handoffDelta(10)); err != nil || !admitted {
		t.Fatalf("control post admit: admitted=%v err=%v", admitted, err)
	}
	if got, want := sessionBytes(t, dst, id), encodeSet(t, control.Set()); !bytes.Equal(got, want) {
		t.Fatal("post-import admission diverged from control")
	}

	// And the import survives a restart of the destination store.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dst.dir, a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, want := sessionBytes(t, re, id), encodeSet(t, control.Set()); !bytes.Equal(got, want) {
		t.Fatal("imported session did not survive restart bit-identically")
	}
}

// A failed transfer must leave the session fully local and intact —
// the drain loop logs and moves on, and the node's plain shutdown
// still has the state on disk.
func TestDetachTransferFailureKeepsSessionLocal(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	st, err := Open(t.TempDir(), a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const id = "sess-keep"
	if _, err := st.Create(ctx, id, handoffBase()); err != nil {
		t.Fatal(err)
	}
	before := sessionBytes(t, st, id)

	boom := errors.New("receiver exploded")
	if err := st.Detach(ctx, id, func(Export) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Detach error = %v, want wrapped transfer error", err)
	}
	// Still served, still identical (re-hydrated from disk).
	if got := sessionBytes(t, st, id); !bytes.Equal(got, before) {
		t.Fatal("session state changed after failed handoff")
	}
}

func TestImportRejectsBadPayloads(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	st, err := Open(t.TempDir(), a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Import(ctx, "bad id!", Export{}, ""); err == nil {
		t.Error("invalid id accepted")
	}
	if err := st.Import(ctx, "garbage-set", Export{Set: []byte("{nope")}, ""); err == nil {
		t.Error("undecodable set accepted")
	}
	if _, err := os.Stat(filepath.Join(st.dir, "garbage-set")); !os.IsNotExist(err) {
		t.Error("failed import left a directory behind")
	}

	const id = "sess-dup"
	if _, err := st.Create(ctx, id, handoffBase()); err != nil {
		t.Fatal(err)
	}
	if err := st.Import(ctx, id, Export{Set: encodeSet(t, handoffBase())}, ""); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate import: %v, want ErrExists", err)
	}
	// A garbage delta must fail the import and leave nothing behind.
	if err := st.Import(ctx, "bad-delta", Export{
		Set:    encodeSet(t, handoffBase()),
		Deltas: [][]byte{[]byte("not a delta")},
	}, ""); err == nil {
		t.Error("undecodable delta accepted")
	}
	if _, err := os.Stat(filepath.Join(st.dir, "bad-delta")); !os.IsNotExist(err) {
		t.Error("failed delta import left a directory behind")
	}
}

// A retried Import carrying the token its first attempt committed
// with is acknowledged (nil), not conflicted: the sender deletes or
// keeps its local copy on exactly this verdict, and answering a
// committed transfer with ErrExists would leave the session alive on
// both nodes. The commit record must survive both a receiver restart
// and the session being handed onward.
func TestImportIdempotentWithToken(t *testing.T) {
	ctx := context.Background()
	a := handoffAnalyzer(t)
	st, err := Open(t.TempDir(), a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const id, token = "sess-token", "tok-1"
	exp := Export{Set: encodeSet(t, handoffBase())}
	if err := st.Import(ctx, id, exp, token); err != nil {
		t.Fatal(err)
	}
	before := sessionBytes(t, st, id)

	// Duplicate with the matching token: acknowledged, state untouched.
	if err := st.Import(ctx, id, exp, token); err != nil {
		t.Fatalf("retried import with matching token: %v, want nil", err)
	}
	if got := sessionBytes(t, st, id); !bytes.Equal(got, before) {
		t.Fatal("idempotent retry changed session state")
	}
	// A different token, or none, is a genuine conflict.
	if err := st.Import(ctx, id, exp, "tok-other"); !errors.Is(err, ErrExists) {
		t.Fatalf("import with mismatched token: %v, want ErrExists", err)
	}
	if err := st.Import(ctx, id, exp, ""); !errors.Is(err, ErrExists) {
		t.Fatalf("tokenless duplicate import: %v, want ErrExists", err)
	}
	// The confirm probe agrees, and never vouches for other tokens,
	// unknown ids, or locally created sessions.
	if !st.ImportedWith(id, token) {
		t.Error("ImportedWith(matching token) = false")
	}
	if st.ImportedWith(id, "tok-other") {
		t.Error("ImportedWith(mismatched token) = true")
	}
	if st.ImportedWith("sess-unknown", token) {
		t.Error("ImportedWith(unknown id) = true")
	}
	if _, err := st.Create(ctx, "sess-local", handoffBase()); err != nil {
		t.Fatal(err)
	}
	if st.ImportedWith("sess-local", token) {
		t.Error("ImportedWith vouches for a locally created session")
	}
	// A failed import leaves no commit record behind.
	if err := st.Import(ctx, "sess-bad", Export{
		Set:    encodeSet(t, handoffBase()),
		Deltas: [][]byte{[]byte("not a delta")},
	}, "tok-bad"); err == nil {
		t.Fatal("undecodable delta accepted")
	}
	if st.ImportedWith("sess-bad", "tok-bad") {
		t.Error("failed import left a confirmable commit record")
	}

	// The record survives a restart: the sender's retry window can
	// span a receiver crash.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(st.dir, a, Options{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Import(ctx, id, exp, token); err != nil {
		t.Fatalf("retried import after receiver restart: %v, want nil", err)
	}
	if !re.ImportedWith(id, token) {
		t.Error("ImportedWith after restart = false")
	}

	// ...and survives the session moving onward: "your handoff
	// committed here" stays true after a Detach.
	if err := re.Detach(ctx, id, func(Export) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !re.ImportedWith(id, token) {
		t.Error("ImportedWith after onward detach = false")
	}
}

// The token file vouches for a committed import, so it must be as
// durable as the session: a failed fsync of it fails the import with
// ErrStorage and leaves neither the session nor a confirmable commit
// record behind (otherwise a power loss could keep the fsynced session
// but drop its token, and the sender's retry would read 409).
func TestImportTokenWriteIsSynced(t *testing.T) {
	ctx := context.Background()
	in := faultfs.Wrap(nil).Fail(faultfs.Rule{Op: faultfs.OpSync, Path: tokenFile})
	st, err := Open(t.TempDir(), handoffAnalyzer(t), Options{ProbeEvery: -1, FS: in})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const id, token = "sess-token-sync", "tok-1"
	err = st.Import(ctx, id, Export{Set: encodeSet(t, handoffBase())}, token)
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("import with a failing token fsync: %v, want ErrStorage", err)
	}
	if st.Has(id) {
		t.Error("failed import left the session held")
	}
	if st.ImportedWith(id, token) {
		t.Error("failed import left a confirmable commit record")
	}
}
