package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hydrac/internal/faultfs"
)

// logPath names a log file in a fresh directory.
func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "g0-00000001.wal")
}

// openAppend opens the log at path with opt, appends every record, and
// closes it.
func openAppend(t *testing.T, path string, opt Options, recs ...[]byte) {
	t.Helper()
	l, _, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recovered opens the log read-write and returns the records.
func recovered(t *testing.T, path string, opt Options) [][]byte {
	t.Helper()
	l, recs, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return recs
}

func wantRecords(t *testing.T, got [][]byte, want ...[]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := logPath(t)
	recs := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte{0xAB}, 1000)}
	openAppend(t, path, Options{}, recs...)
	wantRecords(t, recovered(t, path, Options{}), recs...)

	// A second append session continues where the first stopped.
	openAppend(t, path, Options{}, []byte("four"))
	wantRecords(t, recovered(t, path, Options{}), append(recs, []byte("four"))...)
}

func TestEmptyDirStartsFreshLog(t *testing.T) {
	path := logPath(t)
	l, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || l.Count() != 0 {
		t.Fatalf("fresh log recovered %d records, count %d", len(recs), l.Count())
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 1 {
		t.Fatalf("count = %d after one append", l.Count())
	}
	l.Close()
}

func TestTornTailTruncatedMidRecord(t *testing.T) {
	path := logPath(t)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	openAppend(t, path, Options{}, recs...)

	// Chop bytes off the tail: the torn last record must be dropped
	// and the file repaired so a re-open sees a clean log.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < frameHeaderBytes+len("gamma"); cut++ {
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords(t, recovered(t, path, Options{}), recs[0], recs[1])
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(data)) - int64(frameHeaderBytes+len("gamma")); fi.Size() != want {
			t.Fatalf("cut %d: repaired size %d, want %d", cut, fi.Size(), want)
		}
		// Restore for the next cut width.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTornTailGarbageAppended(t *testing.T) {
	path := logPath(t)
	openAppend(t, path, Options{}, []byte("alpha"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// An implausible length prefix — e.g. zeros from a preallocated
	// page, or random garbage.
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantRecords(t, recovered(t, path, Options{}), []byte("alpha"))

	// Repair must be durable: the garbage is gone from disk.
	wantRecords(t, recovered(t, path, Options{}), []byte("alpha"))
}

func TestTornTailCRCFlip(t *testing.T) {
	path := logPath(t)
	recs := [][]byte{[]byte("alpha"), []byte("beta")}
	openAppend(t, path, Options{}, recs...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the LAST record's payload: CRC catches it and the
	// record is dropped as a torn tail.
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, recovered(t, path, Options{}), []byte("alpha"))
}

func TestNoSyncFlushesOnClose(t *testing.T) {
	path := logPath(t)
	l, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, recovered(t, path, Options{}), []byte("buffered"))
}

func TestAppendRejectsEmptyAndOversized(t *testing.T) {
	path := logPath(t)
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestCountSurvivesReopen(t *testing.T) {
	path := logPath(t)
	openAppend(t, path, Options{}, []byte("a"), []byte("b"))
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Count() != 2 {
		t.Fatalf("Count() = %d after reopen, want 2", l.Count())
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 3 {
		t.Fatalf("Count() = %d after append, want 3", l.Count())
	}
}

func TestReadAllLeavesTornTailInPlace(t *testing.T) {
	path := logPath(t)
	openAppend(t, path, Options{}, []byte("alpha"), []byte("beta"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, recs, []byte("alpha"))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(data)-2) {
		t.Fatalf("ReadAll modified the log: size %d", fi.Size())
	}
}

// A frame whose write landed but whose fsync failed must not resurface
// at recovery as a phantom commit: the failed append rolls the log
// back to the last acknowledged record.
func TestFailedSyncRollsBackUnacknowledgedFrame(t *testing.T) {
	path := logPath(t)
	in := faultfs.Wrap(nil)
	l, _, err := Open(path, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	in.Fail(faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Nth: 1})
	if err := l.Append([]byte("failed")); err == nil {
		t.Fatal("append over a failing fsync should error")
	}
	l.f.Close() // the log is failed; release the handle without syncing

	wantRecords(t, recovered(t, path, Options{}), []byte("acked"))
}

// Same discipline for a torn write: the half-landed frame is cut away
// immediately, not left for recovery to repair.
func TestTornWriteRollsBack(t *testing.T) {
	path := logPath(t)
	in := faultfs.Wrap(nil)
	l, _, err := Open(path, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	in.Fail(faultfs.Rule{Op: faultfs.OpWrite, Path: ".wal", Nth: 1, Torn: true})
	if err := l.Append([]byte("torn-away")); err == nil {
		t.Fatal("torn append should error")
	}
	l.f.Close()

	// The file holds exactly the acknowledged record — byte-clean, no
	// torn tail for Open to repair.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, validLen := decode(data)
	wantRecords(t, recs, []byte("acked"))
	if int64(len(data)) != validLen {
		t.Fatalf("log size %d != valid length %d after rollback", len(data), validLen)
	}
}
