package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame encodes one valid record frame, for building seed inputs.
func frame(payload []byte) []byte {
	b := make([]byte, frameHeaderBytes, frameHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// FuzzWALReplay feeds arbitrary bytes to the decoder and the full
// recovery path: the bytes become the log file, so any damage must end
// the log at the last whole record, never be panicked over, and
// recovery must be idempotent — ReadAll agrees with Open, reopening a
// repaired log yields the identical records, and appending after
// recovery extends them.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame([]byte("one")))
	f.Add(append(frame([]byte("one")), frame([]byte("two"))...))
	// Torn tail: a whole record then half of another.
	two := append(frame([]byte("one")), frame([]byte("twotwotwo"))...)
	f.Add(two[:len(two)-5])
	// Bit flip in the payload.
	flipped := append([]byte(nil), two...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)
	// Implausible length prefix.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3})
	// Zero length prefix (preallocated-page zeros).
	f.Add(make([]byte, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep filesystem churn bounded
		}
		path := filepath.Join(t.TempDir(), "g0-00000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		read, err := ReadAll(path, Options{})
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		l, recs, err := Open(path, Options{})
		if err != nil {
			// A bad frame ends the log; it is repaired, never refused.
			t.Fatalf("Open refused an input: %v", err)
		}
		if len(read) != len(recs) {
			t.Fatalf("ReadAll returned %d records, Open recovered %d", len(read), len(recs))
		}
		for i, r := range recs {
			if len(r) == 0 {
				t.Fatalf("record %d is empty — empty records cannot be appended", i)
			}
		}
		if l.Count() != len(recs) {
			t.Fatalf("Count() = %d, recovered %d", l.Count(), len(recs))
		}
		if err := l.Append([]byte("probe")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Idempotence: the repaired log replays to the same records
		// plus the probe, and a third open agrees with the second.
		l2, recs2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		defer l2.Close()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen recovered %d records, want %d", len(recs2), len(recs)+1)
		}
		for i := range recs {
			if !bytes.Equal(read[i], recs[i]) {
				t.Fatalf("record %d differs between ReadAll and Open: %q != %q", i, read[i], recs[i])
			}
			if !bytes.Equal(recs2[i], recs[i]) {
				t.Fatalf("record %d changed across reopen: %q != %q", i, recs2[i], recs[i])
			}
		}
		if !bytes.Equal(recs2[len(recs)], []byte("probe")) {
			t.Fatalf("probe record lost: %q", recs2[len(recs)])
		}
	})
}
