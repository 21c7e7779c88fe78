// Package wal is a CRC-framed, fsync-disciplined append log kept in
// one file: the durability primitive under the session store
// (internal/store), which keeps one log per snapshot generation and
// so bounds each file by its compaction interval. Every record is
// framed with its length and a CRC32-C of its payload, appended in one
// write, and — unless the caller opts out — fsynced before Append
// returns, so a record that was acknowledged survives a kill -9.
//
// Recovery discipline: the first frame that does not verify ends the
// log. Appends only ever extend the file, so a crash mid-append can
// damage only its tail; Open truncates the file back to the last whole
// record, and ReadAll stops there. The rule is also the only one that
// holds for a NoSync log: a power loss can keep later pages of an
// unsynced suffix and lose earlier ones, so nothing after a bad frame
// can be trusted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"hydrac/internal/faultfs"
)

// MaxRecordBytes bounds one record's payload. Anything larger in a
// frame header is treated as corruption rather than an allocation
// request — the session store's records (JSON deltas) are a few
// hundred bytes.
const MaxRecordBytes = 16 << 20

// frameHeaderBytes is the per-record overhead: a 4-byte little-endian
// payload length followed by a 4-byte CRC32-C of the payload.
const frameHeaderBytes = 8

// castagnoli is the CRC32-C table (hardware-accelerated on amd64 and
// arm64), the same polynomial most storage formats frame with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterises Open and ReadAll.
type Options struct {
	// NoSync skips the per-append fsync. Appends then promise only
	// write ordering, not durability, until Close — the mode for
	// callers that batch their own sync points.
	NoSync bool
	// FS is the filesystem seam every operation goes through; nil
	// means the real OS. The chaos suite injects faults here
	// (internal/faultfs.Injector) to script fsync failures, torn
	// writes and ENOSPC at exact points.
	FS faultfs.FS
}

// Log is an open append log. Append/Close serialise with each other
// through the owning caller: a Log has no internal locking and must be
// confined to one goroutine or an external critical section (the
// session store calls it under its per-session commit lock).
type Log struct {
	f      faultfs.File // the log file, opened for append
	noSync bool
	size   int64  // bytes of whole, acknowledged records
	n      int    // records recovered at Open plus records appended
	buf    []byte // reused frame buffer so Append allocates nothing
}

// Open replays the log at path, truncating a damaged tail back to the
// last whole record, and returns the log opened for appending plus the
// recovered record payloads in append order. A missing file starts a
// fresh log, whose directory entry is synced before Open returns.
func Open(path string, opt Options) (*Log, [][]byte, error) {
	fs := faultfs.Default(opt.FS)
	l := &Log{noSync: opt.NoSync}
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if l.f, err = fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err != nil {
			return nil, nil, err
		}
		if err := fs.SyncDir(filepath.Dir(path)); err != nil {
			l.f.Close()
			return nil, nil, err
		}
		return l, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	records, valid := decode(data)
	if l.f, err = fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, nil, err
	}
	if valid < int64(len(data)) {
		// A torn tail: a crash mid-append. Cut the file back to the
		// last whole record, durably, and carry on from there.
		err := l.f.Truncate(valid)
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.f.Close()
			return nil, nil, fmt.Errorf("repairing torn tail of %s: %w", path, err)
		}
	}
	l.size, l.n = valid, len(records)
	return l, records, nil
}

// Append frames rec, writes it to the log and fsyncs unless the log
// was opened NoSync. The payload must be non-empty. On error the log
// must be considered failed: the file may hold a torn frame, which the
// next Open will repair, but this Log must not be appended to again.
func (l *Log) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("wal: empty record")
	}
	if len(rec) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(rec))
	}
	need := frameHeaderBytes + len(rec)
	if cap(l.buf) < need {
		l.buf = make([]byte, 0, need+need/2)
	}
	b := l.buf[:frameHeaderBytes]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(rec, castagnoli))
	b = append(b, rec...)
	if _, err := l.f.Write(b); err != nil {
		l.rollback()
		return fmt.Errorf("wal: appending record: %w", err)
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			l.rollback()
			return fmt.Errorf("wal: syncing log: %w", err)
		}
	}
	l.size += int64(len(b))
	l.n++
	return nil
}

// rollback best-effort cuts the file back to the last known-good size
// after a failed append. Without it, a frame whose write landed but
// whose fsync failed would be a phantom commit: the caller was told
// the append failed, yet recovery would replay a complete, CRC-valid
// record. When the disk is too sick even to truncate, that ambiguity
// is unavoidable and recovery may replay the unacknowledged record —
// the documented crash-between-append-and-ack case.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		return
	}
	_ = l.f.Sync()
}

// Count returns the number of records in the log: those recovered at
// Open plus those appended since.
func (l *Log) Count() int { return l.n }

// Close syncs and closes the log — the flush point for NoSync logs.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// decode returns the records of a log image up to its first bad frame,
// and the byte length of those whole records.
func decode(data []byte) ([][]byte, int64) {
	var records [][]byte
	off := int64(0)
	for int64(len(data))-off >= frameHeaderBytes {
		h := data[off : off+frameHeaderBytes]
		n := int64(binary.LittleEndian.Uint32(h[0:4]))
		if n == 0 || n > MaxRecordBytes || int64(len(data))-off-frameHeaderBytes < n {
			break // implausible length, or a record cut short
		}
		payload := data[off+frameHeaderBytes : off+frameHeaderBytes+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(h[4:8]) {
			break
		}
		records = append(records, append([]byte(nil), payload...))
		off += frameHeaderBytes + n
	}
	return records, off
}

// ReadAll replays the log at path without opening it for append: the
// read-only path for handoff export, tools and tests. It applies the
// same rule as Open but never modifies the file (a torn tail is simply
// not returned); a missing file is an empty log.
func ReadAll(path string, opt Options) ([][]byte, error) {
	data, err := faultfs.Default(opt.FS).ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	records, _ := decode(data)
	return records, nil
}
