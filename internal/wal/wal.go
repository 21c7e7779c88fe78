// Package wal is a segmented, CRC-framed, fsync-disciplined append
// log: the durability primitive under the session store
// (internal/store). Each logical log is a sequence of numbered
// segment files in one directory; every record is framed with its
// length and a CRC32-C of its payload, appended in one write, and —
// unless the caller opts out — fsynced before Append returns, so a
// record that was acknowledged survives a kill -9.
//
// Recovery discipline: a crash can only tear the TAIL of the LAST
// segment (appends go nowhere else), so Open repairs a bad tail frame
// there by truncating the file back to the last whole record. A bad
// frame in any earlier segment cannot be a crash artefact — frames
// are length-delimited, so everything after it would be silently
// unreachable — and is surfaced as ErrCorrupt instead of quietly
// dropping committed records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hydrac/internal/faultfs"
)

// DefaultSegmentBytes rotates segments once they pass 1 MiB: large
// enough that steady traffic stays in one file descriptor, small
// enough that compaction-era cleanup deletes bounded files.
const DefaultSegmentBytes = 1 << 20

// MaxRecordBytes bounds one record's payload. Anything larger in a
// frame header is treated as corruption rather than an allocation
// request — the session store's records (JSON deltas) are a few
// hundred bytes.
const MaxRecordBytes = 16 << 20

// frameHeaderBytes is the per-record overhead: a 4-byte little-endian
// payload length followed by a 4-byte CRC32-C of the payload.
const frameHeaderBytes = 8

// ErrCorrupt marks damage Open refuses to repair: a bad frame before
// the final segment's tail, where truncation would discard records
// that were once acknowledged as durable.
var ErrCorrupt = errors.New("wal: corrupt segment")

// castagnoli is the CRC32-C table (hardware-accelerated on amd64 and
// arm64), the same polynomial most storage formats frame with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options parameterises Open.
type Options struct {
	// Prefix names the log's generation inside its directory (e.g.
	// "g3-"); Open only touches files matching <prefix>NNNNNNNN.wal,
	// so several generations can coexist in one directory during
	// compaction handoff.
	Prefix string
	// SegmentBytes rotates to a fresh segment once the current file
	// reaches this size; <= 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Appends then promise only
	// write ordering, not durability, until Sync or Close — the mode
	// for callers that batch their own sync points.
	NoSync bool
	// FS is the filesystem seam every write-side operation goes
	// through; nil means the real OS. The chaos suite injects faults
	// here (internal/faultfs.Injector) to script fsync failures, torn
	// writes and ENOSPC at exact points.
	FS faultfs.FS
}

// Log is an open append log. Append/Sync/Close serialise with each
// other through the owning caller: a Log has no internal locking and
// must be confined to one goroutine or an external critical section
// (the session store calls it under its per-session commit lock).
type Log struct {
	dir  string
	opt  Options
	fs   faultfs.FS
	f    faultfs.File // current (last) segment, opened for append
	seq  int          // current segment number
	size int64        // current segment size in bytes
	n    int          // records recovered at Open plus records appended
	buf  []byte       // reused frame buffer so Append allocates nothing
}

// Open replays every segment of the log in dir matching opt.Prefix,
// repairing a torn tail in the final segment, and returns the log
// opened for appending plus the recovered record payloads in append
// order. A directory with no matching segments starts a fresh log.
func Open(dir string, opt Options) (*Log, [][]byte, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	fs := faultfs.Default(opt.FS)
	segs, err := listSegments(dir, opt.Prefix)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opt: opt, fs: fs}
	var records [][]byte
	for i, seg := range segs {
		last := i == len(segs)-1
		recs, validLen, err := readSegment(fs, filepath.Join(dir, seg.name))
		if err != nil {
			if !last || !errors.Is(err, errBadTail) {
				return nil, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, seg.name, err)
			}
			// Torn tail of the final segment: a crash mid-append. Cut
			// the file back to the last whole record and carry on.
			if err := truncateSegment(fs, filepath.Join(dir, seg.name), validLen); err != nil {
				return nil, nil, fmt.Errorf("repairing torn tail of %s: %w", seg.name, err)
			}
		}
		records = append(records, recs...)
		if last {
			l.seq = seg.seq
			l.size = validLen
		}
	}
	if len(segs) == 0 {
		l.seq = 1
		f, err := createSegment(fs, dir, opt.Prefix, l.seq)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
	} else {
		f, err := fs.OpenFile(filepath.Join(dir, segmentName(opt.Prefix, l.seq)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
	}
	l.n = len(records)
	return l, records, nil
}

// Append frames rec, writes it to the current segment (rotating
// first if the segment is full), and fsyncs unless the log was opened
// NoSync. The payload must be non-empty. On error the log must be
// considered failed: the segment may hold a torn frame, which the
// next Open will repair, but this Log must not be appended to again.
func (l *Log) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("wal: empty record")
	}
	if len(rec) > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(rec))
	}
	if l.size >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
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
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			l.rollback()
			return fmt.Errorf("wal: syncing segment: %w", err)
		}
	}
	l.size += int64(len(b))
	l.n++
	return nil
}

// rollback best-effort cuts the segment back to the last known-good
// size after a failed append. Without it, a frame whose write landed
// but whose fsync failed would be a phantom commit: the caller was
// told the append failed, yet recovery would replay a complete,
// CRC-valid record. When the disk is too sick even to truncate, that
// ambiguity is unavoidable and recovery may replay the unacknowledged
// record — the documented crash-between-append-and-ack case.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		return
	}
	_ = l.f.Sync()
}

// rotate closes the full segment (synced) and starts the next one.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := createSegment(l.fs, l.dir, l.opt.Prefix, l.seq+1)
	if err != nil {
		return err
	}
	l.f, l.seq, l.size = f, l.seq+1, 0
	return nil
}

// Count returns the number of records in the log: those recovered at
// Open plus those appended since.
func (l *Log) Count() int { return l.n }

// Sync flushes the current segment to stable storage — the flush
// point for NoSync logs.
func (l *Log) Sync() error { return l.f.Sync() }

// Close syncs and closes the current segment.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// RemoveGeneration unlinks every segment of the given prefix in dir
// (a compacted-away generation) and syncs the directory. A nil fs
// means the real OS.
func RemoveGeneration(fs faultfs.FS, dir, prefix string) error {
	fs = faultfs.Default(fs)
	segs, err := listSegments(dir, prefix)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := fs.Remove(filepath.Join(dir, seg.name)); err != nil {
			return err
		}
	}
	return fs.SyncDir(dir)
}

// segmentName formats <prefix>NNNNNNNN.wal.
func segmentName(prefix string, seq int) string {
	return fmt.Sprintf("%s%08d.wal", prefix, seq)
}

type segment struct {
	name string
	seq  int
}

// listSegments returns the prefix's segments sorted by sequence.
func listSegments(dir, prefix string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".wal") {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".wal")
		if len(mid) != 8 {
			continue
		}
		seq := 0
		ok := true
		for _, c := range mid {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			seq = seq*10 + int(c-'0')
		}
		if !ok || seq == 0 {
			continue
		}
		segs = append(segs, segment{name: name, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq != segs[i-1].seq+1 {
			return nil, fmt.Errorf("%w: segment gap between %s and %s", ErrCorrupt, segs[i-1].name, segs[i].name)
		}
	}
	return segs, nil
}

// createSegment creates a fresh segment file and makes its directory
// entry durable.
func createSegment(fs faultfs.FS, dir, prefix string, seq int) (faultfs.File, error) {
	f, err := fs.OpenFile(filepath.Join(dir, segmentName(prefix, seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// errBadTail reports a frame that does not verify, along with how many
// bytes of the segment (whole records) precede it.
var errBadTail = errors.New("bad frame")

// readSegment decodes one segment. On a bad frame it returns the
// records before it, the byte offset of the last whole record, and an
// error wrapping errBadTail describing the damage.
func readSegment(fs faultfs.FS, path string) ([][]byte, int64, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var records [][]byte
	off := int64(0)
	for int64(len(data))-off >= frameHeaderBytes {
		h := data[off : off+frameHeaderBytes]
		n := int64(binary.LittleEndian.Uint32(h[0:4]))
		if n == 0 || n > MaxRecordBytes {
			return records, off, fmt.Errorf("%w: implausible record length %d at offset %d", errBadTail, n, off)
		}
		if int64(len(data))-off-frameHeaderBytes < n {
			return records, off, fmt.Errorf("%w: record of %d bytes truncated at offset %d", errBadTail, n, off)
		}
		payload := data[off+frameHeaderBytes : off+frameHeaderBytes+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(h[4:8]) {
			return records, off, fmt.Errorf("%w: CRC mismatch at offset %d", errBadTail, off)
		}
		records = append(records, append([]byte(nil), payload...))
		off += frameHeaderBytes + n
	}
	if off != int64(len(data)) {
		return records, off, fmt.Errorf("%w: %d trailing bytes after offset %d", errBadTail, int64(len(data))-off, off)
	}
	return records, off, nil
}

// truncateSegment cuts path back to size and syncs it — the torn-tail
// repair.
func truncateSegment(fs faultfs.FS, path string, size int64) error {
	f, err := fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// ReadAll replays a log's records without opening it for append: the
// read-only path for tools and tests. It applies the same recovery
// rules as Open but never modifies the files (a torn tail is simply
// not returned).
func ReadAll(dir string, opt Options) ([][]byte, error) {
	fs := faultfs.Default(opt.FS)
	segs, err := listSegments(dir, opt.Prefix)
	if err != nil {
		return nil, err
	}
	var records [][]byte
	for i, seg := range segs {
		recs, _, err := readSegment(fs, filepath.Join(dir, seg.name))
		if err != nil {
			if i != len(segs)-1 || !errors.Is(err, errBadTail) {
				return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, seg.name, err)
			}
		}
		records = append(records, recs...)
	}
	return records, nil
}
