package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hydrac/internal/faultfs"
)

// The traced run records spans around the calls the benchmark itself
// makes into each layer's public functions, plus the file operations
// the store performs through its faultfs.FS seam. Spans stay in memory
// and are written out once, after the run.

type spanName uint8

const (
	spServe spanName = iota
	spDecode
	spDeltaDecode
	spHash
	spAnalyze
	spEnvelopeHit
	spPartition
	spSelect
	spEncode
	spAcquire
	spAdmitAdd
	spAdmitRemove
	spWALWrite
	spWALSync
	spWALRead
	spFSOther
	spCompact
	spOpen
	spLoopback
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spServe:       "hydradhttp.serve",
	spDecode:      "task.decode",
	spDeltaDecode: "task.delta_decode",
	spHash:        "task.hash",
	spAnalyze:     "hydrac.analyze",
	spEnvelopeHit: "hydrac.envelope_hit",
	spPartition:   "partition.assign",
	spSelect:      "core.select",
	spEncode:      "hydrac.encode",
	spAcquire:     "store.acquire",
	spAdmitAdd:    "admit.add",
	spAdmitRemove: "admit.remove",
	spWALWrite:    "wal.write",
	spWALSync:     "wal.fsync",
	spWALRead:     "wal.read",
	spFSOther:     "store.fs",
	spCompact:     "store.compact",
	spOpen:        "store.open",
	spLoopback:    "net.loopback",
}

// span is one timed call. Spans of one op share op; parent indexes
// the enclosing span (-1 for a root). n carries a size where one
// applies: bytes written for wal.write, frames read for wal.read.
type span struct {
	name       spanName
	op         int32
	parent     int32
	start, end int64 // ns since the recorder's epoch
	n          int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// recorder keeps every span of a run in memory.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores a finished span and returns its index.
func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

// open stores a span whose end is not known yet; close finishes it.
func (r *recorder) open(name spanName, op, parent int32) int32 {
	return r.add(span{name: name, op: op, parent: parent, start: r.now()})
}

func (r *recorder) close(i int32) {
	end := r.now()
	r.mu.Lock()
	r.spans[i].end = end
	r.mu.Unlock()
}

// get returns a copy of span i.
func (r *recorder) get(i int32) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[i]
}

// time runs f as a span.
func (r *recorder) time(name spanName, op, parent int32, f func()) time.Duration {
	start := r.now()
	f()
	end := r.now()
	r.add(span{name: name, op: op, parent: parent, start: start, end: end})
	return time.Duration(end - start)
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(bw, `{"id":%d,"op":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"n":%d}`+"\n",
			i, s.op, s.parent, spanNames[s.name], s.start, s.end, s.n)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName returns the durations of every span called name.
func (r *recorder) byName(name spanName) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// owner routes one session directory's file operations to the span of
// the request that caused them. Only the caller that owns the session
// touches its directory while the window runs, so parent, compactFrom
// and lastEnd are read and written from one goroutine at a time.
type owner struct {
	parent      atomic.Int32 // serving span, or -1 between requests
	op          atomic.Int32
	compactFrom int64 // start of the compaction in progress, 0 if none
	lastEnd     int64
}

// recFS is a recording faultfs.FS: it forwards every call to the real
// OS and records WAL writes, fsyncs and reads, and the snapshot and
// directory operations around them, as spans under the request (or
// the store.Open) that issued them.
type recFS struct {
	inner    faultfs.FS
	rec      *recorder
	owners   map[string]*owner // session id -> owner; fixed before the window
	fallback atomic.Int32      // parent for operations outside a request
}

func newRecFS(rec *recorder) *recFS {
	fs := &recFS{inner: faultfs.OS{}, rec: rec, owners: map[string]*owner{}}
	fs.fallback.Store(-1)
	return fs
}

// sessionOf returns the session id of a path <root>/<id>/<file> (or of
// the directory <root>/<id> itself).
func sessionOf(path string, isDir bool) string {
	if !isDir {
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			path = path[:i]
		}
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// note records one file operation that ran from start to now.
func (fs *recFS) note(name spanName, path string, isDir bool, start, n int64) {
	end := fs.rec.now()
	parent, op := fs.fallback.Load(), int32(-1)
	o := fs.owners[sessionOf(path, isDir)]
	if o != nil && o.parent.Load() >= 0 {
		parent, op = o.parent.Load(), o.op.Load()
		if strings.Contains(path, "/snap-") && strings.HasSuffix(path, ".tmp") && o.compactFrom == 0 && name == spFSOther {
			o.compactFrom = start
		}
		o.lastEnd = end
	}
	fs.rec.add(span{name: name, op: op, parent: parent, start: start, end: end, n: n})
}

// endRequest closes the owner's request: a compaction it triggered
// becomes one store.compact span from the snapshot write to the last
// file operation.
func (fs *recFS) endRequest(o *owner) {
	if o.compactFrom != 0 {
		fs.rec.add(span{name: spCompact, op: o.op.Load(), parent: o.parent.Load(), start: o.compactFrom, end: o.lastEnd})
		o.compactFrom = 0
	}
	o.parent.Store(-1)
}

func isWAL(path string) bool { return strings.HasSuffix(path, ".wal") }

func (fs *recFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	start := fs.rec.now()
	f, err := fs.inner.OpenFile(name, flag, perm)
	fs.note(spFSOther, name, false, start, 0)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, fs: fs, wal: isWAL(name)}, nil
}

func (fs *recFS) ReadFile(name string) ([]byte, error) {
	start := fs.rec.now()
	b, err := fs.inner.ReadFile(name)
	if isWAL(name) {
		fs.note(spWALRead, name, false, start, int64(frames(b)))
	} else {
		fs.note(spFSOther, name, false, start, 0)
	}
	return b, err
}

func (fs *recFS) Rename(oldpath, newpath string) error {
	start := fs.rec.now()
	err := fs.inner.Rename(oldpath, newpath)
	fs.note(spFSOther, newpath, false, start, 0)
	return err
}

func (fs *recFS) Remove(name string) error {
	start := fs.rec.now()
	err := fs.inner.Remove(name)
	fs.note(spFSOther, name, false, start, 0)
	return err
}

func (fs *recFS) SyncDir(dir string) error {
	start := fs.rec.now()
	err := fs.inner.SyncDir(dir)
	fs.note(spFSOther, dir, true, start, 0)
	return err
}

// recFile records one open file's writes and fsyncs.
type recFile struct {
	faultfs.File
	fs  *recFS
	wal bool
}

func (f *recFile) Write(p []byte) (int, error) {
	start := f.fs.rec.now()
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.note(spWALWrite, f.Name(), false, start, int64(n))
	} else {
		f.fs.note(spFSOther, f.Name(), false, start, int64(n))
	}
	return n, err
}

func (f *recFile) Sync() error {
	start := f.fs.rec.now()
	err := f.File.Sync()
	if f.wal {
		f.fs.note(spWALSync, f.Name(), false, start, 0)
	} else {
		f.fs.note(spFSOther, f.Name(), false, start, 0)
	}
	return err
}

// frames counts the whole WAL frames (4-byte length, 4-byte CRC,
// payload) in a segment image.
func frames(b []byte) int {
	n := 0
	for len(b) >= 8 {
		size := int(binary.LittleEndian.Uint32(b))
		if size == 0 || 8+size > len(b) {
			break
		}
		b = b[8+size:]
		n++
	}
	return n
}
