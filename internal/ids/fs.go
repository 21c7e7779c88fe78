// Package ids is the intrusion-detection substrate standing in for the
// paper's security applications (§5.1.2): Tripwire checking the
// rover's image data store, and a custom checker comparing loaded
// kernel modules against an expected profile. The package provides
//
//   - a synthetic object store with content hashing and a baseline
//     snapshot (the Tripwire database),
//   - attack injection (data-store tampering), and
//   - detection-latency computation that maps a security job's
//     execution trace from the scheduler simulator onto scan progress,
//     reproducing the paper's measurement: the time from the attack
//     instant until the scanning task actually re-reads the tampered
//     artifact.
//
// The kernel-module checker needs no model of its own: a
// whole-profile comparison is a one-object ScanModel, which detects
// an insertion iff its job starts at or after it.
package ids

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// File is one object in the protected data store (an image captured by
// the rover's camera task, in the paper's setup).
type File struct {
	Name string
	Data []byte
}

// FileSystem is a synthetic flat object store.
type FileSystem struct {
	files []File
}

// NewFileSystem creates n files with deterministic pseudo-random
// content of the given size.
func NewFileSystem(rng *rand.Rand, n, size int) *FileSystem {
	fs := &FileSystem{files: make([]File, n)}
	for i := range fs.files {
		data := make([]byte, size)
		rng.Read(data)
		fs.files[i] = File{Name: fmt.Sprintf("img_%04d.raw", i), Data: data}
	}
	return fs
}

// Len returns the number of files.
func (fs *FileSystem) Len() int { return len(fs.files) }

// Name returns the name of file k.
func (fs *FileSystem) Name(k int) string { return fs.files[k].Name }

// Hash returns the FNV-64a digest of file k's content.
func (fs *FileSystem) Hash(k int) uint64 {
	h := fnv.New64a()
	h.Write(fs.files[k].Data)
	return h.Sum64()
}

// Tamper simulates the paper's ARM-shellcode attack: it overwrites a
// portion of file k, changing its digest. It reports whether the
// digest actually changed (it always does for non-empty files).
func (fs *FileSystem) Tamper(rng *rand.Rand, k int) bool {
	f := &fs.files[k]
	if len(f.Data) == 0 {
		f.Data = []byte{0x90}
		return true
	}
	before := fs.Hash(k)
	// Flip a random byte; re-roll on the astronomically unlikely
	// digest collision.
	for {
		i := rng.Intn(len(f.Data))
		f.Data[i] ^= byte(1 + rng.Intn(255))
		if fs.Hash(k) != before {
			return true
		}
	}
}

// Baseline is the integrity database: name → digest at snapshot time
// (Tripwire's database file).
type Baseline map[string]uint64

// Snapshot records the current digest of every file.
func (fs *FileSystem) Snapshot() Baseline {
	b := make(Baseline, len(fs.files))
	for k := range fs.files {
		b[fs.files[k].Name] = fs.Hash(k)
	}
	return b
}

// CheckObject compares file k against the baseline and reports a
// mismatch (true = integrity violation detected).
func (b Baseline) CheckObject(fs *FileSystem, k int) bool {
	want, ok := b[fs.Name(k)]
	return !ok || want != fs.Hash(k)
}

// Scan verifies every object and returns the indices that mismatch —
// the whole-filesystem pass a single unpreempted Tripwire job
// performs.
func (b Baseline) Scan(fs *FileSystem) []int {
	var bad []int
	for k := 0; k < fs.Len(); k++ {
		if b.CheckObject(fs, k) {
			bad = append(bad, k)
		}
	}
	return bad
}
