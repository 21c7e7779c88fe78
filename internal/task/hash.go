package task

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Hash returns a canonical content hash of the set: two sets hash
// equally iff every analysis-relevant field (core count and all task
// parameters, in slice order) is identical. It is the cache key for
// repeated-traffic admission workloads — an analysis over a set is
// fully determined by the fields hashed here — and is stable across
// process restarts (no map iteration, no pointers).
//
// Slice order is deliberately significant: result slices (periods,
// WCRTs) follow the order of ts.Security, so two permutations of the
// same tasks are different requests with different responses.
func (ts *Set) Hash() string {
	h := sha256.New()
	var buf [8]byte
	// Names are appended into one reused scratch slice: io.WriteString
	// would convert every name to a fresh []byte (sha256's digest has
	// no WriteString), which made hashing cost one allocation per
	// task. In hydrad, Hash keys the Analyzer's report cache on every
	// request that misses the exact-byte response cache.
	scratch := make([]byte, 0, 64)
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(int64(len(s)))
		scratch = append(scratch[:0], s...)
		h.Write(scratch)
	}
	num(int64(ts.Cores))
	num(int64(len(ts.RT)))
	for _, t := range ts.RT {
		str(t.Name)
		num(t.WCET)
		num(t.Period)
		num(t.Deadline)
		num(int64(t.Core))
		num(int64(t.Priority))
	}
	num(int64(len(ts.Security)))
	for _, s := range ts.Security {
		str(s.Name)
		num(s.WCET)
		num(s.Period)
		num(s.MaxPeriod)
		num(int64(s.Core))
		num(int64(s.Priority))
	}
	return hex.EncodeToString(h.Sum(nil))
}
