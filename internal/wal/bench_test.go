package wal

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkWALAppend gates the hot append path: framing reuses the
// log's buffer, so steady-state appends must not allocate. NoSync
// keeps the measurement on the code path rather than the disk (the
// fsync cost is measured end-to-end by the session-admit-durable
// regression case); the allocation count is identical either way.
func BenchmarkWALAppend(b *testing.B) {
	for _, size := range []int{128, 1024} {
		b.Run(fmt.Sprintf("rec%d", size), func(b *testing.B) {
			l, _, err := Open(filepath.Join(b.TempDir(), "g0-00000001.wal"), Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := make([]byte, size)
			for i := range rec {
				rec[i] = byte(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
