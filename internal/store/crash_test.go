package store_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hydrac"
	"hydrac/internal/gen"
	"hydrac/internal/store"
)

// copyTree copies the session directory src into dst — the moral
// equivalent of what the disk holds at a kill -9: every committed
// delta is fsynced before it is acknowledged, so a copy taken between
// operations is exactly a crash image.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if de.IsDir() {
			copyTree(t, filepath.Join(src, de.Name()), filepath.Join(dst, de.Name()))
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mutilateTail finds the session's newest WAL file in the copied
// image and applies f to its bytes — simulating the torn tails a
// crash mid-append leaves behind.
func mutilateTail(t *testing.T, root string, f func([]byte) []byte) {
	t.Helper()
	var newest string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".wal") && (newest == "" || path > newest) {
			newest = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if newest == "" {
		return // prefix 0 may have an empty log; nothing to tear
	}
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, f(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryEquivalence is the crash-injection property test:
// random generated sets, random committed delta sequences, and a
// simulated kill after EVERY committed prefix — plus torn-tail
// variants of each image. Recovery from each image must yield a
// session byte-identical (set, placement cursor, and next-probe
// report) to an uninterrupted session that applied the same prefix.
func TestCrashRecoveryEquivalence(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{3, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a, err := hydrac.New()
			if err != nil {
				t.Fatal(err)
			}
			base, err := gen.TableThree(2).Generate(rand.New(rand.NewSource(seed)), 3)
			if err != nil {
				t.Fatal(err)
			}
			// A small CompactEvery so the prefix images straddle
			// compactions, not just the easy single-generation case.
			opts := store.Options{CompactEvery: 3}
			root := t.TempDir()
			s, err := store.Open(root, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Create(ctx, "crash", base); err != nil {
				t.Fatal(err)
			}

			// Drive a random committed delta sequence, copying the disk
			// image after every commit.
			const steps = 6
			rng := rand.New(rand.NewSource(seed * 7))
			images := t.TempDir()
			var committed []hydrac.Delta
			var admitted []string
			copyTree(t, root, filepath.Join(images, "prefix0")) // pre-delta image
			for len(committed) < steps {
				var d hydrac.Delta
				if len(admitted) > 0 && rng.Intn(3) == 0 {
					last := admitted[len(admitted)-1]
					admitted = admitted[:len(admitted)-1]
					d = hydrac.Delta{Remove: []string{last}}
				} else {
					name := fmt.Sprintf("probe%02d", len(committed))
					d = hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
						Name: name, WCET: 1 + hydrac.Time(rng.Intn(3)),
						MaxPeriod: hydrac.Time(20000 + rng.Intn(10000)),
						Core:      -1, Priority: 100 + len(committed),
					}}}
				}
				sess, release, err := s.Acquire(ctx, "crash")
				if err != nil {
					t.Fatal(err)
				}
				_, ok, err := sess.Admit(ctx, d)
				release()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue // denied: nothing committed, nothing logged
				}
				if len(d.AddSecurity) > 0 {
					admitted = append(admitted, d.AddSecurity[0].Name)
				}
				committed = append(committed, d)
				copyTree(t, root, filepath.Join(images, fmt.Sprintf("prefix%d", len(committed))))
			}

			// Reference states: a fresh in-memory session per prefix.
			refSet := make([][]byte, len(committed)+1)
			refCursor := make([]int, len(committed)+1)
			refProbe := make([][]byte, len(committed)+1)
			probe := hydrac.Delta{AddSecurity: []hydrac.SecurityTask{{
				Name: "crashprobe", WCET: 1, MaxPeriod: 30000, Core: -1, Priority: 999,
			}}}
			for k := 0; k <= len(committed); k++ {
				ref, _, err := a.NewSession(ctx, base)
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range committed[:k] {
					if _, ok, err := ref.Admit(ctx, d); err != nil || !ok {
						t.Fatalf("reference replay %d/%d: ok=%v err=%v", i, k, ok, err)
					}
				}
				refSet[k] = setBytes(t, ref.Set())
				refCursor[k] = ref.PlacementCursor()
				rep, ok, err := ref.Admit(ctx, probe)
				if err != nil || !ok {
					t.Fatalf("reference probe at %d: ok=%v err=%v", k, ok, err)
				}
				refProbe[k] = reportBytes(t, rep)
			}

			// recoverAndMatch opens a crash image and returns the prefix
			// it recovered to, asserting bit-identity against that
			// reference (set + cursor + next-probe report).
			recoverAndMatch := func(t *testing.T, image string, wantExact int) int {
				t.Helper()
				rs, err := store.Open(image, a, opts)
				if err != nil {
					t.Fatalf("recovering %s: %v", image, err)
				}
				defer rs.Close()
				sess, release, err := rs.Acquire(ctx, "crash")
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				gotSet := setBytes(t, sess.Set())
				gotCursor := sess.PlacementCursor()
				rep, ok, err := sess.Admit(ctx, probe)
				if err != nil || !ok {
					t.Fatalf("probe on recovery of %s: ok=%v err=%v", image, ok, err)
				}
				gotProbe := reportBytes(t, rep)
				if wantExact >= 0 {
					// Clean image: every observable must match prefix
					// wantExact bit for bit.
					k := wantExact
					if !bytes.Equal(gotSet, refSet[k]) {
						t.Fatalf("prefix %d: recovered set differs:\ngot:  %s\nwant: %s", k, gotSet, refSet[k])
					}
					if gotCursor != refCursor[k] {
						t.Fatalf("prefix %d: cursor %d, want %d", k, gotCursor, refCursor[k])
					}
					if !bytes.Equal(gotProbe, refProbe[k]) {
						t.Fatalf("prefix %d: probe report differs from uninterrupted session", k)
					}
					return k
				}
				// Torn image: recovery must land on SOME committed
				// prefix, identified by the full observable triple —
				// set bytes alone can coincide across prefixes when a
				// delta added and a later one removed the same task.
				for j := range refSet {
					if bytes.Equal(gotSet, refSet[j]) && gotCursor == refCursor[j] && bytes.Equal(gotProbe, refProbe[j]) {
						return j
					}
				}
				t.Fatalf("recovered state matches no committed prefix:\n%s", gotSet)
				return -1
			}

			for k := 0; k <= len(committed); k++ {
				img := filepath.Join(images, fmt.Sprintf("prefix%d", k))

				// Clean kill between commits: must recover exactly k.
				exact := filepath.Join(t.TempDir(), "exact")
				copyTree(t, img, exact)
				recoverAndMatch(t, exact, k)

				// Crash mid-append: garbage after the last record must
				// be shed, landing exactly on k.
				garbage := filepath.Join(t.TempDir(), "garbage")
				copyTree(t, img, garbage)
				mutilateTail(t, garbage, func(b []byte) []byte {
					return append(b, 0xDE, 0xAD, 0xBE, 0xEF, 0x01)
				})
				recoverAndMatch(t, garbage, k)

				// Crash mid-write: a truncated tail loses whole records
				// off the end of the log, never corrupts —
				// recovery lands on SOME shorter committed prefix.
				if k > 0 {
					torn := filepath.Join(t.TempDir(), "torn")
					copyTree(t, img, torn)
					mutilateTail(t, torn, func(b []byte) []byte {
						if len(b) == 0 {
							return b
						}
						return b[:len(b)-1-rng.Intn(len(b))]
					})
					if got := recoverAndMatch(t, torn, -1); got > k {
						t.Fatalf("torn-tail recovery invented state: prefix %d > %d", got, k)
					}
				}
			}
		})
	}
}
