package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hydrac"
	"hydrac/internal/faultfs"
)

// snapshotVersion guards the snapshot format; bump on incompatible
// change and teach readLatestSnapshotRaw both shapes.
const snapshotVersion = 1

// snapshotFile is the on-disk shape of snap-<gen>.json: the fully
// placed task set in the standard task-file format, plus the next-fit
// placement cursor that made those placements (recovery must restore
// it for future placements to stay byte-identical).
type snapshotFile struct {
	Version int             `json:"version"`
	NextFit int             `json:"next_fit"`
	Set     json.RawMessage `json:"set"`
}

func snapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.json", gen))
}

// writeSnapshot persists generation gen with writeFileAtomic: a crash
// leaves either no snap-<gen>.json or a complete one, never a torn
// one, which is what lets readLatestSnapshotRaw treat any present
// snapshot as authoritative. All writes go through the store's
// filesystem seam so the chaos suite can fail any step.
func writeSnapshot(fs faultfs.FS, dir string, gen uint64, set *hydrac.TaskSet, cursor int) error {
	var setBuf bytes.Buffer
	if err := hydrac.EncodeTaskSet(&setBuf, set); err != nil {
		return fmt.Errorf("encoding snapshot set: %w", err)
	}
	payload, err := json.Marshal(snapshotFile{
		Version: snapshotVersion,
		NextFit: cursor,
		Set:     json.RawMessage(setBuf.Bytes()),
	})
	if err != nil {
		return fmt.Errorf("encoding snapshot: %w", err)
	}
	return writeFileAtomic(fs, snapshotPath(dir, gen), payload)
}

// writeFileAtomic makes path hold payload durably and atomically: the
// bytes land in path+".tmp", which is fsynced, renamed into place, and
// the directory fsynced — a crash leaves either no file or a complete
// one. A fixed temp name is safe because writers into one session
// directory are serialised (the session lock or the entry lock), and
// the suffix keeps it invisible to readers until the rename.
func writeFileAtomic(fs faultfs.FS, path string, payload []byte) error {
	tmpPath := path + ".tmp"
	tmp, err := fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmpPath, path); err != nil {
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// listSnapshotGens returns every generation with a snap-<gen>.json in
// dir, ascending.
func listSnapshotGens(dir string) ([]uint64, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".json"), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

func hasSnapshot(dir string) bool {
	gens, err := listSnapshotGens(dir)
	return err == nil && len(gens) > 0
}

// readLatestSnapshotRaw loads the highest generation's snapshot — the
// authoritative one; snapshots are written atomically, so the highest
// present generation is always complete — without decoding its set,
// and returns the superseded generations for cleanup. Handoff ships
// the raw set so the receiver persists exactly what the sender held.
// A snapshot that fails to parse is an error, not a fallback: falling
// back a generation would silently rewind acknowledged state.
func readLatestSnapshotRaw(fs faultfs.FS, dir string) (gen uint64, sf snapshotFile, stale []uint64, err error) {
	gens, err := listSnapshotGens(dir)
	if err != nil {
		return 0, sf, nil, err
	}
	if len(gens) == 0 {
		return 0, sf, nil, fmt.Errorf("no snapshot in %s", dir)
	}
	gen = gens[len(gens)-1]
	raw, err := fs.ReadFile(snapshotPath(dir, gen))
	if err != nil {
		return 0, sf, nil, err
	}
	if err := json.Unmarshal(raw, &sf); err != nil {
		return 0, sf, nil, fmt.Errorf("parsing snapshot generation %d: %w", gen, err)
	}
	if sf.Version != snapshotVersion {
		return 0, sf, nil, fmt.Errorf("snapshot generation %d has version %d, this build reads %d", gen, sf.Version, snapshotVersion)
	}
	return gen, sf, gens[:len(gens)-1], nil
}

// readLatestSnapshot is readLatestSnapshotRaw with the set decoded.
func readLatestSnapshot(fs faultfs.FS, dir string) (gen uint64, set *hydrac.TaskSet, cursor int, stale []uint64, err error) {
	gen, sf, stale, err := readLatestSnapshotRaw(fs, dir)
	if err != nil {
		return 0, nil, 0, nil, err
	}
	if set, err = hydrac.DecodeTaskSet(bytes.NewReader(sf.Set)); err != nil {
		return 0, nil, 0, nil, fmt.Errorf("decoding snapshot generation %d set: %w", gen, err)
	}
	return gen, set, sf.NextFit, stale, nil
}
