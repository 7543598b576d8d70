// Snapshot+truncate compaction. A WAL alone makes restart cost
// proportional to append history: the paper's platform ran for eight
// months (§2.2), and replaying eight months of appends to rebuild a
// store whose live state is a fraction of that is wasted startup time.
// Compact bounds it: the store checkpoints its live state — values,
// records, idempotency table — into a snapshot file that reuses the
// WAL's CRC frame format, the WAL rotates so the snapshot covers a
// frozen prefix of the log, and the covered segments are deleted.
// Recover then loads the newest snapshot and replays only the segments
// after it, so restart cost tracks live state, not history.
//
// Crash safety: the snapshot is written to a temporary name, fsynced,
// and renamed into place (then the directory is fsynced), so a crash
// at any point leaves either the old recovery inputs or the new ones —
// never a half-snapshot under the final name. Covered segments are
// deleted only after the rename is durable; leftovers from a crash
// between rename and delete are skipped (and cleaned up) by the next
// Recover.
package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fpdyn/internal/fingerprint"
)

// snapName formats the on-disk name of a snapshot covering segments
// 1..n.
func snapName(n int) string { return fmt.Sprintf("snap-%08d.snap", n) }

// isSnapTemp reports whether name is an in-progress snapshot, never
// read by recovery: snap-%08d.snap.tmp, or snap-tmp, the fixed name
// older versions wrote.
func isSnapTemp(name string) bool {
	return name == "snap-tmp" || strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap.tmp")
}

// listSnapshots returns the snap-*.snap files of dir in coverage
// order.
func listSnapshots(dir string) ([]segRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	var snaps []segRef
	for _, e := range ents {
		name := e.Name()
		var n int
		if _, err := fmt.Sscanf(name, "snap-%08d.snap", &n); err == nil && name == snapName(n) {
			snaps = append(snaps, segRef{n, name})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].n < snaps[j].n })
	return snaps, nil
}

// loadSnapshot replays one snapshot file into st. Snapshots are
// written atomically, so any frame error here is real corruption, not
// a crash signature: recovery fails rather than silently dropping live
// state.
func loadSnapshot(path string, maxFrame int, st *Store, stats *RecoveryStats) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("storage: snapshot read %s: %w", filepath.Base(path), err)
	}
	off, derr := DecodeSegment(data, maxFrame, func(payload []byte) error {
		var e walEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("storage: snapshot entry: %w", err)
		}
		st.applyEntry(&e, stats)
		return nil
	})
	if derr != nil {
		return fmt.Errorf("storage: snapshot %s corrupt at offset %d: %w", filepath.Base(path), off, derr)
	}
	return nil
}

// CompactionStats summarizes one Compact run.
type CompactionStats struct {
	Records         int   // records checkpointed into the snapshot
	Values          int   // values checkpointed into the snapshot
	SnapshotBytes   int64 // framed size of the written snapshot
	SegmentsRemoved int   // covered segment files deleted
	CoveredSeg      int   // highest segment number the snapshot covers
}

// Add merges other into s.
func (s *CompactionStats) Add(other CompactionStats) {
	s.Records += other.Records
	s.Values += other.Values
	s.SnapshotBytes += other.SnapshotBytes
	s.SegmentsRemoved += other.SegmentsRemoved
	s.CoveredSeg = max(s.CoveredSeg, other.CoveredSeg)
}

// ErrNoWAL is returned by Compact on a store without an attached WAL:
// there is no log to compact.
var ErrNoWAL = errors.New("storage: compact needs an attached WAL")

// compactState is the consistent cut Compact captures under the store
// lock: everything live at the moment the WAL rotated.
type compactState struct {
	records []*fingerprint.Record
	hashes  []string // sorted — snapshots are byte-identical for equal state
	values  map[string][]byte
	seqs    map[string]seqEntry
	covered int // snapshot covers segments 1..covered
}

// Compact checkpoints the store's live state into a snapshot and
// deletes the WAL segments the snapshot covers, bounding the next
// recovery's replay to appends made after this call. Appends are
// blocked only while the cut is captured (a rotation plus slice/map
// copies); the snapshot itself is written outside the store lock.
// Concurrent Compact calls serialize.
func (s *Store) Compact() (CompactionStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	var stats CompactionStats
	s.mu.Lock()
	w := s.wal
	if w == nil {
		s.mu.Unlock()
		return stats, ErrNoWAL
	}
	// Rotate first: everything appended so far is in segments < active,
	// and everything appended after the lock releases lands in segments
	// > covered — replayed on top of the snapshot, never duplicated.
	active, err := w.Rotate()
	if err != nil {
		s.mu.Unlock()
		return stats, fmt.Errorf("storage: compact rotate: %w", err)
	}
	cut := compactState{
		records: append([]*fingerprint.Record(nil), s.records...),
		hashes:  s.sortedValueHashesLocked(),
		values:  make(map[string][]byte, len(s.values)),
		seqs:    make(map[string]seqEntry, len(s.lastSeq)),
		covered: active - 1,
	}
	for h, v := range s.values {
		cut.values[h] = v
	}
	for cid, seq := range s.lastSeq {
		cut.seqs[cid] = seqEntry{Seq: seq, Idx: s.lastIdx[cid]}
	}
	s.mu.Unlock()

	stats.CoveredSeg = cut.covered
	stats.Records = len(cut.records)
	stats.Values = len(cut.hashes)

	dir := w.Dir()
	n, err := writeSnapshot(dir, cut)
	if err != nil {
		return stats, err
	}
	stats.SnapshotBytes = n

	// The snapshot is durable under its final name: the covered
	// segments and any older snapshots are now dead weight.
	segs, err := listSegments(dir)
	if err != nil {
		return stats, err
	}
	for _, seg := range segs {
		if seg.n <= cut.covered {
			if err := os.Remove(filepath.Join(dir, seg.name)); err != nil {
				return stats, fmt.Errorf("storage: compact remove %s: %w", seg.name, err)
			}
			stats.SegmentsRemoved++
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return stats, err
	}
	for _, sn := range snaps {
		if sn.n < cut.covered {
			os.Remove(filepath.Join(dir, sn.name)) // best effort
		}
	}
	if err := fsyncDir(dir); err != nil {
		return stats, fmt.Errorf("storage: compact dir sync: %w", err)
	}
	w.metrics.compactions.Inc()
	w.metrics.snapshotBytes.SetInt(stats.SnapshotBytes)
	return stats, nil
}

// writeSnapshot writes the cut atomically through
// WriteSnapshotFrames. Entry order is canonical — values sorted by hash, then
// records in insertion order, then the idempotency table (one entry;
// encoding/json sorts map keys) — so equal state yields byte-identical
// snapshots.
func writeSnapshot(dir string, cut compactState) (int64, error) {
	return WriteSnapshotFrames(dir, cut.covered, func(write func(payload []byte) error) error {
		emit := func(e *walEntry) error {
			payload, err := json.Marshal(e)
			if err != nil {
				return fmt.Errorf("storage: snapshot encode: %w", err)
			}
			return write(payload)
		}
		for _, h := range cut.hashes {
			if err := emit(&walEntry{Hash: h, Value: cut.values[h]}); err != nil {
				return err
			}
		}
		for _, r := range cut.records {
			if err := emit(&walEntry{Record: r}); err != nil {
				return err
			}
		}
		if len(cut.seqs) > 0 {
			return emit(&walEntry{Seqs: cut.seqs})
		}
		return nil
	})
}
