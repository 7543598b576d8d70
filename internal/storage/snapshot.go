// Snapshot+truncate compaction of the collection store. A WAL alone
// makes restart cost proportional to append history: the paper's
// platform ran for eight months (§2.2), and replaying eight months of
// appends to rebuild a store whose live state is a fraction of that is
// wasted startup time. Compact bounds it: the WAL rotates so the
// snapshot covers a frozen prefix of the log, the store captures its
// live state — values, records, idempotency table — under its lock,
// and WAL.Checkpoint (journal.go, shared with linkd's journal) writes
// that cut into a snapshot file in the WAL's CRC frame format and
// deletes the covered segments. Recovery then loads the newest snapshot
// and replays only the segments after it, so restart cost tracks live
// state, not history.
//
// Crash safety: the snapshot is written to a temporary name, fsynced,
// and renamed into place (then the directory is fsynced), so a crash
// at any point leaves either the old recovery inputs or the new ones —
// never a half-snapshot under the final name. Covered segments are
// deleted only after the rename is durable; leftovers from a crash
// between rename and delete are skipped (and cleaned up) by the next
// recovery.
package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"fpdyn/internal/fingerprint"
)

// snapPattern names the snapshot covering segments 1..n.
const snapPattern = "snap-%08d.snap"

// snapName formats the on-disk name of a snapshot covering segments
// 1..n.
func snapName(n int) string { return fmt.Sprintf(snapPattern, n) }

// isSnapTemp reports whether name is an in-progress snapshot, never
// read by recovery: snap-%08d.snap.tmp, or snap-tmp, the fixed name
// older versions wrote.
func isSnapTemp(name string) bool {
	return name == "snap-tmp" || strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap.tmp")
}

// listSnapshots returns the snap-*.snap files of dir in coverage
// order.
func listSnapshots(dir string) ([]segRef, error) { return listFiles(dir, snapPattern) }

// CompactionStats summarizes one Compact run.
type CompactionStats struct {
	Records         int   // records checkpointed into the snapshot
	Values          int   // values checkpointed into the snapshot
	SnapshotBytes   int64 // framed size of the written snapshot
	SegmentsRemoved int   // covered segment files deleted
	CoveredSeg      int   // highest segment number the snapshot covers (0: idle, nothing written)
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
// deletes the WAL segments the snapshot covers (WAL.Checkpoint),
// bounding the next recovery's replay to appends made after this call.
// Appends are blocked only while the cut is captured (a rotation plus
// slice/map copies); the snapshot itself is written outside the store
// lock. Concurrent Compact calls serialize. An idle log (WAL.Idle) is
// left as it is and the zero stats are returned.
func (s *Store) Compact() (CompactionStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	w := s.wal
	if w == nil {
		s.mu.Unlock()
		return CompactionStats{}, ErrNoWAL
	}
	if w.Idle() {
		s.mu.Unlock()
		return CompactionStats{}, nil
	}
	// Rotate first: everything appended so far is in segments < active,
	// and everything appended after the lock releases lands in segments
	// > covered — replayed on top of the snapshot, never duplicated.
	active, err := w.Rotate()
	if err != nil {
		s.mu.Unlock()
		return CompactionStats{}, fmt.Errorf("storage: compact rotate: %w", err)
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

	stats := CompactionStats{Records: len(cut.records), Values: len(cut.hashes), CoveredSeg: cut.covered}
	stats.SnapshotBytes, stats.SegmentsRemoved, err = w.Checkpoint(cut.covered, cut.emit)
	return stats, err
}

// emit writes the cut as snapshot payloads. Entry order is canonical —
// values sorted by hash, then records in insertion order, then the
// idempotency table (one entry; encoding/json sorts map keys) — so
// equal state yields byte-identical snapshots.
func (cut *compactState) emit(write func(payload []byte) error) error {
	put := func(e *walEntry) error {
		payload, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("storage: snapshot encode: %w", err)
		}
		return write(payload)
	}
	for _, h := range cut.hashes {
		if err := put(&walEntry{Hash: h, Value: cut.values[h]}); err != nil {
			return err
		}
	}
	for _, r := range cut.records {
		if err := put(&walEntry{Record: r}); err != nil {
			return err
		}
	}
	if len(cut.seqs) > 0 {
		return put(&walEntry{Seqs: cut.seqs})
	}
	return nil
}
