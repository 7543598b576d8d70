// Generic payload journal over the WAL machinery. The collection
// store's crash safety (CRC-framed segments, rotation, fsync policies,
// torn-tail truncation, snapshot+truncate compaction) is not specific
// to visit records — any service with incremental state can journal
// opaque payloads through the same files and recover them with the
// same guarantees. fplinkd journals linker adds/evictions this way.
//
// The contract mirrors Recover/Compact: ReplayJournal loads the newest
// snapshot (if any) and the segments after it, truncating a torn tail
// frame; CompactJournal rotates, checkpoints caller-emitted frames
// into an atomically renamed snapshot, and deletes the covered
// segments. Both reuse the wal-%08d.seg / snap-%08d.snap naming, so a
// journal directory is inspectable with the same tooling as a store's.
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AppendPayload journals one opaque payload: framed, checksummed, and
// fsynced per the WAL's policy before returning. The payload is the
// caller's to encode; ReplayJournal hands it back verbatim.
func (w *WAL) AppendPayload(payload []byte) error { return w.write(payload) }

// JournalReplayStats summarizes one ReplayJournal run.
type JournalReplayStats struct {
	Segments       int   // segment files replayed (excludes snapshot-covered)
	Frames         int   // payload frames replayed from segments
	TruncatedBytes int64 // torn tail bytes dropped from the last segment
	Truncated      bool  // whether a torn tail was truncated

	SnapshotSeg    int // highest segment the loaded snapshot covers (0 = none)
	SnapshotFrames int // payload frames loaded from the snapshot
}

// ReplayJournal rebuilds journal state from opts.Dir and opens a fresh
// WAL for subsequent appends. The newest snapshot's frames are handed
// to snapFn, then the frames of every segment the snapshot does not
// cover go to segFn, in log order. A torn frame at the tail of the
// final segment is truncated durably (file, then directory); torn or
// corrupt frames anywhere else — including inside a snapshot, which is
// written atomically — fail recovery. Obsolete files are deleted
// best-effort, and the returned WAL appends strictly after everything
// replayed.
func ReplayJournal(opts WALOptions, snapFn, segFn func(payload []byte) error) (*WAL, JournalReplayStats, error) {
	var stats JournalReplayStats
	if opts.Dir == "" {
		return nil, stats, errors.New("storage: WALOptions.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("storage: wal dir: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, stats, err
	}
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, stats, err
	}
	snapSeg := 0
	if len(snaps) > 0 {
		sn := snaps[len(snaps)-1]
		data, err := os.ReadFile(filepath.Join(opts.Dir, sn.name))
		if err != nil {
			return nil, stats, fmt.Errorf("storage: snapshot read %s: %w", sn.name, err)
		}
		off, derr := DecodeSegment(data, opts.maxFrame(), func(payload []byte) error {
			stats.SnapshotFrames++
			return snapFn(payload)
		})
		if derr != nil {
			return nil, stats, fmt.Errorf("storage: snapshot %s corrupt at offset %d: %w", sn.name, off, derr)
		}
		snapSeg = sn.n
		stats.SnapshotSeg = sn.n
	}
	live := segs[:0:0]
	for _, seg := range segs {
		if seg.n > snapSeg {
			live = append(live, seg)
		}
	}
	for i, seg := range live {
		path := filepath.Join(opts.Dir, seg.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, stats, fmt.Errorf("storage: wal read %s: %w", seg.name, err)
		}
		validLen, derr := DecodeSegment(data, opts.maxFrame(), func(payload []byte) error {
			stats.Frames++
			return segFn(payload)
		})
		stats.Segments++
		if derr != nil {
			if i != len(live)-1 {
				return nil, stats, fmt.Errorf("storage: wal segment %s corrupt at offset %d: %w", seg.name, validLen, derr)
			}
			// Torn tail of the live segment: the crash signature. Keep
			// everything before the tear and make the truncation durable,
			// or a crash here brings the torn bytes back.
			if err := os.Truncate(path, validLen); err != nil {
				return nil, stats, fmt.Errorf("storage: wal truncate %s: %w", seg.name, err)
			}
			if err := syncFileAndDir(path); err != nil {
				return nil, stats, fmt.Errorf("storage: wal truncate sync %s: %w", seg.name, err)
			}
			stats.Truncated = true
			stats.TruncatedBytes = int64(len(data)) - validLen
		}
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1].n + 1
	}
	if snapSeg+1 > next {
		next = snapSeg + 1
	}
	removeObsolete(opts.Dir, segs, snaps, snapSeg)
	w, err := openWALAt(opts, next)
	if err != nil {
		return nil, stats, err
	}
	w.metrics.recoveredRecords.SetInt(int64(stats.Frames))
	w.metrics.recoveredSegments.SetInt(int64(stats.Segments))
	w.metrics.truncatedBytes.SetInt(stats.TruncatedBytes)
	w.metrics.snapshotRecords.SetInt(int64(stats.SnapshotFrames))
	return w, stats, nil
}

// CompactJournal checkpoints the journal: the WAL rotates (so the
// snapshot covers a frozen prefix of the log), emit writes the live
// state as payload frames through the provided write function, the
// snapshot lands atomically, and the covered segments are deleted.
// The caller must emit a consistent cut — typically captured under its
// own state lock before or during emit — and every payload appended
// after Rotate returns is replayed on top of the snapshot, never
// duplicated. Returns the framed snapshot size.
func (w *WAL) CompactJournal(emit func(write func(payload []byte) error) error) (int64, error) {
	active, err := w.Rotate()
	if err != nil {
		return 0, fmt.Errorf("storage: compact rotate: %w", err)
	}
	covered := active - 1
	n, err := WriteSnapshotFrames(w.Dir(), covered, emit)
	if err != nil {
		return 0, err
	}
	if err := RemoveCoveredSegments(w.Dir(), covered); err != nil {
		return n, err
	}
	w.metrics.compactions.Inc()
	w.metrics.snapshotBytes.SetInt(n)
	return n, nil
}

// WriteSnapshotFrames writes a snapshot covering segments 1..covered:
// emit is called once with a write function that frames and appends
// one payload per call. The frames go through a buffer into the
// snapshot's temporary name (snap-%08d.snap.tmp), which WriteFileAtomic
// fsyncs and renames into place (then it fsyncs the directory), so a
// crash at any point leaves either the old recovery inputs or the new
// ones — never a half-snapshot under the final name. Recovery removes
// a temporary file a crash left behind.
func WriteSnapshotFrames(dir string, covered int, emit func(write func(payload []byte) error) error) (int64, error) {
	var n int64
	err := WriteFileAtomic(filepath.Join(dir, snapName(covered)), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		var buf []byte
		err := emit(func(payload []byte) error {
			buf = AppendFrame(buf[:0], payload)
			n += int64(len(buf))
			_, err := bw.Write(buf)
			return err
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, fmt.Errorf("storage: snapshot %s: %w", snapName(covered), err)
	}
	return n, nil
}

// RemoveCoveredSegments deletes the segment files a durable snapshot
// covering 1..covered made obsolete, plus any older snapshots, then
// syncs the directory.
func RemoveCoveredSegments(dir string, covered int) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.n <= covered {
			if err := os.Remove(filepath.Join(dir, seg.name)); err != nil {
				return fmt.Errorf("storage: compact remove %s: %w", seg.name, err)
			}
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, sn := range snaps {
		if sn.n < covered {
			os.Remove(filepath.Join(dir, sn.name)) // best effort
		}
	}
	return fsyncDir(dir)
}
