// The WAL lifecycle: one replay loop and one checkpoint. The store's
// crash safety (CRC-framed segments, rotation, fsync policies,
// torn-tail truncation, snapshot+truncate compaction) is not specific
// to visit records — any service with incremental state journals
// opaque payloads through the same files and recovers them with the
// same guarantees. A store shard's recovery is this replay plus a
// walEntry decoder; fplinkd journals linker adds the same way.
//
// ReplayJournal loads the newest snapshot (if any) and the segments
// after it, truncating a torn tail frame. Checkpoint writes a caller's
// cut into an atomically renamed snapshot and deletes the segments it
// covers; Store.Compact and linkd's Compact both check Idle, rotate,
// capture their cut under their own lock, and call it. Both use the
// wal-%08d.seg / snap-%08d.snap naming, so a journal directory is
// inspectable with the same tooling as a store's.
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
// cover go to segFn, in log order. A torn, corrupt or oversized frame
// at the tail of the final segment is the crash signature: it is
// truncated durably (file, then directory). Any other failure fails
// recovery and leaves the files as they are: a bad frame anywhere
// else (including inside a snapshot, which is written atomically),
// and an error from snapFn or segFn, which means a frame that passed
// its checksum does not decode — dropping it and every ACKed frame
// after it is not a crash repair. Obsolete files are deleted
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
		off, derr := DecodeSegment(data, opts.frameLimit(), func(payload []byte) error {
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
		var fnErr error
		validLen, derr := DecodeSegment(data, opts.frameLimit(), func(payload []byte) error {
			stats.Frames++
			fnErr = segFn(payload)
			return fnErr
		})
		stats.Segments++
		if derr != nil {
			if i != len(live)-1 || fnErr != nil {
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
	// Segments can all be gone after compaction; new segment numbers
	// must still stay above the snapshot's coverage or the next
	// recovery would skip them.
	if snapSeg+1 > next {
		next = snapSeg + 1
	}
	// Best effort: a leftover covered file is skipped next time anyway.
	_, _ = removeCoveredSegments(opts.Dir, snapSeg)
	w, err := openWALAt(opts, next)
	if err != nil {
		return nil, stats, err
	}
	// Publish what recovery found: a scrape after a restart shows how
	// much was replayed and whether a torn tail was dropped.
	w.metrics.recoveredRecords.SetInt(int64(stats.Frames))
	w.metrics.recoveredSegments.SetInt(int64(stats.Segments))
	w.metrics.truncatedBytes.SetInt(stats.TruncatedBytes)
	w.metrics.snapshotRecords.SetInt(int64(stats.SnapshotFrames))
	return w, stats, nil
}

// Idle reports whether a checkpoint would fold nothing new: the active
// segment holds no frame and is the only segment file in the
// directory, so the newest snapshot (if any) already covers every
// frame. Compactions skip the rotate and the snapshot rewrite then.
// The caller holds the lock that orders its appends. A closed or
// poisoned log is never idle, so its compaction still reports why.
func (w *WAL) Idle() bool {
	w.mu.Lock()
	empty := w.size == 0 && w.err == nil && !w.closed
	w.mu.Unlock()
	if !empty {
		return false
	}
	segs, err := listSegments(w.opts.Dir)
	return err == nil && len(segs) == 1
}

// Checkpoint compacts the log: it writes a snapshot covering segments
// 1..covered from the frames emit writes, removes the covered segments
// and older snapshots, and counts the compaction in
// wal_compactions_total and wal_snapshot_bytes. The caller first
// rotates (so every segment up to covered is frozen) and captures, under
// the lock that orders its appends, the state those segments hold;
// every payload appended after that rotation is replayed on top of the
// snapshot, never duplicated. Callers serialize their checkpoints. It
// returns the framed snapshot size and the number of segments removed.
func (w *WAL) Checkpoint(covered int, emit func(write func(payload []byte) error) error) (bytes int64, segmentsRemoved int, err error) {
	bytes, err = writeSnapshotFrames(w.Dir(), covered, emit)
	if err != nil {
		return 0, 0, err
	}
	// The snapshot is durable under its final name: the covered
	// segments and any older snapshots are now dead weight.
	segmentsRemoved, err = removeCoveredSegments(w.Dir(), covered)
	if err != nil {
		return bytes, segmentsRemoved, err
	}
	w.metrics.compactions.Inc()
	w.metrics.snapshotBytes.SetInt(bytes)
	return bytes, segmentsRemoved, nil
}

// writeSnapshotFrames writes a snapshot covering segments 1..covered:
// emit is called once with a write function that frames and appends
// one payload per call. The frames go through a buffer into the
// snapshot's temporary name (snap-%08d.snap.tmp), which WriteFileAtomic
// fsyncs and renames into place (then it fsyncs the directory), so a
// crash at any point leaves either the old recovery inputs or the new
// ones — never a half-snapshot under the final name. Recovery removes
// a temporary file a crash left behind.
func writeSnapshotFrames(dir string, covered int, emit func(write func(payload []byte) error) error) (int64, error) {
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

// removeCoveredSegments deletes what a durable snapshot covering
// 1..covered made obsolete — the segments it covers, every older
// snapshot, and any temporary snapshot a crash left before its rename
// — then syncs the directory if anything went. It returns how many
// segments it removed; a segment it cannot remove is an error.
func removeCoveredSegments(dir string, covered int) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("storage: wal dir: %w", err)
	}
	removed, dirty := 0, false
	for _, e := range ents {
		name := e.Name()
		path := filepath.Join(dir, name)
		if n, ok := fileNumber(name, segPattern); ok && n <= covered {
			if err := os.Remove(path); err != nil {
				return removed, fmt.Errorf("storage: compact remove %s: %w", name, err)
			}
			removed++
		} else if n, ok := fileNumber(name, snapPattern); ok && n < covered || isSnapTemp(name) {
			dirty = os.Remove(path) == nil || dirty
		}
	}
	if removed == 0 && !dirty {
		return 0, nil
	}
	if err := fsyncDir(dir); err != nil {
		return removed, fmt.Errorf("storage: compact dir sync: %w", err)
	}
	return removed, nil
}
