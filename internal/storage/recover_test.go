package storage

// Recovery contract tests shared by the collector store (Recover) and
// the linkd journal (ReplayJournal): the stats and gauges each reports
// for a directory holding a snapshot, live segments and a torn tail.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpdyn/internal/obs"
)

// tornTail is a frame header promising 200 payload bytes followed by
// two of them: the shape a crash mid-append leaves.
var tornTail = []byte{200, 0, 0, 0, 1, 2, 3, 4, 'x', 'y'}

// appendTornTail appends tornTail to the newest segment of dir.
func appendTornTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1].name), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tornTail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// liveSegments counts the segment files of dir above the newest
// snapshot, and returns that snapshot's coverage (0 without one).
func liveSegments(t *testing.T, dir string) (segments, snapSeg int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 0 {
		snapSeg = snaps[len(snaps)-1].n
	}
	for _, s := range segs {
		if s.n > snapSeg {
			segments++
		}
	}
	return segments, snapSeg
}

// recoveredGauges returns every wal_recovered_* gauge (and the
// truncation gauge) of reg, unlabeled.
func recoveredGauges(reg *obs.Registry) map[string]float64 {
	snap := reg.Snapshot()
	out := make(map[string]float64)
	for _, name := range []string{
		"wal_recovered_records", "wal_recovered_values", "wal_recovered_segments",
		"wal_recovery_truncated_bytes", "wal_recovered_snapshot_records", "wal_recovered_snapshot_values",
	} {
		out[name] = snap.Gauges[name]
	}
	return out
}

// TestRecoverStatsPinned pins what recovery reports for a store
// directory and a journal directory that each hold a snapshot, live
// segments after it and a torn tail: every RecoveryStats and
// JournalReplayStats field and every recovery gauge.
func TestRecoverStatsPinned(t *testing.T) {
	t.Run("store", func(t *testing.T) {
		opts := WALOptions{Dir: t.TempDir(), Policy: SyncNever, SegmentSize: 512}
		st, w, _, err := recoverDir(opts)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, st, 12, 3)
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			v := fmt.Sprintf("late-%d", i)
			if err := st.PutValueDurable(valueKey(v), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 12; i < 17; i++ {
			if _, _, err := appendOne(st, mkRecord(i), "cid", uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		appendTornTail(t, opts.Dir)
		segments, snapSeg := liveSegments(t, opts.Dir)
		if segments < 2 || snapSeg == 0 {
			t.Fatalf("setup: %d live segments over snapshot %d, want ≥2 over a snapshot", segments, snapSeg)
		}

		reg := obs.NewRegistry()
		opts.Registry = reg
		st2, w2, stats, err := recoverDir(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		want := RecoveryStats{
			Segments: segments, Records: 5, Values: 2,
			TruncatedBytes: int64(len(tornTail)), Truncated: true,
			SnapshotSeg: snapSeg, SnapshotRecords: 12, SnapshotValues: 3,
		}
		if stats != want {
			t.Fatalf("stats = %+v, want %+v", stats, want)
		}
		if st2.Len() != 17 || st2.NumValues() != 5 {
			t.Fatalf("recovered %d records, %d values; want 17, 5", st2.Len(), st2.NumValues())
		}
		wantGauges := map[string]float64{
			"wal_recovered_records": 5, "wal_recovered_values": 2, "wal_recovered_segments": float64(segments),
			"wal_recovery_truncated_bytes":   float64(len(tornTail)),
			"wal_recovered_snapshot_records": 12, "wal_recovered_snapshot_values": 3,
		}
		if got := recoveredGauges(reg); !reflect.DeepEqual(got, wantGauges) {
			t.Fatalf("gauges = %v, want %v", got, wantGauges)
		}
	})

	t.Run("journal", func(t *testing.T) {
		opts := WALOptions{Dir: t.TempDir(), Policy: SyncNever, SegmentSize: 64}
		w, _, err := ReplayJournal(opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := w.AppendPayload([]byte(fmt.Sprintf("old-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// A snapshot of two live payloads over everything written so
		// far, framed by hand; the covered segments stay behind, as a
		// crash between the snapshot rename and their removal leaves
		// them.
		active, err := w.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		snap := AppendFrame(AppendFrame(nil, []byte("live-a")), []byte("live-b"))
		if err := os.WriteFile(filepath.Join(opts.Dir, snapName(active-1)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		var after []string
		for i := 0; i < 7; i++ {
			p := fmt.Sprintf("new-%02d", i)
			after = append(after, p)
			if err := w.AppendPayload([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		appendTornTail(t, opts.Dir)
		segments, snapSeg := liveSegments(t, opts.Dir)
		if segments < 2 || snapSeg != active-1 {
			t.Fatalf("setup: %d live segments over snapshot %d, want ≥2 over %d", segments, snapSeg, active-1)
		}

		reg := obs.NewRegistry()
		opts.Registry = reg
		var snapFrames, segFrames []string
		w2, stats, err := ReplayJournal(opts,
			func(p []byte) error { snapFrames = append(snapFrames, string(p)); return nil },
			func(p []byte) error { segFrames = append(segFrames, string(p)); return nil })
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		want := JournalReplayStats{
			Segments: segments, Frames: 7,
			TruncatedBytes: int64(len(tornTail)), Truncated: true,
			SnapshotSeg: snapSeg, SnapshotFrames: 2,
		}
		if stats != want {
			t.Fatalf("stats = %+v, want %+v", stats, want)
		}
		if !reflect.DeepEqual(snapFrames, []string{"live-a", "live-b"}) || !reflect.DeepEqual(segFrames, after) {
			t.Fatalf("replayed snapshot %v and segments %v", snapFrames, segFrames)
		}
		wantGauges := map[string]float64{
			"wal_recovered_records": 7, "wal_recovered_values": 0, "wal_recovered_segments": float64(segments),
			"wal_recovery_truncated_bytes":   float64(len(tornTail)),
			"wal_recovered_snapshot_records": 2, "wal_recovered_snapshot_values": 0,
		}
		if got := recoveredGauges(reg); !reflect.DeepEqual(got, wantGauges) {
			t.Fatalf("gauges = %v, want %v", got, wantGauges)
		}
		if segs, _ := listSegments(opts.Dir); len(segs) != segments+1 {
			t.Fatalf("%d segments after replay, want the %d live ones plus a new one", len(segs), segments)
		}
	})
}

// TestRecoverRefusesUndecodableTailFrame: a frame in the last segment
// that passes its checksum but does not decode is not a torn tail.
// Recovery must fail naming the segment and the frame's offset and
// leave the file as it was, instead of truncating it and every ACKed
// frame after it.
func TestRecoverRefusesUndecodableTailFrame(t *testing.T) {
	// assertRefused checks err names seg at off and that seg still
	// holds want.
	assertRefused := func(t *testing.T, err error, dir string, off int, want []byte) {
		t.Helper()
		name := segName(1)
		if err == nil {
			t.Fatal("recovery over an undecodable tail frame succeeded")
		}
		if at := fmt.Sprintf("%s corrupt at offset %d", name, off); !strings.Contains(err.Error(), at) {
			t.Fatalf("error %q does not name %q", err, at)
		}
		for _, frameErr := range []error{ErrTornFrame, ErrChecksum, ErrFrameSize} {
			if errors.Is(err, frameErr) {
				t.Fatalf("error %q is a frame error", err)
			}
		}
		got, rerr := os.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s changed: %d bytes, want %d", name, len(got), len(want))
		}
	}

	t.Run("store", func(t *testing.T) {
		opts := WALOptions{Dir: t.TempDir(), Policy: SyncAlways}
		st, w, _, err := recoverDir(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendPayload([]byte("not a wal entry")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := appendOne(st, mkRecord(1), "cid", 1); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(opts.Dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = recoverDir(opts)
		assertRefused(t, err, opts.Dir, 0, seg)
	})

	t.Run("journal", func(t *testing.T) {
		opts := WALOptions{Dir: t.TempDir(), Policy: SyncAlways}
		w, _, err := ReplayJournal(opts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"a", "bad", "c"} {
			if err := w.AppendPayload([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.ReadFile(filepath.Join(opts.Dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		decode := func(p []byte) error {
			if string(p) == "bad" {
				return errors.New("undecodable")
			}
			return nil
		}
		_, _, err = ReplayJournal(opts, decode, decode)
		assertRefused(t, err, opts.Dir, frameHeaderSize+1, seg)
	})
}

// TestRecoverRefusesOtherShardLayout: RecoverSharded refuses a root
// created with another shard count, and a root of the retired flat
// layout (one store's files directly in the root), instead of reading
// either as an empty store. The flat refusal names the one-time
// migration, and a flat directory moved as it says recovers the same
// store.
func TestRecoverRefusesOtherShardLayout(t *testing.T) {
	t.Run("sharded dir opened flat", func(t *testing.T) {
		opts := shardedOpts(t, 4)
		ss, _, err := RecoverSharded(opts)
		if err != nil {
			t.Fatal(err)
		}
		fillSharded(t, ss, 20, 2)
		if err := ss.CloseWALs(); err != nil {
			t.Fatal(err)
		}
		one := opts
		one.Shards = 1
		if _, _, err := RecoverSharded(one); err == nil || !strings.Contains(err.Error(), "created with 4 shards, reopened with 1") {
			t.Fatalf("one-shard recovery of a 4-shard dir: err = %v, want a refusal naming both counts", err)
		}
		if segs, _ := listSegments(filepath.Join(opts.Dir, shardDirName(0))); len(segs) != 1 {
			t.Fatalf("refused recovery touched shard-00: %d segments, want 1", len(segs))
		}
		ss2, _, err := RecoverSharded(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ss2.CloseWALs()
		if ss2.Len() != 20 {
			t.Fatalf("sharded recovery after the refusal: %d records, want 20", ss2.Len())
		}
	})

	t.Run("flat dir opened sharded", func(t *testing.T) {
		// A flat dir as the retired layout left it: a snapshot, several
		// live segments after it, a torn tail, and seq rows from two
		// clients in both the snapshot and the segments.
		opts := WALOptions{Dir: t.TempDir(), Policy: SyncNever, SegmentSize: 512}
		st, w, _, err := recoverDir(opts)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, st, 12, 3)
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		for i := 12; i < 30; i++ {
			if _, _, err := appendOne(st, mkRecord(i), fmt.Sprintf("cid-%d", i%2), uint64(100+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		appendTornTail(t, opts.Dir)
		if segments, snapSeg := liveSegments(t, opts.Dir); segments < 2 || snapSeg == 0 {
			t.Fatalf("setup: %d live segments over snapshot %d, want ≥2 over a snapshot", segments, snapSeg)
		}
		var want bytes.Buffer
		if _, err := oneShard(st).WriteTo(&want); err != nil {
			t.Fatal(err)
		}

		for _, n := range []int{1, 4} {
			_, _, err = RecoverSharded(ShardedWALOptions{WALOptions: opts, Shards: n})
			if err == nil || !strings.Contains(err.Error(), shardDirName(0)) || !strings.Contains(err.Error(), shardsMetaName) {
				t.Fatalf("%d-shard recovery of a flat dir: err = %v, want a refusal naming %s and %s", n, err, shardDirName(0), shardsMetaName)
			}
			if _, err := os.Stat(filepath.Join(opts.Dir, shardsMetaName)); !os.IsNotExist(err) {
				t.Fatalf("refused recovery wrote %s (stat: %v)", shardsMetaName, err)
			}
		}

		// The migration the refusal names: move the segments and
		// snapshots into shard-00 and write SHARDS holding 1.
		shard0 := filepath.Join(opts.Dir, shardDirName(0))
		if err := os.Mkdir(shard0, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, pattern := range []string{"wal-*.seg", "snap-*.snap"} {
			names, _ := filepath.Glob(filepath.Join(opts.Dir, pattern))
			for _, name := range names {
				if err := os.Rename(name, filepath.Join(shard0, filepath.Base(name))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(opts.Dir, shardsMetaName), []byte("1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ss, stats, err := RecoverSharded(ShardedWALOptions{WALOptions: opts, Shards: 1})
		if err != nil {
			t.Fatalf("recovery after the migration: %v", err)
		}
		defer ss.CloseWALs()
		if !stats.Truncated || stats.SnapshotRecords != 12 {
			t.Fatalf("migrated recovery stats = %+v, want the snapshot's 12 records and the torn tail", stats.RecoveryStats)
		}
		var got bytes.Buffer
		if _, err := ss.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("migrated store exports %d bytes, the flat store %d: they differ", got.Len(), want.Len())
		}
		for _, cid := range []string{"cid", "cid-0", "cid-1"} {
			wantSeq, wantOK := st.LastSeq(cid)
			if seq, ok := ss.lastSeq(cid); seq != wantSeq || ok != wantOK || !ok {
				t.Fatalf("LastSeq(%s) = %d, %v after the migration, want %d, true", cid, seq, ok, wantSeq)
			}
		}
	})
}
