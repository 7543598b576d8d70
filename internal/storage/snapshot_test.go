package storage

// Tests for the serialization contracts (io.WriterTo/io.ReaderFrom
// byte counts, byte-identical snapshots) and the snapshot+truncate
// compaction cycle: bounded replay, crash-stage recovery, idempotency
// table survival.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/obs"
)

// populate fills a store with a deterministic mix of records and
// values.
func populate(t *testing.T, st *Store, records, values int) {
	t.Helper()
	for i := 0; i < values; i++ {
		v := fmt.Sprintf("value-%d", i)
		if err := st.PutValueDurable(valueKey(v), []byte(v)); err != nil {
			t.Fatalf("put value %d: %v", i, err)
		}
	}
	for i := 0; i < records; i++ {
		if _, _, err := appendOne(st, mkRecord(i), "cid", uint64(i+1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestWriteToReadFromByteCounts(t *testing.T) {
	st := newStore()
	populate(t, st, 20, 5)

	path := filepath.Join(t.TempDir(), "snap.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	written, err := oneShard(st).WriteTo(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if written != fi.Size() {
		t.Fatalf("WriteTo returned %d bytes, file is %d", written, fi.Size())
	}
	if written == 0 {
		t.Fatal("WriteTo returned 0 bytes for a non-empty store")
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	loaded := NewShardedStore(1)
	read, err := loaded.ReadFrom(g)
	if err != nil {
		t.Fatal(err)
	}
	if read != written {
		t.Fatalf("ReadFrom consumed %d bytes, WriteTo wrote %d", read, written)
	}
	if loaded.Len() != st.Len() || loaded.numValues() != st.NumValues() {
		t.Fatalf("round trip lost data: %d/%d records, %d/%d values",
			loaded.Len(), st.Len(), loaded.numValues(), st.NumValues())
	}
}

func TestWriteToDeterministic(t *testing.T) {
	st := newStore()
	populate(t, st, 30, 12)
	var a, b bytes.Buffer
	if _, err := oneShard(st).WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := oneShard(st).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteTo snapshots of the same store differ")
	}

	// A store holding the same data built in a different PutValue order
	// must serialize identically too: values are emitted sorted by hash,
	// not in map/insertion order.
	other := newStore()
	for i := 11; i >= 0; i-- {
		v := fmt.Sprintf("value-%d", i)
		other.PutValue(valueKey(v), []byte(v))
	}
	for i := 0; i < 30; i++ {
		other.Append(mkRecord(i))
	}
	var c bytes.Buffer
	if _, err := oneShard(other).WriteTo(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("equal state with different value insertion order serialized differently")
	}
}

// TestRecoverAfterTornTailTruncation is the regression for the
// un-fsynced truncation: recovery truncates the torn tail, then a
// second recovery (the "crashed right after recovery" case) must see a
// clean log — same state, nothing further to truncate — and the
// segment file on disk must already be at the truncated length.
func TestRecoverAfterTornTailTruncation(t *testing.T) {
	opts := walOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st, 10, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last segment mid-frame.
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	last := filepath.Join(opts.Dir, segs[len(segs)-1].name)
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st1, w1, stats1, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats1.Truncated || stats1.TruncatedBytes == 0 {
		t.Fatalf("first recovery did not truncate: %+v", stats1)
	}
	validLen, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if validLen.Size() != fi.Size()-3-stats1.TruncatedBytes {
		t.Fatalf("segment size %d after truncation, want %d",
			validLen.Size(), fi.Size()-3-stats1.TruncatedBytes)
	}
	d1 := indexDigest(t, st1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-immediately-after-recovery: recover the same directory
	// again. The truncation must have stuck — no mid-log corruption, no
	// second truncation, identical state.
	st2, w2, stats2, err := recoverDir(opts)
	if err != nil {
		t.Fatalf("second recovery after truncation: %v", err)
	}
	defer w2.Close()
	if stats2.Truncated {
		t.Fatalf("second recovery truncated again: %+v", stats2)
	}
	if d2 := indexDigest(t, st2); d2 != d1 {
		t.Fatal("state diverged between first and second recovery")
	}
}

// TestFsyncMetricsObserveFailures asserts the fsync histogram counts
// failing syncs too, and that failures increment their own counter —
// scraped exactly as the admin endpoint would.
func TestFsyncMetricsObserveFailures(t *testing.T) {
	reg := obs.NewRegistry()
	opts := WALOptions{
		Dir:      t.TempDir(),
		Policy:   SyncAlways,
		Registry: reg,
		OpenFile: func(path string) (SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, FailSyncAt: 2}, nil
		},
	}
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := appendOne(st, mkRecord(0), "c", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := appendOne(st, mkRecord(1), "c", 2); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fsync failure", err)
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	if !strings.Contains(scrape, "wal_fsync_failures_total 1") {
		t.Errorf("scrape missing wal_fsync_failures_total 1:\n%s", scrape)
	}
	// Both the successful and the failed sync must be observed: before
	// the fix the histogram missed exactly the syncs an operator most
	// needs to see.
	if !strings.Contains(scrape, "wal_fsync_seconds_count 2") {
		t.Errorf("scrape missing wal_fsync_seconds_count 2:\n%s", scrape)
	}
}

// compactOpts is walOpts with a tiny segment size so a handful of
// appends spans many segments.
func compactOpts(t *testing.T) WALOptions {
	t.Helper()
	o := walOpts(t)
	o.SegmentSize = 256
	return o
}

// TestCompactBoundsRecovery is the tentpole property: after Compact,
// recovery replays only post-compaction appends — the replayed segment
// count is independent of how much history preceded the snapshot.
func TestCompactBoundsRecovery(t *testing.T) {
	opts := compactOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st, 60, 10) // tiny segments: dozens of files
	segsBefore, _ := listSegments(opts.Dir)
	if len(segsBefore) < 5 {
		t.Fatalf("want many segments before compaction, got %d", len(segsBefore))
	}

	cstats, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cstats.Records != 60 || cstats.Values != 10 {
		t.Fatalf("compaction stats %+v, want 60 records / 10 values", cstats)
	}
	if cstats.SegmentsRemoved == 0 || cstats.SnapshotBytes == 0 {
		t.Fatalf("compaction did not truncate history: %+v", cstats)
	}

	// A few post-compaction appends land in fresh segments.
	for i := 60; i < 65; i++ {
		if _, _, err := appendOne(st, mkRecord(i), "cid", uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	digest := indexDigest(t, st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st2, w2, rstats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rstats.SnapshotSeg == 0 || rstats.SnapshotRecords != 60 || rstats.SnapshotValues != 10 {
		t.Fatalf("snapshot not loaded: %+v", rstats)
	}
	if rstats.Records != 5 {
		t.Fatalf("replayed %d records from segments, want only the 5 post-compaction ones", rstats.Records)
	}
	if rstats.Segments >= len(segsBefore) {
		t.Fatalf("replayed %d segments — restart cost not bounded (history had %d)", rstats.Segments, len(segsBefore))
	}
	if got := indexDigest(t, st2); got != digest {
		t.Fatal("recovered state differs from pre-restart state")
	}
	if st2.Len() != 65 || st2.NumValues() != 10 {
		t.Fatalf("recovered %d records / %d values", st2.Len(), st2.NumValues())
	}
}

// TestCompactPreservesIdempotency: the idempotency table must survive
// the snapshot, or a client resubmitting after a post-compaction
// restart would double-append.
func TestCompactPreservesIdempotency(t *testing.T) {
	opts := walOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	idx9 := 0
	for i := 0; i < 10; i++ {
		idx, _, err := appendOne(st, mkRecord(i), "client-a", uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		idx9 = idx
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st2, w2, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	idx, dup, err := appendOne(st2, mkRecord(9), "client-a", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("resubmit of the last applied seq not deduped after compaction+recovery")
	}
	if idx != idx9 {
		t.Fatalf("dup ACK returned index %d, want original %d", idx, idx9)
	}
	if st2.Len() != 10 {
		t.Fatalf("double append: len=%d", st2.Len())
	}
}

// TestCompactRepeatedIsIdempotent: compacting an unchanged store again
// produces a byte-identical snapshot (under a new name) and recovery
// converges to the same state. A forced rotation between the two runs
// leaves a second (empty) segment, so the log is not idle and the
// second Compact really checkpoints.
func TestCompactRepeatedIsIdempotent(t *testing.T) {
	opts := compactOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	populate(t, st, 25, 6)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps1, _ := listSnapshots(opts.Dir)
	if len(snaps1) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps1))
	}
	data1, err := os.ReadFile(filepath.Join(opts.Dir, snaps1[0].name))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps2, _ := listSnapshots(opts.Dir)
	if len(snaps2) != 1 {
		t.Fatalf("second compaction left %d snapshots, want the newest only", len(snaps2))
	}
	data2, err := os.ReadFile(filepath.Join(opts.Dir, snaps2[0].name))
	if err != nil {
		t.Fatal(err)
	}
	if snaps2[0].n == snaps1[0].n {
		t.Fatalf("second compaction kept %s: it did not checkpoint", snaps1[0].name)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("same state compacted twice produced different snapshot bytes")
	}
}

// TestRecoverIgnoresAbandonedSnapTmp: a crash mid-compaction leaves a
// temporary snapshot the rename never promoted, under its
// snap-%08d.snap.tmp name or the fixed snap-tmp older versions used;
// recovery must ignore both, replay the (still intact) segments and
// remove them.
func TestRecoverIgnoresAbandonedSnapTmp(t *testing.T) {
	opts := walOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st, 15, 4)
	digest := indexDigest(t, st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash artifacts: half-written temporary snapshots.
	tmps := []string{snapName(1) + ".tmp", "snap-tmp"}
	for _, name := range tmps {
		if err := os.WriteFile(filepath.Join(opts.Dir, name), []byte("torn half-snapsho"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, w2, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatalf("recovery with abandoned temporary snapshots: %v", err)
	}
	defer w2.Close()
	if stats.SnapshotSeg != 0 {
		t.Fatalf("a temporary snapshot was treated as a snapshot: %+v", stats)
	}
	if got := indexDigest(t, st2); got != digest {
		t.Fatal("state differs after recovery with abandoned temporary snapshots")
	}
	for _, name := range tmps {
		if _, err := os.Stat(filepath.Join(opts.Dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (stat: %v)", name, err)
		}
	}
}

// TestRecoverCrashBetweenRenameAndDelete: the snapshot was promoted
// but the covered segments were not deleted before the crash. Recovery
// must prefer the snapshot, skip the covered segments (no double
// replay), and clean them up.
func TestRecoverCrashBetweenRenameAndDelete(t *testing.T) {
	opts := compactOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st, 40, 8)

	// Stage the crash: write the snapshot by hand (exactly what Compact
	// does) but "crash" before deleting covered segments.
	active, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	cut := compactState{
		records: append([]*fingerprint.Record(nil), st.records...),
		hashes:  st.sortedValueHashesLocked(),
		values:  st.values,
		seqs:    map[string]seqEntry{},
		covered: active - 1,
	}
	for cid, seq := range st.lastSeq {
		cut.seqs[cid] = seqEntry{Seq: seq, Idx: st.lastIdx[cid]}
	}
	st.mu.Unlock()
	if _, err := writeSnapshotFrames(opts.Dir, cut.covered, cut.emit); err != nil {
		t.Fatal(err)
	}
	digest := indexDigest(t, st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segsBefore, _ := listSegments(opts.Dir)

	st2, w2, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.SnapshotSeg != cut.covered {
		t.Fatalf("snapshot seg %d, want %d", stats.SnapshotSeg, cut.covered)
	}
	if got := indexDigest(t, st2); got != digest {
		t.Fatal("covered segments double-replayed or snapshot ignored")
	}
	segsAfter, _ := listSegments(opts.Dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("covered segments not cleaned up: %d before, %d after", len(segsBefore), len(segsAfter))
	}
}

// TestCorruptSnapshotFailsRecovery: a named snapshot is written
// atomically, so corruption inside it is real damage — recovery must
// fail loudly, not silently drop live state.
func TestCorruptSnapshotFailsRecovery(t *testing.T) {
	opts := walOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, st, 10, 2)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(opts.Dir)
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(snaps))
	}
	path := filepath.Join(opts.Dir, snaps[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := recoverDir(opts); err == nil {
		t.Fatal("recovery over a corrupt snapshot succeeded")
	}
}

// TestCompactMetrics: compaction is visible to the operator.
func TestCompactMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	opts := walOpts(t)
	opts.Registry = reg
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	populate(t, st, 5, 1)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wal_compactions_total 1") {
		t.Errorf("scrape missing wal_compactions_total 1:\n%s", b.String())
	}
}

// TestCompactIdleTickWritesNothing: a Compact with nothing appended
// since the previous one leaves the directory and
// wal_compactions_total as they are and reports CoveredSeg 0; an
// append in between makes the next Compact checkpoint again.
func TestCompactIdleTickWritesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	opts := shardedOpts(t, 1)
	opts.Registry = reg
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.CloseWALs()
	shard0 := filepath.Join(opts.Dir, shardDirName(0))
	listing := func() []string {
		ents, err := os.ReadDir(shard0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	compactions := func() int64 { return reg.Snapshot().Counters[`wal_compactions_total{shard="00"}`] }
	compact := func() CompactionStats {
		cs, err := ss.Compact()
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}

	fillSharded(t, ss, 10, 2)
	if cs := compact(); cs.CoveredSeg == 0 || compactions() != 1 {
		t.Fatalf("first compaction: stats %+v, %d compactions; want a checkpoint", cs, compactions())
	}
	before := listing()
	if cs := compact(); cs != (CompactionStats{}) {
		t.Fatalf("idle compaction returned %+v, want zero stats", cs)
	}
	if after := listing(); !reflect.DeepEqual(after, before) || compactions() != 1 {
		t.Fatalf("idle compaction changed the dir %v → %v (%d compactions, want 1)", before, after, compactions())
	}

	if _, _, err := appendOne(ss, mkRecord(10), "cid", 11); err != nil {
		t.Fatal(err)
	}
	if cs := compact(); cs.CoveredSeg == 0 || cs.Records != 11 || compactions() != 2 {
		t.Fatalf("compaction after an append: stats %+v, %d compactions; want a checkpoint of 11 records", cs, compactions())
	}
	if after := listing(); reflect.DeepEqual(after, before) {
		t.Fatalf("compaction after an append left the dir as it was: %v", after)
	}
}
