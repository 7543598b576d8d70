package storage

// Sharded-store tests: routing, sticky shard counts, parallel-recovery
// worker invariance, and the shard-count-invariant canonical
// serialization that lets chaos runs at different shard counts compare
// digests.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/obs"
)

func shardedOpts(t *testing.T, shards int) ShardedWALOptions {
	t.Helper()
	return ShardedWALOptions{
		WALOptions: WALOptions{Dir: t.TempDir(), Policy: SyncNever},
		Shards:     shards,
	}
}

// fillSharded drives the same deterministic stream of durable appends
// and values into ss.
func fillSharded(t *testing.T, ss *ShardedStore, records, values int) {
	t.Helper()
	for i := 0; i < values; i++ {
		v := fmt.Sprintf("value-%d", i)
		if err := ss.PutValueDurable(valueKey(v), []byte(v)); err != nil {
			t.Fatalf("put value %d: %v", i, err)
		}
	}
	for i := 0; i < records; i++ {
		if _, _, err := appendOne(ss, mkRecord(i), "cid", uint64(i+1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// canonDigest hashes the canonical serialization.
func canonDigest(t *testing.T, ss *ShardedStore) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := ss.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestShardedRoutingAndTotals(t *testing.T) {
	ss := NewShardedStore(4)
	fillSharded(t, ss, 30, 10)
	if ss.Len() != 30 {
		t.Fatalf("Len = %d, want 30", ss.Len())
	}
	if ss.numValues() != 10 {
		t.Fatalf("numValues = %d, want 10", ss.numValues())
	}
	// Every value resolves through its owning shard.
	for i := 0; i < 10; i++ {
		h := valueKey(fmt.Sprintf("value-%d", i))
		if !ss.HasValue(h) {
			t.Fatalf("HasValue(%s) = false", h)
		}
		if v, ok := ss.Value(h); !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Value(%s) = %q, %v", h, v, ok)
		}
	}
	// A user's records are all on one shard, in arrival order.
	recs := ss.ByUser("user-1")
	for j := 1; j < len(recs); j++ {
		if !recs[j-1].Time.Before(recs[j].Time) {
			t.Fatal("per-user arrival order not preserved")
		}
	}
	// The per-client sequence table spans shards.
	if seq, ok := ss.lastSeq("cid"); !ok || seq != 30 {
		t.Fatalf("LastSeq = %d, %v, want 30", seq, ok)
	}
}

func TestShardCountStickyPerDirectory(t *testing.T) {
	opts := shardedOpts(t, 4)
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(t, ss, 5, 2)
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	// Same count reopens fine.
	ss2, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatalf("same-count reopen: %v", err)
	}
	if err := ss2.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	// A different count must be refused — it would misroute every key.
	opts.Shards = 2
	if _, _, err := RecoverSharded(opts); err == nil {
		t.Fatal("reopening a 4-shard root with 2 shards succeeded")
	}
}

// TestRecoverShardedWorkerInvariance: the recovered state is identical
// whether shards replay serially or on many workers.
func TestRecoverShardedWorkerInvariance(t *testing.T) {
	opts := shardedOpts(t, 4)
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(t, ss, 50, 12)
	want := canonDigest(t, ss)
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		opts.RecoveryWorkers = workers
		got, stats, err := RecoverSharded(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := canonDigest(t, got); d != want {
			t.Fatalf("workers=%d: digest %s != serial %s", workers, d, want)
		}
		if len(stats.PerShard) != 4 {
			t.Fatalf("workers=%d: stats %+v", workers, stats)
		}
		if got.Len() != 50 {
			t.Fatalf("workers=%d: Len = %d", workers, got.Len())
		}
		if err := got.CloseWALs(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardCountInvariantDigest: the same accepted stream produces the
// same canonical serialization at any shard count — the property that
// lets the chaos matrix compare digests across Shards=1 and Shards=4.
func TestShardCountInvariantDigest(t *testing.T) {
	digests := make(map[int]string)
	for _, shards := range []int{1, 2, 4, 8} {
		ss, _, err := RecoverSharded(shardedOpts(t, shards))
		if err != nil {
			t.Fatal(err)
		}
		fillSharded(t, ss, 60, 15)
		digests[shards] = canonDigest(t, ss)
		if err := ss.CloseWALs(); err != nil {
			t.Fatal(err)
		}
	}
	for shards, d := range digests {
		if d != digests[1] {
			t.Fatalf("shards=%d digest %s differs from shards=1 %s", shards, d, digests[1])
		}
	}
}

// TestShardedCompactBoundsRecovery: compaction works per shard and the
// sharded recovery replays only live state.
func TestShardedCompactBoundsRecovery(t *testing.T) {
	opts := shardedOpts(t, 4)
	opts.SegmentSize = 256
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillSharded(t, ss, 80, 10)
	cstats, err := ss.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cstats.Records != 80 || cstats.Values != 10 {
		t.Fatalf("merged compaction stats %+v", cstats)
	}
	if cstats.SegmentsRemoved == 0 {
		t.Fatal("no segments removed across shards")
	}
	// Post-compaction appends only.
	for i := 80; i < 84; i++ {
		if _, _, err := appendOne(ss, mkRecord(i), "cid", uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	want := canonDigest(t, ss)
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	got, stats, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer got.CloseWALs()
	if stats.SnapshotRecords != 80 || stats.Records != 4 {
		t.Fatalf("recovery not bounded by live state: %+v", stats.RecoveryStats)
	}
	if d := canonDigest(t, got); d != want {
		t.Fatal("recovered sharded state differs")
	}
}

// TestShardedWALErrorSurfacesShard: a poisoned shard WAL is visible
// through the aggregate health check, and only the faulty shard is
// poisoned — the others keep accepting.
func TestShardedWALErrorSurfacesShard(t *testing.T) {
	opts := shardedOpts(t, 2)
	opts.Policy = SyncAlways
	opts.OpenFile = func(path string) (SegmentFile, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if strings.Contains(path, shardDirName(0)) {
			return &faultinject.File{F: f, FailSyncAt: 1}, nil
		}
		return f, nil
	}
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.CloseWALs()
	if err := ss.WALError(); err != nil {
		t.Fatalf("healthy store reports %v", err)
	}
	// Find users routed to each shard.
	user := func(shard int) string {
		for i := 0; ; i++ {
			uid := fmt.Sprintf("probe-%d", i)
			if shardIndex(uid, 2) == shard {
				return uid
			}
		}
	}
	rec0 := mkRecord(0)
	rec0.UserID = user(0)
	if _, _, err := appendOne(ss, rec0, "c", 1); err == nil {
		t.Fatal("append succeeded despite shard 0's failing fsync")
	}
	if err := ss.WALError(); err == nil {
		t.Fatal("poisoned shard not surfaced through WALError")
	}
	// Shard 1 is unaffected: the blast radius of a sticky WAL is one
	// shard.
	rec1 := mkRecord(1)
	rec1.UserID = user(1)
	if _, _, err := appendOne(ss, rec1, "c", 2); err != nil {
		t.Fatalf("healthy shard refused append: %v", err)
	}
}

// TestAppendBatchDurableGroupCommit: a batch lands with one fsync per
// touched shard (not one per record), a retransmitted batch is
// answered from the idempotency tables, and the whole batch survives
// recovery.
func TestAppendBatchDurableGroupCommit(t *testing.T) {
	opts := shardedOpts(t, 4)
	opts.Policy = SyncAlways
	opts.Registry = obs.NewRegistry()
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.CloseWALs()

	const n = 24
	items := make([]BatchAppend, n)
	for i := range items {
		r := mkRecord(i)
		r.UserID = fmt.Sprintf("gc-u-%d", i)
		items[i] = BatchAppend{Record: r, Seq: uint64(i + 1)}
	}
	results, err := ss.AppendBatchDurable(items, "gc")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Dup {
			t.Fatalf("item %d marked dup on first commit", i)
		}
	}
	if ss.Len() != n {
		t.Fatalf("Len = %d, want %d", ss.Len(), n)
	}

	// The amortization claim itself: the whole batch cost at most one
	// fsync per touched shard — nowhere near one per record.
	var b bytes.Buffer
	if err := opts.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fsyncs := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "wal_fsync_seconds_count") {
			f := strings.Fields(line)
			v, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				t.Fatalf("bad scrape line %q", line)
			}
			fsyncs += v
		}
	}
	if fsyncs == 0 || fsyncs > len(ss.stores) {
		t.Fatalf("batch cost %d fsyncs, want 1..%d (one per touched shard)", fsyncs, len(ss.stores))
	}

	results, err = ss.AppendBatchDurable(items, "gc")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Dup {
			t.Fatalf("retransmitted item %d not marked dup", i)
		}
	}
	if ss.Len() != n {
		t.Fatalf("retransmit grew the store to %d", ss.Len())
	}

	want := canonDigest(t, ss)
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	got, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer got.CloseWALs()
	if seq, ok := got.lastSeq("gc"); !ok || seq != n {
		t.Fatalf("recovered LastSeq = %d, %v, want %d", seq, ok, n)
	}
	if canonDigest(t, got) != want {
		t.Fatal("group-committed batch did not survive recovery")
	}
}

// TestAppendBatchDurableRefusedAtomically: a WAL fault during the
// group commit refuses the whole batch — nothing is applied, nothing
// may be ACKed, and the idempotency table does not advance.
func TestAppendBatchDurableRefusedAtomically(t *testing.T) {
	opts := WALOptions{
		Dir:    t.TempDir(),
		Policy: SyncAlways,
		OpenFile: func(path string) (SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, FailSyncAt: 1}, nil
		},
	}
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	items := make([]BatchAppend, 5)
	for i := range items {
		items[i] = BatchAppend{Record: mkRecord(i), Seq: uint64(i + 1)}
	}
	if _, err := st.AppendBatchDurable(items, "gc"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fsync failure", err)
	}
	if st.Len() != 0 {
		t.Fatalf("failed batch applied %d records", st.Len())
	}
	if _, ok := st.LastSeq("gc"); ok {
		t.Fatal("failed batch advanced the idempotency table")
	}
}

// TestAppendBatchDurableFirstSeqOfNewClient: the idempotency table
// dedups only against seqs a client has actually applied, so a new
// client's first record lands even at seq 0, and resending it is then
// a dup with its index.
func TestAppendBatchDurableFirstSeqOfNewClient(t *testing.T) {
	st := newStore()
	for i, want := range []BatchResult{{Idx: 0}, {Idx: 0, Dup: true}} {
		idx, dup, err := appendOne(st, mkRecord(i), "fresh", 0)
		if err != nil || (BatchResult{Idx: idx, Dup: dup}) != want {
			t.Fatalf("append %d: idx=%d dup=%v err=%v, want %+v", i, idx, dup, err, want)
		}
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d, want 1", st.Len())
	}
}
