package collector

// Sharded chaos matrix: the kill/recover story of chaos_test.go run
// against the sharded backend at Shards=1 and Shards=4. Because the
// resilient client drains its full backlog at the end, the accepted
// set is exactly the submitted set in every configuration, and the
// canonical serialization (shard-count invariant by construction) must
// produce identical digests across the matrix.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

func shardedChaosDigest(t *testing.T, ss *storage.ShardedStore) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := ss.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// runShardedChaos submits a fixed deterministic record stream through
// repeated server kills against a WAL root with the given shard count,
// drains fully on a final healthy server, checks exactly-once
// delivery, and returns the canonical digest of the recovered state.
func runShardedChaos(t *testing.T, shards int) string {
	t.Helper()
	opts := storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{Dir: t.TempDir(), Policy: storage.SyncAlways},
		Shards:     shards,
	}

	// Reserve an address the restarting servers can share.
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis0.Addr().String()
	lis0.Close()

	r := NewResilientClient(addr)
	r.MaxRetries = 1
	r.Backoff = time.Millisecond
	r.batchSize = 8
	defer r.Close()

	const total = 48
	const rounds = 3
	submitted := 0
	for round := 0; round < rounds; round++ {
		ss, _, err := storage.RecoverSharded(opts)
		if err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			ss.CloseWALs()
			t.Skipf("could not rebind %s: %v", addr, err)
		}
		srv := NewServer(ss)
		srv.Logf = func(string, ...any) {}
		go srv.Serve(lis)

		for i := 0; i < total/rounds; i++ {
			rec := sampleRecord()
			rec.UserID = fmt.Sprintf("sm-%d", submitted)
			rec.Cookie = fmt.Sprintf("sck-%d", submitted%5)
			submitted++
			r.Submit(rec) // errors just leave it buffered
			if i == total/rounds/2 {
				srv.Close() // kill mid-round; later submits buffer
			}
		}
		srv.Close()
		if err := ss.CloseWALs(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}

	// Final healthy server: drain everything still pending.
	ss, _, err := storage.RecoverSharded(opts)
	if err != nil {
		t.Fatalf("final recover: %v", err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		ss.CloseWALs()
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := NewServer(ss)
	srv.Logf = t.Logf
	go srv.Serve(lis)
	if err := r.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	srv.Close()

	// Exactly-once delivery at this shard count.
	if ss.Len() != submitted {
		t.Fatalf("shards=%d: %d records stored, %d submitted", shards, ss.Len(), submitted)
	}
	for i := 0; i < submitted; i++ {
		uid := fmt.Sprintf("sm-%d", i)
		if n := len(ss.ByUser(uid)); n != 1 {
			t.Fatalf("shards=%d: record %s delivered %d times", shards, uid, n)
		}
	}
	stats := r.Stats()
	if stats.Dropped != 0 {
		t.Fatalf("shards=%d: buffer dropped %d records", shards, stats.Dropped)
	}

	digest := shardedChaosDigest(t, ss)
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	// Recovery worker invariance on the post-chaos log: replaying the
	// shards serially or wide yields the same state.
	for _, workers := range []int{1, 8} {
		wopts := opts
		wopts.RecoveryWorkers = workers
		got, _, err := storage.RecoverSharded(wopts)
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
		}
		if d := shardedChaosDigest(t, got); d != digest {
			t.Fatalf("shards=%d workers=%d: digest %s != live %s", shards, workers, d, digest)
		}
		if err := got.CloseWALs(); err != nil {
			t.Fatal(err)
		}
	}
	return digest
}

// TestChaosShardedMatrix runs the kill/recover scenario at Shards=1
// and Shards=4 and asserts the final canonical digests are identical:
// partitioning changes where records live, never what was accepted.
func TestChaosShardedMatrix(t *testing.T) {
	digests := make(map[int]string)
	var mu sync.Mutex
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := runShardedChaos(t, shards)
			mu.Lock()
			digests[shards] = d
			mu.Unlock()
		})
	}
	if len(digests) != 2 {
		t.Skip("a matrix cell skipped (address rebind raced); digest comparison not possible")
	}
	if digests[1] != digests[4] {
		t.Fatalf("digest at shards=1 (%s) != shards=4 (%s)", digests[1], digests[4])
	}
}
