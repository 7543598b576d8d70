// Command fpserver runs the data-storage server of the measurement
// platform (Figure 1) standalone: it accepts collection-client
// connections and answers hash-dedup checks; its ingest counters are
// served on -admin-addr's /metrics.
//
// With -wal-dir the store is crash-safe: every accepted record is
// framed, checksummed and written to a write-ahead log before the
// client is ACKed, fsynced per -fsync (-fsync interval syncs every
// 100 ms), and on startup the log is replayed — truncating a torn
// tail frame if the previous run died mid-write.
// The paper's deployment survived an eight-day outage because clients
// kept retrying (§2.2); the WAL covers the server half of that story.
//
// The store is partitioned by hash(UserID) into -shards independent
// WALs under wal-dir/shard-NN/ (one shard is shard-00), recovered in
// parallel on startup. The shard count is sticky per directory; a
// directory of the retired flat layout (segments directly in wal-dir)
// is refused with the one-time migration spelled out. -compact-every
// periodically checkpoints live state into a snapshot and truncates
// the replayed segments, bounding restart cost by live state rather
// than log history; a tick with nothing appended writes nothing.
//
// Connections start in newline-JSON; a client may negotiate
// length-prefixed CRC-framed binary requests via a hello exchange, and
// one that skips hello stays on newline-JSON.
//
// On SIGINT/SIGTERM the server drains: it stops accepting, lets
// in-flight submissions finish (-drain-timeout bounds the wait), runs
// a final fsync, and exports the store to -o in canonical order
// (values sorted, then users sorted, each user's records in arrival
// order).
//
// With -admin-addr a second HTTP listener serves the observability
// surface: /metrics (Prometheus text exposition), /varz (JSON
// snapshot), /healthz (503 while draining or after a WAL write/fsync
// fault poisoned the log), and /debug/pprof/.
//
// Usage:
//
//	fpserver -addr 127.0.0.1:9400 -admin-addr 127.0.0.1:9401 -wal-dir wal/ -shards 4 -fsync always -o collected.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9400", "listen address")
	adminAddr := flag.String("admin-addr", "", "admin HTTP listener for /metrics, /varz, /healthz, /debug/pprof/ (empty disables)")
	out := flag.String("o", "collected.jsonl", "snapshot path written on shutdown")
	walDir := flag.String("wal-dir", "", "write-ahead log directory (empty = in-memory only, records lost on crash)")
	fsyncMode := flag.String("fsync", "always", "WAL fsync policy: always | interval | never")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight submissions on shutdown")
	shards := flag.Int("shards", 1, "number of store shards (the WAL lives in wal-dir/shard-NN/)")
	compactEvery := flag.Duration("compact-every", 0, "WAL compaction period: snapshot live state, truncate replayed segments (0 disables)")
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("fpserver: -shards must be >= 1, got %d", *shards)
	}

	var store *storage.ShardedStore
	var walRegs []*obs.Registry
	var compact func() (storage.CompactionStats, error) // nil without a WAL
	if *walDir != "" {
		policy, err := storage.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("fpserver: %v", err)
		}
		walReg := obs.NewRegistry()
		var sstats storage.ShardedRecoveryStats
		store, sstats, err = storage.RecoverSharded(storage.ShardedWALOptions{
			WALOptions: storage.WALOptions{Dir: *walDir, Policy: policy, Registry: walReg},
			Shards:     *shards,
		})
		if err != nil {
			log.Fatalf("fpserver: wal recovery: %v", err)
		}
		walRegs = []*obs.Registry{walReg}
		compact = store.Compact
		stats := sstats.RecoveryStats
		banner := fmt.Sprintf("wal recovery: %d records, %d values replayed from %d segments",
			stats.Records, stats.Values, stats.Segments)
		if stats.SnapshotRecords > 0 || stats.SnapshotValues > 0 {
			banner += fmt.Sprintf(" + snapshot (%d records, %d values)",
				stats.SnapshotRecords, stats.SnapshotValues)
		}
		if stats.Truncated {
			banner += fmt.Sprintf(" (torn tail: %d bytes truncated)", stats.TruncatedBytes)
		}
		if stats.BadValues > 0 {
			banner += fmt.Sprintf(" (%d values dropped: content does not match hash)", stats.BadValues)
		}
		fmt.Println(banner)
		fmt.Printf("wal: dir=%s shards=%d fsync=%s\n", *walDir, *shards, policy)
	} else {
		store = storage.NewShardedStore(*shards)
		fmt.Println("warning: no -wal-dir; accepted records do not survive a crash")
	}
	srv := collector.NewServer(store)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("fpserver: %v", err)
	}
	var adminLis net.Listener
	if *adminAddr != "" {
		if adminLis, err = net.Listen("tcp", *adminAddr); err != nil {
			log.Fatalf("fpserver: admin listener: %v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	regs := append([]*obs.Registry{srv.Metrics()}, walRegs...)
	if err := collector.RunDaemon(ctx, srv.ConnServer, lis, adminLis, store.WALError, regs,
		*compactEvery, compact, *drainTimeout); err != nil {
		log.Fatalf("fpserver: %v", err)
	}
	// Final fsync: everything accepted is on stable storage before the
	// process exits. Without -wal-dir there is nothing to close.
	if err := store.CloseWALs(); err != nil {
		log.Printf("fpserver: wal close: %v", err)
	}
	if err := store.SaveFile(*out); err != nil {
		log.Fatalf("fpserver: snapshot: %v", err)
	}
	fmt.Printf("snapshot: %d records → %s\n", store.Len(), *out)
}
