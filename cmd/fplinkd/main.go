// Command fplinkd runs the always-on linking service: FP-Stalker
// matching (rule-based and learning-based) behind a framed TCP
// protocol, hardened for continuous operation.
//
// Robustness machinery, all on by default:
//
//   - Admission control: at most -max-inflight queries score
//     concurrently, at most -queue-depth more wait; arrivals beyond
//     that are answered Overloaded immediately instead of stalling the
//     connection.
//   - Deadline propagation: a query's deadline_ms rides its context
//     into the scoring workers, so a timed-out query stops consuming
//     CPU mid-scan.
//   - Graceful degradation: sustained overload (shed rate over 10 % or
//     query p99 over 0.5 s for 3 consecutive -sample-every samples)
//     switches service to the ~25×-cheaper rule-based linker; calm
//     (shed rate ≤ 1 % and p99 ≤ 0.1 s for 5 samples) switches back.
//     The linkd_mode_rule gauge exposes the current mode.
//   - Crash-safe state: with -wal-dir every add is journaled through
//     the storage WAL before the ACK; restart replays the newest
//     snapshot plus uncovered segments (torn tails truncated) and
//     rebuilds the exact blocking index. The journal's wal_* metrics
//     are on the admin endpoint, and /healthz reports its sticky
//     write/fsync error.
//   - Sliding collect window: -window evicts instances whose latest
//     observation (by record time) has aged out — the paper's
//     collect-period semantics — and -compact-every checkpoints the
//     live table, dropping evicted history from disk; a tick with no
//     add and no eviction since the last one writes and prints nothing.
//   - Graceful drain: SIGINT/SIGTERM stops admitting, finishes
//     in-flight queries within -drain-timeout, snapshots, and exits;
//     /healthz answers 503 (draining) from the drain's start.
//
// The learning linker needs a pair model; -train-users simulates a
// population and trains one at startup. -rule-only skips training and
// serves every query rule-based.
//
// Usage:
//
//	fplinkd -addr 127.0.0.1:9500 -admin-addr 127.0.0.1:9501 \
//	        -wal-dir linkwal/ -window 720h -train-users 2000
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
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linkd"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9500", "listen address")
	adminAddr := flag.String("admin-addr", "", "admin HTTP listener for /metrics, /varz, /healthz, /debug/pprof/ (empty disables)")
	walDir := flag.String("wal-dir", "", "add-journal directory (empty = in-memory only, adds lost on crash)")
	fsyncMode := flag.String("fsync", "always", "journal fsync policy: always | interval | never")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period for -fsync interval")
	window := flag.Duration("window", 0, "sliding collect window; instances older than this (by record time) are evicted (0 disables)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently scoring queries (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max queries waiting for a slot before shedding (0 = 4×max-inflight)")
	workers := flag.Int("workers", 0, "scoring workers per query: 0 = all cores, 1 = serial")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight queries on shutdown")
	compactEvery := flag.Duration("compact-every", 0, "journal compaction period (0 disables)")
	sampleEvery := flag.Duration("sample-every", 5*time.Second, "overload-sampling and eviction period")
	trainUsers := flag.Int("train-users", 2000, "simulated users for pair-model training")
	trainSeed := flag.Int64("train-seed", 1, "training simulation seed")
	ruleOnly := flag.Bool("rule-only", false, "skip pair-model training; serve every query rule-based")
	flag.Parse()

	rule := fpstalker.NewRuleLinker()
	rule.Workers = *workers
	opts := linkd.Options{
		Rule:        rule,
		Window:      *window,
		MaxInFlight: *maxInFlight,
		QueueDepth:  *queueDepth,
		SampleEvery: *sampleEvery,
	}

	if !*ruleOnly {
		fmt.Printf("training pair model on %d simulated users (seed %d) ...\n", *trainUsers, *trainSeed)
		start := time.Now()
		cfg := population.DefaultConfig(*trainUsers)
		cfg.Seed = *trainSeed
		ds := population.Simulate(cfg)
		forest, err := fpstalker.TrainPairModel(ds.Records, ds.TrueInstance,
			mlearn.ForestConfig{Seed: *trainSeed, NumTrees: 15, MaxDepth: 8})
		if err != nil {
			log.Fatalf("fplinkd: train: %v", err)
		}
		learn := fpstalker.NewLearnLinker(forest)
		learn.Workers = *workers
		opts.Learn = learn
		fmt.Printf("pair model trained in %s (%d records)\n", time.Since(start).Round(time.Millisecond), len(ds.Records))
	} else {
		fmt.Println("rule-only: learning linker disabled")
	}

	if *walDir != "" {
		policy, err := storage.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("fplinkd: %v", err)
		}
		opts.WAL = storage.WALOptions{Dir: *walDir, Policy: policy, Interval: *fsyncEvery, Registry: obs.NewRegistry()}
	} else {
		fmt.Println("warning: no -wal-dir; adds do not survive a crash")
	}

	svc, stats, err := linkd.Open(opts)
	if err != nil {
		log.Fatalf("fplinkd: open: %v", err)
	}
	if *walDir != "" {
		banner := fmt.Sprintf("journal recovery: %d adds replayed from %d segments", stats.Frames, stats.Segments)
		if stats.SnapshotFrames > 0 {
			banner += fmt.Sprintf(" + snapshot (%d entries)", stats.SnapshotFrames)
		}
		if stats.Truncated {
			banner += fmt.Sprintf(" (torn tail: %d bytes truncated)", stats.TruncatedBytes)
		}
		fmt.Println(banner)
		if evicted := svc.EvictExpired(); evicted > 0 {
			fmt.Printf("collect window: %d replayed instances already expired\n", evicted)
		}
		fmt.Printf("table: %d live instances\n", svc.Len())
	}

	srv := linkd.NewServer(svc)
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("fplinkd: %v", err)
	}
	var adminLis net.Listener
	if *adminAddr != "" {
		if adminLis, err = net.Listen("tcp", *adminAddr); err != nil {
			log.Fatalf("fplinkd: admin listener: %v", err)
		}
	}

	regs := []*obs.Registry{svc.Metrics()}
	var compact func() (storage.CompactionStats, error)
	if *walDir != "" {
		regs = append(regs, opts.WAL.Registry)
		compact = svc.Compact
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := collector.RunDaemon(ctx, srv.ConnServer, lis, adminLis, svc.WALError, regs,
		*compactEvery, compact, *drainTimeout); err != nil {
		log.Fatalf("fplinkd: %v", err)
	}
	if *walDir != "" {
		// Final checkpoint: the next start replays live state, not the
		// whole add history.
		if _, err := svc.Compact(); err != nil {
			log.Printf("fplinkd: final compaction: %v", err)
		}
	}
	if err := svc.Close(); err != nil {
		log.Printf("fplinkd: close: %v", err)
	}
	fmt.Printf("shutdown complete: %d live instances\n", svc.Len())
}
