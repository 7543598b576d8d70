package collector_test

// The shared daemon shell, driven as each main drives it: cancelling
// the context stands in for SIGTERM.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/faultinject"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linkd"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// switchedSync is a segment file whose fsync fails once fail is set.
type switchedSync struct {
	*os.File
	fail *atomic.Bool
}

func (f switchedSync) Sync() error {
	if f.fail.Load() {
		return faultinject.ErrInjected
	}
	return f.File.Sync()
}

// walOptions is a fsync-always WAL in a temp dir whose fsyncs fail
// once fail is set.
func walOptions(t *testing.T, fail *atomic.Bool) storage.WALOptions {
	return storage.WALOptions{
		Dir: t.TempDir(), Policy: storage.SyncAlways, Registry: obs.NewRegistry(),
		OpenFile: func(path string) (storage.SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return switchedSync{f, fail}, nil
		},
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return lis
}

// healthz probes the admin endpoint on adminLis and returns the status
// code, the raw body and the decoded status.
func healthz(t *testing.T, adminLis net.Listener) (int, string, obs.HealthStatus) {
	t.Helper()
	resp, err := http.Get("http://" + adminLis.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st obs.HealthStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	return resp.StatusCode, string(body), st
}

// TestHealthzDuringDrain runs each daemon through RunDaemon with an
// admin listener, cancels its context, and checks /healthz: 503 and
// draining once Serve has returned, then 503 naming the WAL error once
// the durable layer is poisoned. The admin endpoint outlives the drain.
func TestHealthzDuringDrain(t *testing.T) {
	for _, tc := range []struct {
		name string
		// start builds the daemon over a WAL whose fsyncs fail once fail
		// is set; poison makes it fsync.
		start func(t *testing.T, fail *atomic.Bool) (srv *collector.ConnServer, walErr func() error, regs []*obs.Registry, poison func() error)
	}{
		{"fplinkd", func(t *testing.T, fail *atomic.Bool) (*collector.ConnServer, func() error, []*obs.Registry, func() error) {
			opts := linkd.Options{Rule: fpstalker.NewRuleLinker(), WAL: walOptions(t, fail)}
			svc, _, err := linkd.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { svc.Close() })
			srv := linkd.NewServer(svc)
			srv.Logf = t.Logf
			poison := func() error {
				return svc.Add("late", &fingerprint.Record{Time: time.Unix(0, 0), UserID: "u", FP: &fingerprint.Fingerprint{UserAgent: "ua"}})
			}
			return srv.ConnServer, svc.WALError, []*obs.Registry{svc.Metrics(), opts.WAL.Registry}, poison
		}},
		{"fpserver", func(t *testing.T, fail *atomic.Bool) (*collector.ConnServer, func() error, []*obs.Registry, func() error) {
			opts := walOptions(t, fail)
			store, _, err := storage.RecoverSharded(storage.ShardedWALOptions{WALOptions: opts, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.CloseWALs() })
			srv := collector.NewServer(store)
			srv.Logf = t.Logf
			poison := func() error { return store.PutValueDurable("h", []byte("blob")) }
			return srv.ConnServer, store.WALError, []*obs.Registry{srv.Metrics(), opts.Registry}, poison
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fail atomic.Bool
			srv, walErr, regs, poison := tc.start(t, &fail)
			lis, adminLis := listen(t), listen(t)
			t.Cleanup(func() { adminLis.Close() })
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- collector.RunDaemon(ctx, srv, lis, adminLis, walErr, regs, 0, nil, 5*time.Second) }()

			if code, body, _ := healthz(t, adminLis); code != http.StatusOK || body != "{\"healthy\":true}\n" {
				t.Fatalf("before the drain: %d %s, want 200 healthy", code, body)
			}
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("RunDaemon: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunDaemon did not return after the context was cancelled")
			}
			if code, body, st := healthz(t, adminLis); code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining":true`) || !st.Healthy || st.WALError != "" {
				t.Fatalf("during the drain: %d %s, want 503 draining", code, body)
			}

			fail.Store(true)
			if err := poison(); err == nil {
				t.Fatal("a write over a failing fsync succeeded")
			}
			code, body, st := healthz(t, adminLis)
			if code != http.StatusServiceUnavailable || st.Healthy || !strings.Contains(st.WALError, faultinject.ErrInjected.Error()) {
				t.Fatalf("after the fault: %d %s, want 503 naming the injected fault", code, body)
			}
		})
	}
}

// TestRunDaemonRefusesCompactionWithoutWAL: a compaction period with
// no durable layer to compact is refused before anything is served.
func TestRunDaemonRefusesCompactionWithoutWAL(t *testing.T) {
	srv := collector.NewServer(storage.NewShardedStore(1))
	lis := listen(t)
	defer lis.Close()
	err := collector.RunDaemon(context.Background(), srv.ConnServer, lis, nil, func() error { return nil }, nil, time.Second, nil, time.Second)
	if err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Fatalf("RunDaemon = %v, want the -compact-every refusal", err)
	}
}

// TestRunDaemonStopsCompactionBeforeReturn: the compaction ticker runs
// while the daemon serves and has stopped, with no Compact in flight,
// by the time RunDaemon returns, so the caller's final step (CloseWALs,
// or fplinkd's last Compact) never races a tick.
func TestRunDaemonStopsCompactionBeforeReturn(t *testing.T) {
	srv := collector.NewServer(storage.NewShardedStore(1))
	var calls, running atomic.Int32
	compact := func() (storage.CompactionStats, error) {
		calls.Add(1)
		running.Add(1)
		defer running.Add(-1)
		time.Sleep(5 * time.Millisecond)
		return storage.CompactionStats{}, nil // idle: nothing printed
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- collector.RunDaemon(ctx, srv.ConnServer, listen(t), nil, func() error { return nil }, nil, time.Millisecond, compact, time.Second)
	}()
	for calls.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunDaemon: %v", err)
	}
	if running.Load() != 0 {
		t.Fatal("a compaction was still running when RunDaemon returned")
	}
	n := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if calls.Load() != n {
		t.Fatal("the compaction ticker kept running after RunDaemon returned")
	}
}
