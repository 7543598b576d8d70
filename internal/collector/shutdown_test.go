package collector

import (
	"context"
	"net"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

// startDurableServer is startServer over a WAL-backed store so drain
// tests can assert recovery, plus control of the drain grace.
func startDurableServer(t *testing.T, dir string, grace time.Duration) (*Server, *storage.ShardedStore, string) {
	t.Helper()
	st := recoverStore(t, dir)
	t.Cleanup(func() { st.CloseWALs() })
	srv := NewServer(st)
	srv.Logf = t.Logf
	srv.DrainGrace = grace
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	// Return only once Serve owns the listener (one ping round trip): a
	// Shutdown issued before Serve has taken the listener cannot close
	// it, and the kernel would still complete dials to the address.
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	return srv, st, lis.Addr().String()
}

func TestShutdownAcksInFlightSubmission(t *testing.T) {
	dir := t.TempDir()
	srv, st, addr := startDurableServer(t, dir, time.Second)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// Begin the drain, then race a submission in on the live
	// connection: it is in flight within the grace window and must be
	// ACKed, durable, and present after recovery.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	idx, dup, err := submitOne(c, sampleRecord(), "cid-drain", 1)
	if err != nil {
		t.Fatalf("in-flight submit during drain: %v", err)
	}
	if idx != 0 || dup {
		t.Fatalf("idx=%d dup=%v", idx, dup)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("store len = %d", st.Len())
	}

	// The ACKed record survives a restart.
	st.CloseWALs()
	st2, stats, err := storage.RecoverSharded(storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{Dir: dir, Policy: storage.SyncAlways},
		Shards:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.CloseWALs()
	if st2.Len() != 1 || stats.Records != 1 {
		t.Fatalf("recovered len=%d stats=%+v", st2.Len(), stats)
	}
}

func TestShutdownRefusesNewConnections(t *testing.T) {
	srv, _, addr := startDurableServer(t, t.TempDir(), 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("connection accepted after drain started")
	}
}

func TestShutdownClosesIdleConnections(t *testing.T) {
	srv, _, addr := startDurableServer(t, t.TempDir(), 50*time.Millisecond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// The idle connection must not pin the drain until ctx expiry: the
	// grace deadline wakes its handler.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain of an idle connection took %v", d)
	}
	// The drained connection is closed: the next request fails.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded on a drained connection")
	}
}

// TestShutdownCtxTighterThanGrace pins the deadline-cap fix: with a
// 10s grace but a 150ms ctx budget, idle handlers are woken inside the
// budget and the drain completes gracefully — the old code slept them
// out to the full grace and the only exit was a forced close with
// DeadlineExceeded.
func TestShutdownCtxTighterThanGrace(t *testing.T) {
	srv, _, addr := startDurableServer(t, t.TempDir(), 10*time.Second) // grace longer than ctx
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown err = %v, want graceful drain inside the ctx budget", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %v; the read deadline was not capped at the ctx budget", d)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded on a drained connection")
	}
}

// TestShutdownCancelForcesClose covers the forced path: a ctx with no
// deadline that gets cancelled mid-drain must close connections and
// return the cancellation promptly instead of waiting out the grace.
func TestShutdownCancelForcesClose(t *testing.T) {
	srv, _, addr := startDurableServer(t, t.TempDir(), 10*time.Second)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("shutdown err = %v, want Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("forced close took %v", d)
	}
}

func TestShutdownIdempotentAndCloseCompatible(t *testing.T) {
	srv, _, _ := startDurableServer(t, t.TempDir(), 50*time.Millisecond)
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
