package collector

import (
	"errors"
	"net"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

// TestBackoffDelayCapAndJitter pins the dial backoff contract: every
// delay is full-jittered into (0, cap], the exponential doubling never
// exceeds MaxBackoff, and the default cap is ~5s.
func TestBackoffDelayCapAndJitter(t *testing.T) {
	r := NewResilientClient("127.0.0.1:1")
	r.Backoff = 10 * time.Millisecond
	r.MaxBackoff = 40 * time.Millisecond

	for attempt := 1; attempt <= 12; attempt++ {
		// Uncapped doubling would reach 10ms<<11 ≈ 20s; the cap bounds
		// every draw. Sample repeatedly: jitter is random.
		for i := 0; i < 50; i++ {
			d := r.backoffDelay(attempt)
			if d <= 0 {
				t.Fatalf("attempt %d: non-positive delay %v", attempt, d)
			}
			if d > r.MaxBackoff {
				t.Fatalf("attempt %d: delay %v exceeds MaxBackoff %v", attempt, d, r.MaxBackoff)
			}
		}
	}

	// Early attempts are bounded by the doubled base, not the cap.
	for i := 0; i < 50; i++ {
		if d := r.backoffDelay(1); d > 10*time.Millisecond {
			t.Fatalf("attempt 1 delay %v exceeds base backoff", d)
		}
		if d := r.backoffDelay(2); d > 20*time.Millisecond {
			t.Fatalf("attempt 2 delay %v exceeds doubled backoff", d)
		}
	}

	// Jitter must actually vary (full jitter, not a fixed sleep).
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		seen[r.backoffDelay(3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("no jitter observed: every delay identical")
	}

	// Defaults: zero-valued knobs resolve to 50ms base / 5s cap.
	d := NewResilientClient("127.0.0.1:1")
	for i := 0; i < 20; i++ {
		if got := d.backoffDelay(30); got > 5*time.Second {
			t.Fatalf("default cap: delay %v exceeds 5s", got)
		}
		if got := d.backoffDelay(1); got > 50*time.Millisecond {
			t.Fatalf("default base: delay %v exceeds 50ms", got)
		}
	}
}

// TestDialSleepAbortsOnClose pins the fix for the uninterruptible
// backoff sleep: Close while a flush is waiting out its backoff must
// wake the sleeper promptly instead of letting it hold sendMu for the
// rest of the window.
func TestDialSleepAbortsOnClose(t *testing.T) {
	// A reserved-then-closed port refuses instantly, so the submit's
	// time is spent in backoff sleeps, not in connect timeouts.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	r := NewResilientClient(addr)
	r.MaxRetries = 4
	r.Backoff = 2 * time.Second
	r.MaxBackoff = 2 * time.Second

	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		errCh <- r.Submit(sampleRecord())
	}()
	time.Sleep(50 * time.Millisecond) // let the flush fail its first dial and enter backoff
	if err := r.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("submit succeeded against a dead server")
		}
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("submit error = %v, want ErrClientClosed in the chain", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("submit took %v; the backoff sleep did not abort on Close", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit still sleeping 5s after Close")
	}

	// The record stays buffered and deliverable: Close is a connection
	// release, not a data drop.
	if r.Pending() != 1 {
		t.Fatalf("pending = %d after aborted dial, want 1", r.Pending())
	}
}

// TestDialAfterCloseStillWorks: Close must not permanently poison the
// client — a later Flush redials (the documented contract for draining
// a backlog after a restart).
func TestDialAfterCloseStillWorks(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	r := fastResilient(addr)
	if err := r.Submit(sampleRecord()); err == nil {
		t.Fatal("submit succeeded against a dead server")
	}
	r.Close()

	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	store := storage.NewShardedStore(1)
	srv := NewServer(store)
	srv.Logf = t.Logf
	go srv.Serve(lis2)
	defer srv.Close()

	if err := r.Flush(); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
	if store.Len() != 1 || r.Pending() != 0 {
		t.Fatalf("stored=%d pending=%d", store.Len(), r.Pending())
	}
}
