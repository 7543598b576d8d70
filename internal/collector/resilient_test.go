package collector

import (
	"net"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

// fastResilient builds a client with test-friendly timings.
func fastResilient(addr string) *ResilientClient {
	r := NewResilientClient(addr)
	r.MaxRetries = 2
	r.Backoff = time.Millisecond
	return r
}

func TestResilientHappyPath(t *testing.T) {
	_, store, addr := startServer(t)
	r := fastResilient(addr)
	defer r.Close()
	for i := 0; i < 5; i++ {
		if err := r.Submit(sampleRecord()); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 5 || r.Pending() != 0 {
		t.Fatalf("stored=%d pending=%d", store.Len(), r.Pending())
	}
	st := r.Stats()
	if st.Sent != 5 || st.Dropped != 0 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResilientBuffersDuringOutage(t *testing.T) {
	// Reserve a port, then shut the listener so the address refuses
	// connections: the paper's partial-outage scenario.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	r := fastResilient(addr)
	defer r.Close()
	for i := 0; i < 3; i++ {
		if err := r.Submit(sampleRecord()); err == nil {
			t.Fatal("submit succeeded against a dead server")
		}
	}
	if r.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", r.Pending())
	}

	// The server comes back on the same address: the backlog flushes.
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
		t.Fatalf("flush after recovery: %v", err)
	}
	if store.Len() != 3 || r.Pending() != 0 {
		t.Fatalf("stored=%d pending=%d after recovery", store.Len(), r.Pending())
	}
}

func TestResilientBufferLimitDropsOldest(t *testing.T) {
	lis, _ := net.Listen("tcp", "127.0.0.1:0")
	addr := lis.Addr().String()
	lis.Close()

	r := fastResilient(addr)
	r.BufferLimit = 2
	defer r.Close()
	for i := 0; i < 5; i++ {
		rec := sampleRecord()
		rec.UserID = string(rune('a' + i))
		r.Submit(rec)
	}
	if r.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 (limit)", r.Pending())
	}
	if st := r.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
}

// TestResilientPendingPromptDuringBackoff pins the fix for the redial
// loop sleeping its exponential backoff while holding the queue lock:
// Pending and Stats must answer promptly while a flush is stuck in
// backoff against a dead server.
func TestResilientPendingPromptDuringBackoff(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	r := NewResilientClient(addr)
	r.MaxRetries = 4
	r.Backoff = 150 * time.Millisecond // total backoff ≈ 150+300+600ms
	defer r.Close()

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		r.Submit(sampleRecord()) // fails after the full backoff window
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the flush enter its backoff

	begin := time.Now()
	n := r.Pending()
	st := r.Stats()
	if d := time.Since(begin); d > 50*time.Millisecond {
		t.Fatalf("Pending/Stats blocked %v behind the dial backoff", d)
	}
	if n != 1 || st.Dropped != 0 {
		t.Fatalf("pending=%d stats=%+v", n, st)
	}

	// A concurrent Submit must also buffer without waiting out the
	// whole backoff (it blocks only on sendMu once the first flush
	// finishes, so measure just the buffering via Pending growth).
	<-done
	if r.Pending() != 1 {
		t.Fatalf("pending = %d after failed flush", r.Pending())
	}
}

func TestResilientRecoversFromMidStreamDisconnect(t *testing.T) {
	_, store, addr := startServer(t)
	r := fastResilient(addr)
	defer r.Close()
	if err := r.Submit(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	// Kill the live connection behind the client's back.
	r.mu.Lock()
	r.client.conn.Close()
	r.mu.Unlock()
	// The next submit fails over: buffered, then delivered on retry
	// (the redial succeeds because the server is still up).
	err := r.Submit(sampleRecord())
	if err != nil {
		// First flush attempt may fail while the broken conn drains;
		// an explicit flush must then succeed.
		if err := r.Flush(); err != nil {
			t.Fatalf("flush after reconnect: %v", err)
		}
	}
	if store.Len() != 2 || r.Pending() != 0 {
		t.Fatalf("stored=%d pending=%d", store.Len(), r.Pending())
	}
}
