package collector

// Tests for the hello/batch protocol extension: framing negotiation,
// binary round trips, per-record acks with abort-on-first-failure, and
// the resilient client's backlog coalescing.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

func batchOf(t *testing.T, n int, cid string, firstSeq uint64) []BatchRecord {
	t.Helper()
	out := make([]BatchRecord, n)
	for i := 0; i < n; i++ {
		rec := sampleRecord()
		rec.UserID = fmt.Sprintf("bu-%s-%d", cid, firstSeq+uint64(i))
		out[i] = BatchRecord{Rec: rec, Seq: firstSeq + uint64(i)}
	}
	return out
}

func TestNegotiateSwitchesToBinary(t *testing.T) {
	srv, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.framing(); got != FramingJSON {
		t.Fatalf("initial framing = %q", got)
	}
	f, err := c.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if f != FramingBinary || c.framing() != FramingBinary {
		t.Fatalf("negotiated framing = %q", f)
	}
	// Every verb works over binary frames on the same connection.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping over binary: %v", err)
	}
	if _, err := c.Submit(sampleRecord()); err != nil {
		t.Fatalf("submit over binary: %v", err)
	}
	acks, err := c.SubmitBatch(batchOf(t, 5, "bin", 1), "bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != 5 {
		t.Fatalf("acks = %d, want 5", len(acks))
	}
	for i, a := range acks {
		if a.Error != "" || a.Dup {
			t.Fatalf("ack %d: %+v", i, a)
		}
	}
	if store.Len() != 6 {
		t.Fatalf("store len = %d, want 6", store.Len())
	}
	if s := srv.Stats(); s.RecordsAccepted != 6 {
		t.Fatalf("accepted = %d", s.RecordsAccepted)
	}
	// Negotiating again is a no-op.
	if f, err := c.Negotiate(); err != nil || f != FramingBinary {
		t.Fatalf("re-negotiate: %q, %v", f, err)
	}
}

// TestNegotiateDeclinedStaysJSON: a peer that does not upgrade —
// a legacy server that answers hello with an error, or one that
// declines — leaves the client on newline-JSON, and the connection
// keeps working. The peer is a minimal fake that answers each request
// line with the next scripted reply.
func TestNegotiateDeclinedStaysJSON(t *testing.T) {
	for _, hello := range []string{
		`{"type":"error","error":"unknown request type hello"}`,
		`{"type":"hello","framing":"json"}`,
	} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for _, reply := range []string{hello, `{"type":"pong"}`} {
				if _, err := br.ReadBytes('\n'); err != nil {
					return
				}
				conn.Write([]byte(reply + "\n"))
			}
		}()
		c, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		f, err := c.Negotiate()
		if err != nil {
			t.Fatal(err)
		}
		if f != FramingJSON || c.framing() != FramingJSON {
			t.Fatalf("hello reply %s: framing = %q, want json", hello, f)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("hello reply %s: ping over json: %v", hello, err)
		}
	}
}

// TestUnnegotiatedConnectionSubmitsAndBatches: a client that never
// sends hello stays on newline-JSON, and both submits and batches —
// a request type, not a framing feature — work over it.
func TestUnnegotiatedConnectionSubmitsAndBatches(t *testing.T) {
	_, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if acks, err := c.SubmitBatch(batchOf(t, 3, "js", 1), "js"); err != nil || len(acks) != 3 {
		t.Fatalf("json batch: %d acks, %v", len(acks), err)
	}
	if c.framing() != FramingJSON {
		t.Fatalf("framing = %q, want json", c.framing())
	}
	if store.Len() != 4 {
		t.Fatalf("store len = %d", store.Len())
	}
}

// TestBatchAbortsAtFirstFailure: the server processes a batch in
// order, acks the prefix, reports the failing item, and never attempts
// the rest — the invariant that keeps per-shard idempotency tables
// monotonic.
func TestBatchAbortsAtFirstFailure(t *testing.T) {
	_, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := batchOf(t, 5, "ab", 1)
	batch[2].Rec = nil // poison the middle item
	items := make([]BatchItem, len(batch))
	for i, b := range batch {
		if b.Rec == nil {
			items[i] = BatchItem{Seq: b.Seq} // submit without record
			continue
		}
		wire, refs, blobs := StripRecord(b.Rec)
		items[i] = BatchItem{Record: wire, Refs: refs, Values: blobs, Seq: b.Seq}
	}
	resp, err := c.roundTrip(&Request{Type: TypeBatch, Batch: items, ClientID: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Acks) != 3 {
		t.Fatalf("acks = %d, want 2 successes + 1 failure", len(resp.Acks))
	}
	if resp.Acks[0].Error != "" || resp.Acks[1].Error != "" {
		t.Fatalf("prefix not acked: %+v", resp.Acks)
	}
	if resp.Acks[2].Error == "" {
		t.Fatal("failing item not reported")
	}
	// Items after the failure were never attempted.
	if store.Len() != 2 {
		t.Fatalf("store len = %d, want 2", store.Len())
	}
	// The idempotency table stops at the last applied seq: a resend of
	// seq 2 is a dup, and seq 3 is still fresh.
	acks, err := c.SubmitBatch(batchOf(t, 3, "ab", 1)[1:], "ab")
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != 2 || !acks[0].Dup || acks[1].Dup || acks[1].Error != "" {
		t.Fatalf("resend of seqs 2, 3: acks %+v, want a dup then a fresh append", acks)
	}
}

// TestBatchRetransmitDedupes: resubmitting a whole batch after an
// ambiguous failure yields dup acks, not double appends.
func TestBatchRetransmitDedupes(t *testing.T) {
	_, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Negotiate(); err != nil {
		t.Fatal(err)
	}
	batch := batchOf(t, 4, "rt", 1)
	if _, err := c.SubmitBatch(batch, "rt"); err != nil {
		t.Fatal(err)
	}
	acks, err := c.SubmitBatch(batch, "rt")
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if !a.Dup {
			t.Fatalf("ack %d not marked dup: %+v", i, a)
		}
	}
	if store.Len() != 4 {
		t.Fatalf("store len = %d after retransmit", store.Len())
	}
}

// TestResilientClientCoalescesBacklog: records buffered during an
// outage drain in batches, not one round trip each.
func TestResilientClientCoalescesBacklog(t *testing.T) {
	srv, store, addr := startServer(t)
	r := NewResilientClient(addr)
	r.MaxRetries = 2
	r.Backoff = time.Millisecond
	r.batchSize = 8
	defer r.Close()

	for i := 0; i < 24; i++ {
		rec := sampleRecord()
		rec.UserID = fmt.Sprintf("co-%d", i)
		if err := r.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 24 {
		t.Fatalf("store len = %d", store.Len())
	}
	if p := r.Pending(); p != 0 {
		t.Fatalf("pending = %d after flush", p)
	}
	if s := srv.Stats(); s.RecordsAccepted != 24 {
		t.Fatalf("accepted = %d", s.RecordsAccepted)
	}
}

// TestResilientClientBatchDrainAfterOutage: the queue built up while
// the server is down drains in ceil(n/batchSize) batch requests once
// it returns.
func TestResilientClientBatchDrainAfterOutage(t *testing.T) {
	// Reserve an address, keep the server down while buffering.
	srv0, _, addr := startServer(t)
	srv0.Close()

	r := NewResilientClient(addr)
	r.MaxRetries = 1
	r.Backoff = time.Millisecond
	r.batchSize = 8
	defer r.Close()
	const n = 20
	for i := 0; i < n; i++ {
		rec := sampleRecord()
		rec.UserID = fmt.Sprintf("dr-%d", i)
		r.Submit(rec) // server down: buffered
	}
	if p := r.Pending(); p != n {
		t.Fatalf("pending = %d, want %d", p, n)
	}

	// Server returns on the same address.
	st2 := storage.NewShardedStore(1)
	srv2 := NewServer(st2)
	srv2.Logf = t.Logf
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go srv2.Serve(lis)
	defer srv2.Close()

	if err := r.Flush(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st2.Len() != n {
		t.Fatalf("delivered %d records, want %d", st2.Len(), n)
	}
	// ceil(20/8) = 3 batch round trips, not 20 one-record ones, and no
	// request the server does not know.
	var b strings.Builder
	if err := srv2.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	if !strings.Contains(scrape, `collector_requests_total{verb="batch"} 3`) {
		t.Errorf("scrape missing 3 batch requests:\n%s", scrape)
	}
	if !strings.Contains(scrape, `collector_requests_total{verb="other"} 0`) {
		t.Errorf("unknown requests sent:\n%s", scrape)
	}
	stats := r.Stats()
	if stats.Sent != n || stats.Dropped != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

// TestBinaryOversizedFrameRejected: the frame-size guard holds in
// binary mode too. The server is built by hand: MaxFrame must be set
// before Serve.
func TestBinaryOversizedFrameRejected(t *testing.T) {
	srv := NewServer(storage.NewShardedStore(1))
	srv.Logf = t.Logf
	srv.MaxFrame = 4 << 10
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Negotiate(); err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	huge := make([]string, 2000)
	for i := range huge {
		huge[i] = fmt.Sprintf("Font Family %04d With A Long Name", i)
	}
	rec.FP.Fonts = huge
	if _, err := c.Submit(rec); err == nil {
		t.Fatal("oversized binary frame accepted")
	}
}

// recordingConn keeps a copy of every byte written to the connection.
type recordingConn struct {
	net.Conn
	sent []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.sent = append(c.sent, p...)
	return c.Conn.Write(p)
}

// TestCheckFrameDeterministic: the same batch sends the same check
// request every time, on fresh connections to a server that already
// holds the values.
func TestCheckFrameDeterministic(t *testing.T) {
	_, _, addr := startServer(t)
	batch := batchOf(t, 3, "det", 1)
	for i, b := range batch {
		b.Rec.FP.Fonts = append(b.Rec.FP.Fonts, fmt.Sprintf("Font %d", i))
	}
	var first string
	for i := 0; i < 20; i++ {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rc := &recordingConn{Conn: conn}
		c := NewClient(rc)
		if _, err := c.SubmitBatch(batch, ""); err != nil {
			t.Fatal(err)
		}
		c.Close()
		check, _, _ := strings.Cut(string(rc.sent), "\n")
		if i == 0 {
			first = check
		} else if check != first {
			t.Fatalf("submission %d sent check\n%s\nfirst sent\n%s", i, check, first)
		}
	}
}
