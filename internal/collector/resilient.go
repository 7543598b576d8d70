package collector

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"time"

	"fpdyn/internal/fingerprint"
)

// ResilientClient wraps the transfer module with reconnection and
// bounded buffering: the paper's deployment lost its server for eight
// days and survived because clients kept retrying. Submissions that
// fail are buffered (up to BufferLimit) and flushed on the next
// successful submission, preserving order.
//
// Every buffered record carries a client-assigned sequence ID
// (ClientID, Seq). After an ambiguous mid-flight failure — the record
// was sent but the ACK never arrived — the retransmission reuses the
// same sequence ID, so the server appends it at most once and
// reconnecting never double-counts a visit.
type ResilientClient struct {
	// Addr is the server address to (re)dial.
	Addr string
	// MaxRetries bounds the dial attempts per flush (default 3).
	MaxRetries int
	// Backoff is the base delay between redials, doubled per attempt
	// (default 50ms; tests use ~1ms).
	Backoff time.Duration
	// BufferLimit caps the number of records held while the server is
	// unreachable (default 1024); beyond it, the oldest are dropped —
	// which is what the paper's deployment effectively did.
	BufferLimit int
	// ClientID identifies this client in sequence IDs; NewResilientClient
	// assigns a random one.
	ClientID string

	// maxBackoff caps the doubled delay (default 5s). Each sleep is
	// full-jittered: uniform in (0, min(backoff, maxBackoff)], so a
	// fleet of clients recovering from the same outage does not redial
	// in lockstep.
	maxBackoff time.Duration
	// batchSize caps how many pending records one flush round trip
	// carries (default 32). During an outage the queue grows; on
	// reconnect the backlog drains batchSize records per batch request
	// instead of two round trips per record.
	batchSize int

	// sendMu serializes flushers. Dial backoff sleeps hold only sendMu,
	// never mu, so Submit buffering, Pending and Stats stay prompt
	// during an outage.
	sendMu sync.Mutex

	// mu guards the queue, the connection handle and the counters.
	mu      sync.Mutex
	client  *Client
	nextSeq uint64
	pending []pendingRecord
	stats   ResilientStats
	// closeCh aborts an in-flight dial backoff sleep promptly when the
	// client is closed. Close closes it; the next Submit/Flush lazily
	// recreates it, preserving the "buffered records can still flush
	// after Close" contract.
	closeCh chan struct{}
}

// ErrClientClosed aborts a dial backoff when Close is called mid-sleep.
var ErrClientClosed = errors.New("collector: client closed during dial backoff")

// pendingRecord is one buffered submission with its sequence ID.
type pendingRecord struct {
	rec *fingerprint.Record
	seq uint64
}

// ResilientStats reports delivery outcomes. Dropped counts records
// evicted by BufferLimit — actual data loss — distinctly from
// transient delivery errors, which leave records pending.
type ResilientStats struct {
	Sent        int64 // records ACKed by the server
	Dropped     int64 // records evicted from the buffer, never delivered
	Retransmits int64 // deliveries the server identified as duplicates
}

// NewResilientClient builds a resilient client for addr. No connection
// is made until the first Submit.
func NewResilientClient(addr string) *ResilientClient {
	return &ResilientClient{
		Addr:        addr,
		MaxRetries:  3,
		Backoff:     50 * time.Millisecond,
		BufferLimit: 1024,
		ClientID:    newClientID(),
	}
}

// newClientID returns a random 16-hex-digit client identifier.
func newClientID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; fall back
		// to a fixed-prefix zero ID rather than crash the client.
		return "cid-0000000000000000"
	}
	return "cid-" + hex.EncodeToString(b[:])
}

// Submit enqueues a record and attempts to flush everything pending.
// It returns nil when the record was delivered (possibly along with
// older buffered ones) and an error when it remains buffered.
func (r *ResilientClient) Submit(rec *fingerprint.Record) error {
	r.mu.Lock()
	r.nextSeq++
	r.pending = append(r.pending, pendingRecord{rec, r.nextSeq})
	if over := len(r.pending) - r.bufferLimit(); over > 0 {
		r.pending = r.pending[over:]
		r.stats.Dropped += int64(over)
	}
	r.mu.Unlock()
	return r.flush()
}

// Flush retries delivery of any buffered records.
func (r *ResilientClient) Flush() error {
	return r.flush()
}

// flush delivers pending records in order until the queue is empty or
// delivery fails, coalescing up to batchSize records per round trip.
// The buffered-count context is attached once, at the point of return
// — not re-wrapped per record.
func (r *ResilientClient) flush() error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	size := r.batchSize
	if size <= 0 {
		size = 32
	}
	for {
		r.mu.Lock()
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return nil
		}
		n := len(r.pending)
		if n > size {
			n = size
		}
		batch := make([]BatchRecord, n)
		for i := 0; i < n; i++ {
			batch[i] = BatchRecord{Rec: r.pending[i].rec, Seq: r.pending[i].seq}
		}
		c := r.client
		r.mu.Unlock()

		if c == nil {
			nc, err := r.dial()
			if err != nil {
				return r.bufferedErr(err)
			}
			r.mu.Lock()
			r.client = nc
			r.mu.Unlock()
			c = nc
		}

		acks, err := c.SubmitBatch(batch, r.ClientID)
		if err != nil {
			// The connection died mid-flight; the fate of the batch is
			// ambiguous, but the sequence IDs make the retransmission
			// exact, so keep everything pending and let the next flush
			// redial.
			c.Close()
			r.mu.Lock()
			if r.client == c {
				r.client = nil
			}
			r.mu.Unlock()
			return r.bufferedErr(err)
		}
		var itemErr string
		r.mu.Lock()
		for i, a := range acks {
			if a.Error != "" {
				// The server stopped at this record; it and everything
				// after stay pending, head-blocking.
				itemErr = a.Error
				break
			}
			// A concurrent Submit may have evicted it under BufferLimit;
			// only pop if it is still the queue front.
			if len(r.pending) > 0 && r.pending[0].seq == batch[i].Seq {
				r.pending = r.pending[1:]
			}
			r.stats.Sent++
			if a.Dup {
				r.stats.Retransmits++
			}
		}
		r.mu.Unlock()
		if itemErr != "" {
			return r.bufferedErr(fmt.Errorf("server rejected record: %s", itemErr))
		}
	}
}

// bufferedErr wraps a delivery error with the current backlog size.
func (r *ResilientClient) bufferedErr(err error) error {
	r.mu.Lock()
	n := len(r.pending)
	r.mu.Unlock()
	return fmt.Errorf("collector: %d records buffered: %w", n, err)
}

// dial (re)connects with capped, jittered exponential backoff. It is
// called with sendMu held but never r.mu: the backoff sleeps do not
// block Submit buffering, Pending or Stats. A concurrent Close aborts
// the sleep promptly instead of letting it run out.
func (r *ResilientClient) dial() (*Client, error) {
	retries := r.MaxRetries
	if retries <= 0 {
		retries = 3
	}
	closing := r.closedCh()
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(r.backoffDelay(attempt))
			select {
			case <-t.C:
			case <-closing:
				t.Stop()
				if lastErr != nil {
					return nil, fmt.Errorf("%w (last dial error: %v)", ErrClientClosed, lastErr)
				}
				return nil, ErrClientClosed
			}
		}
		c, err := Dial(r.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.Ping(); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		// Best-effort upgrade to binary framing; a legacy server
		// declines and the connection keeps working over JSON.
		if _, err := c.Negotiate(); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		return c, nil
	}
	if lastErr == nil {
		lastErr = errors.New("unreachable")
	}
	return nil, lastErr
}

// backoffDelay computes the sleep before dial attempt n (n ≥ 1): the
// base backoff doubled per attempt, capped at maxBackoff, with full
// jitter — uniform in (0, cap]. Full jitter (the AWS architecture-blog
// recommendation) trades a slightly longer expected recovery for
// de-synchronizing a fleet of clients that all lost the same server.
func (r *ResilientClient) backoffDelay(n int) time.Duration {
	base := r.Backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := r.maxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= maxB {
			d = maxB
			break
		}
	}
	if d > maxB {
		d = maxB
	}
	// Full jitter; never zero so consecutive attempts cannot hot-spin.
	return 1 + time.Duration(mrand.Int63n(int64(d)))
}

// closedCh returns the channel Close will close, creating a fresh one
// if a previous Close consumed it.
func (r *ResilientClient) closedCh() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closeCh == nil {
		r.closeCh = make(chan struct{})
	}
	return r.closeCh
}

func (r *ResilientClient) bufferLimit() int {
	if r.BufferLimit <= 0 {
		return 1024
	}
	return r.BufferLimit
}

// Pending returns the number of buffered records. It does not block
// behind an in-progress redial.
func (r *ResilientClient) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Stats returns a snapshot of delivery outcomes.
func (r *ResilientClient) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close releases the underlying connection and aborts any dial backoff
// sleep in flight; buffered records are kept and can still be flushed
// after a later Submit/Flush redials.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closeCh != nil {
		close(r.closeCh)
		r.closeCh = nil
	}
	if r.client != nil {
		err := r.client.Close()
		r.client = nil
		return err
	}
	return nil
}
