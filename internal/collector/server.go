package collector

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// Default connection-hygiene settings; override the Server fields
// before Serve.
const (
	DefaultReadTimeout  = 2 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
	DefaultMaxFrame     = 8 << 20 // one request line, blobs included
	DefaultDrainGrace   = 500 * time.Millisecond
)

// Server is the data-storage server: it accepts collection connections,
// answers dedup checks against its value store, and appends
// reconstructed records to the backing store. Every record lands
// through the store's AppendBatchDurable — a single submit is a batch
// of one, group-committed with one WAL write+fsync per touched shard
// and (client ID, seq) dedup. When the store has WALs attached, a
// record is ACKed only after it is durable; an append error means the
// batch is not ACKed (the client retransmits, and seq dedup absorbs any
// sub-batch that did land).
type Server struct {
	store *storage.ShardedStore

	// ReadTimeout bounds the wait for the next request on an idle
	// connection; WriteTimeout bounds one response write. Slow or
	// stalled clients are disconnected rather than pinning a handler
	// goroutine forever. Defaults above; negative disables.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxFrame caps one request line in bytes (the inbound-blob
	// guard): a client exceeding it is disconnected before the payload
	// is buffered in full.
	MaxFrame int
	// DrainGrace is how long existing connections may finish in-flight
	// requests after Shutdown begins.
	DrainGrace time.Duration
	// DisableBinary makes the server decline binary framing in hello
	// exchanges, pinning every connection to newline-JSON. The bench
	// harness uses it to measure the framing modes against the same
	// server code; operators can use it to rule the binary path out
	// when debugging.
	DisableBinary bool

	mu       sync.Mutex
	lis      net.Listener
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	// metrics backs both Stats() and the /metrics scrape, so the two
	// views can never disagree.
	metrics serverMetrics

	// Logf receives per-connection error logs; defaults to log.Printf.
	// Set before Serve.
	Logf func(format string, args ...any)
}

// serverMetrics is the collector server's obs wiring. Counters are
// resolved once at construction; the request path only performs atomic
// updates.
type serverMetrics struct {
	reg *obs.Registry

	requestsPing   *obs.Counter
	requestsCheck  *obs.Counter
	requestsSubmit *obs.Counter
	requestsHello  *obs.Counter
	requestsBatch  *obs.Counter
	requestsOther  *obs.Counter
	reqLatency     *obs.Histogram

	recordsAccepted *obs.Counter
	recordsDuped    *obs.Counter
	valuesReceived  *obs.Counter
	valuesDeduped   *obs.Counter
	bytesReceived   *obs.Counter
	framesRejected  *obs.Counter

	activeConns  *obs.Gauge
	draining     *obs.Gauge
	drainSeconds *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		reg:            reg,
		requestsPing:   reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypePing),
		requestsCheck:  reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeCheck),
		requestsSubmit: reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeSubmit),
		requestsHello:  reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeHello),
		requestsBatch:  reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeBatch),
		requestsOther:  reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", "other"),
		reqLatency:     reg.Histogram("collector_request_seconds", "Request dispatch latency (decode excluded).", nil),

		recordsAccepted: reg.Counter("collector_records_accepted_total", "Records appended to the store."),
		recordsDuped:    reg.Counter("collector_records_duped_total", "Submits answered from the idempotency table."),
		valuesReceived:  reg.Counter("collector_values_received_total", "Content-addressed blobs transferred."),
		valuesDeduped:   reg.Counter("collector_values_deduped_total", "Blobs skipped thanks to the hash check."),
		bytesReceived:   reg.Counter("collector_bytes_received_total", "Inbound frame bytes drawn from client connections."),
		framesRejected:  reg.Counter("collector_frames_rejected_total", "Requests dropped for exceeding the frame limit."),

		activeConns:  reg.Gauge("collector_active_connections", "Currently open client connections."),
		draining:     reg.Gauge("collector_draining", "1 while a graceful Shutdown drain is in progress or finished."),
		drainSeconds: reg.Gauge("collector_drain_seconds", "Wall time the last Shutdown drain took."),
	}
}

// NewServer creates a server over the given store.
func NewServer(store *storage.ShardedStore) *Server {
	return &Server{
		store:   store,
		conns:   make(map[net.Conn]struct{}),
		metrics: newServerMetrics(obs.NewRegistry()),
		Logf:    log.Printf,
	}
}

// Metrics returns the server's metric registry for the admin endpoint
// (/metrics, /varz) to serve.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Draining reports whether a graceful Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout == 0 {
		return DefaultReadTimeout
	}
	return s.ReadTimeout
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout == 0 {
		return DefaultWriteTimeout
	}
	return s.WriteTimeout
}

func (s *Server) maxFrame() int {
	if s.MaxFrame <= 0 {
		return DefaultMaxFrame
	}
	return s.MaxFrame
}

func (s *Server) drainGrace() time.Duration {
	if s.DrainGrace <= 0 {
		return DefaultDrainGrace
	}
	return s.DrainGrace
}

// Stats is a snapshot of server counters.
type Stats struct {
	RecordsAccepted int64
	RecordsDuped    int64 // submits answered from the idempotency table
	ValuesReceived  int64 // blobs actually transferred
	ValuesDeduped   int64 // blobs skipped thanks to the hash check
	BytesReceived   int64
}

// Stats returns a snapshot of the counters. The same counters back the
// /metrics exposition, so a scrape and a Stats call always agree.
func (s *Server) Stats() Stats {
	return Stats{
		RecordsAccepted: s.metrics.recordsAccepted.Value(),
		RecordsDuped:    s.metrics.recordsDuped.Value(),
		ValuesReceived:  s.metrics.valuesReceived.Value(),
		ValuesDeduped:   s.metrics.valuesDeduped.Value(),
		BytesReceived:   s.metrics.bytesReceived.Value(),
	}
}

// Serve accepts connections on lis until Close is called. It blocks.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close raced ahead of Serve: shut down cleanly.
		s.mu.Unlock()
		lis.Close()
		return nil
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Shutdown/Close raced the accept: refuse the connection.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.metrics.activeConns.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.metrics.activeConns.Add(-1)
			}()
			if err := s.handle(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("collector: connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close stops accepting, closes live connections and waits for
// handlers to drain. It is the abrupt stop — in-flight requests are
// torn down without a response, as a crash would — and doubles as the
// SIGKILL-equivalent in the chaos tests. Use Shutdown for a graceful
// drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server: it stops accepting new connections
// immediately, lets in-flight submissions on existing connections
// finish (bounded by DrainGrace, and never past ctx's own deadline),
// then closes. A connection opened after Shutdown begins is refused.
// If ctx expires first, remaining connections are closed abruptly and
// ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	s.metrics.draining.Set(1)
	drainStart := time.Now()
	lis := s.lis
	deadline := drainStart.Add(s.drainGrace())
	if d, ok := ctx.Deadline(); ok {
		// The caller's budget is tighter than the drain grace: wake idle
		// handlers a beat before the ctx deadline so they exit cleanly
		// inside it instead of sleeping past it and getting force-closed.
		if h := d.Add(-20 * time.Millisecond); h.Before(deadline) {
			deadline = h
			if deadline.Before(drainStart) {
				deadline = drainStart
			}
		}
	}
	for c := range s.conns {
		// Cap every connection's next read at the drain deadline so idle
		// handlers wake up and exit; requests already in flight still
		// complete and are ACKed.
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	defer func() {
		s.metrics.drainSeconds.SetDuration(time.Since(drainStart))
	}()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		select {
		case <-done:
			// The drain finished on the same tick the budget expired —
			// that is a completed shutdown, not a forced one.
			return nil
		default:
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		return ctx.Err()
	}
}

// countingReader counts bytes drawn from the connection into the
// inbound-bytes counter.
type countingReader struct {
	r io.Reader
	n *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// ErrFrameTooLong mirrors bufio.ErrTooLong for the reader-based line
// framing below. Exported so other servers sharing the hello-negotiated
// framing (internal/linkd) report the same condition.
var ErrFrameTooLong = errors.New("request frame too large")

// ReadLine accumulates one newline-terminated request from br, bounded
// by maxLine. Unlike bufio.Scanner it reads through a plain
// *bufio.Reader, so bytes the reader has buffered past the line — the
// first binary frame a pipelining client sent right behind its hello —
// survive a mid-connection framing switch instead of being discarded
// with the scanner. Exported for servers that share the collector's
// line-then-binary framing convention.
func ReadLine(br *bufio.Reader, maxLine int) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxLine+1 { // +1: the delimiter is not payload
			return nil, ErrFrameTooLong
		}
		switch {
		case err == nil:
			line = line[:len(line)-1] // strip '\n'
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue // long line: keep accumulating
		case errors.Is(err, io.EOF) && len(line) > 0:
			return line, nil // final line without trailing newline
		default:
			return nil, err
		}
	}
}

// handle runs the request loop for one connection. A connection starts
// in newline-JSON framing; a hello exchange may switch it to binary
// frames (CRC-32C, length-prefixed — the WAL's frame format), in which
// case the switch takes effect for the request after the hello on both
// sides.
func (s *Server) handle(conn net.Conn) error {
	br := bufio.NewReader(countingReader{conn, s.metrics.bytesReceived})
	enc := json.NewEncoder(conn)
	binary := false
	var wbuf []byte // reused binary response frame
	for {
		if !s.draining.Load() {
			if rt := s.readTimeout(); rt > 0 {
				conn.SetReadDeadline(time.Now().Add(rt))
			}
		}
		var payload []byte
		var err error
		if binary {
			payload, err = storage.ReadFrame(br, s.maxFrame())
			if errors.Is(err, storage.ErrFrameSize) {
				err = ErrFrameTooLong
			}
		} else {
			payload, err = ReadLine(br, s.maxFrame())
		}
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				return io.EOF
			case errors.Is(err, ErrFrameTooLong):
				// Best-effort rejection before hanging up.
				s.metrics.framesRejected.Inc()
				s.writeResponse(conn, enc, binary, &wbuf, &Response{Type: TypeError, Error: "request exceeds frame limit"})
				return ErrFrameTooLong
			case s.draining.Load() && errors.Is(err, os.ErrDeadlineExceeded):
				return nil // drained: the connection went idle past the grace
			default:
				return err
			}
		}
		if len(payload) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			s.writeResponse(conn, enc, binary, &wbuf, &Response{Type: TypeError, Error: "malformed request"})
			return err
		}
		resp := s.dispatch(&req)
		if err := s.writeResponse(conn, enc, binary, &wbuf, resp); err != nil {
			return err
		}
		if resp.Type == TypeHello && resp.Framing == FramingBinary {
			// The hello reply itself went out in the old framing; both
			// sides switch starting with the next message.
			binary = true
		}
		// During a drain the loop keeps serving — a submission spans two
		// round trips (check, then batch), so cutting after one response
		// would break it mid-flight. The absolute read deadline Shutdown
		// set on the connection bounds how long this can continue.
	}
}

func (s *Server) writeResponse(conn net.Conn, enc *json.Encoder, binary bool, wbuf *[]byte, resp *Response) error {
	if wt := s.writeTimeout(); wt > 0 {
		conn.SetWriteDeadline(time.Now().Add(wt))
	}
	if !binary {
		return enc.Encode(resp)
	}
	payload, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	*wbuf = storage.AppendFrame((*wbuf)[:0], payload)
	_, err = conn.Write(*wbuf)
	return err
}

// dispatch processes one request, counting it by verb and timing it
// into the request-latency histogram. The instrumentation is two
// atomic adds plus one clock read pair — nothing on this path
// allocates.
func (s *Server) dispatch(req *Request) *Response {
	switch req.Type {
	case TypePing:
		s.metrics.requestsPing.Inc()
	case TypeCheck:
		s.metrics.requestsCheck.Inc()
	case TypeSubmit:
		s.metrics.requestsSubmit.Inc()
	case TypeHello:
		s.metrics.requestsHello.Inc()
	case TypeBatch:
		s.metrics.requestsBatch.Inc()
	default:
		s.metrics.requestsOther.Inc()
	}
	start := time.Now()
	resp := s.dispatchInner(req)
	s.metrics.reqLatency.ObserveDuration(time.Since(start))
	return resp
}

func (s *Server) dispatchInner(req *Request) *Response {
	switch req.Type {
	case TypePing:
		return &Response{Type: TypePong}
	case TypeHello:
		f := FramingJSON
		if req.Framing == FramingBinary && !s.DisableBinary {
			f = FramingBinary
		}
		return &Response{Type: TypeHello, Framing: f}
	case TypeBatch:
		return &Response{Type: TypeOK, Acks: s.ingest(req.Batch, req.ClientID)}
	case TypeCheck:
		var missing []string
		for _, h := range req.Hashes {
			if s.store.HasValue(h) {
				s.metrics.valuesDeduped.Inc()
			} else {
				missing = append(missing, h)
			}
		}
		return &Response{Type: TypeNeed, Hashes: missing}
	case TypeSubmit:
		// The single-record verb is a batch of one, answered in its own
		// reply shape.
		a := s.ingest([]BatchItem{{Record: req.Record, Refs: req.Refs, Values: req.Values, Seq: req.Seq}}, req.ClientID)[0]
		if a.Error != "" {
			return &Response{Type: TypeError, Error: a.Error}
		}
		return &Response{Type: TypeOK, Index: a.Index, Dup: a.Dup}
	default:
		return &Response{Type: TypeError, Error: "unknown request type " + req.Type}
	}
}

// ingest lands a batch's records; it is the one path every record takes
// into the store. Two phases. First walk the items in order, landing
// each item's blobs and restoring its record; a bad item stops the walk
// — items after it are not attempted, so the client's per-seq
// retransmission invariant (in order, head-blocking) holds within
// batches too. Then group-commit every restored record in one
// AppendBatchDurable call: one WAL write+fsync per touched shard. The
// acks cover the committed records in order, plus one error ack for the
// item that stopped the walk. If the group commit fails, nothing in the
// batch may be ACKed: the only ack is the error, at position 0, telling
// the client the server got nowhere.
func (s *Server) ingest(batch []BatchItem, clientID string) []Ack {
	var itemErr string
	items := make([]storage.BatchAppend, 0, len(batch))
walk:
	for i := range batch {
		it := &batch[i]
		if it.Record == nil || it.Record.FP == nil {
			itemErr = "submit without record"
			break
		}
		for h, content := range it.Values {
			if err := s.store.PutValueDurable(h, content); err != nil {
				itemErr = "value not durable: " + err.Error()
				break walk
			}
			s.metrics.valuesReceived.Inc()
		}
		rec, err := RestoreRecord(it.Record, it.Refs, s.store.Value)
		if err != nil {
			itemErr = err.Error()
			break
		}
		items = append(items, storage.BatchAppend{Record: rec, Seq: it.Seq})
	}
	results, err := s.store.AppendBatchDurable(items, clientID)
	if err != nil {
		return []Ack{{Error: "record not durable: " + err.Error()}}
	}
	acks := make([]Ack, 0, len(results)+1)
	for _, r := range results {
		if r.Dup {
			s.metrics.recordsDuped.Inc()
		} else {
			s.metrics.recordsAccepted.Inc()
		}
		acks = append(acks, Ack{Index: r.Idx, Dup: r.Dup})
	}
	if itemErr != "" {
		acks = append(acks, Ack{Error: itemErr})
	}
	return acks
}
