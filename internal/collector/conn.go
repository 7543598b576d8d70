package collector

import (
	"bufio"
	"context"
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

// Default connection-hygiene settings. NewConnServer sets the read
// timeout; each server's constructor passes its own frame limit and
// drain grace (these two for the collector). Override the fields before
// Serve. writeTimeout bounds one response write.
const (
	DefaultReadTimeout = 2 * time.Minute
	DefaultMaxFrame    = 8 << 20 // one request line, blobs included
	DefaultDrainGrace  = 500 * time.Millisecond
	writeTimeout       = 30 * time.Second
)

// Reply is a protocol's answer to one request payload.
type Reply struct {
	// Payload is the encoded response, in the framing the request
	// arrived in: the connection server adds the newline or the frame
	// header.
	Payload []byte
	// Binary switches the connection to binary frames from the next
	// message on, in both directions; Payload itself (the hello reply
	// that negotiated the switch) goes out in the old framing.
	Binary bool
	// Close, when non-nil, hangs up after Payload is written; Serve
	// logs it.
	Close error
}

// ConnServer is the connection server the collector and the linking
// service (internal/linkd) both run on. It owns the accept loop and
// connection tracking, the read loop, response writing, and the
// abrupt (Close) and graceful (Shutdown) stops. A connection starts in
// newline-JSON; a Reply with Binary set switches both sides to
// CRC-32C, length-prefixed frames (storage.AppendFrame/ReadFrame, the
// WAL's frame format). What a payload holds in either framing is the
// protocol's business: its handle function decodes one payload, told
// which framing it arrived in, and encodes the Reply in that framing,
// and its refuse function encodes the error reply to a request the
// server drops unread (one over MaxFrame). The collector's binary
// frames carry its binary codec; linkd's carry JSON.
//
// It registers five series under its name on the owner's registry:
// NAME_active_connections, NAME_draining, NAME_drain_seconds,
// NAME_bytes_received_total and NAME_frames_rejected_total.
type ConnServer struct {
	// ReadTimeout bounds the wait for the next request on an idle
	// connection (writeTimeout bounds one response write). Slow or
	// stalled clients are disconnected rather than pinning a handler
	// goroutine forever. Zero or negative disables.
	ReadTimeout time.Duration
	// MaxFrame caps one request line or frame in bytes (the
	// inbound-blob guard): a client exceeding it gets an error reply
	// and is disconnected before the payload is buffered in full.
	MaxFrame int
	// DrainGrace is how long existing connections may finish in-flight
	// requests after Shutdown begins.
	DrainGrace time.Duration
	// Logf receives per-connection error logs; defaults to log.Printf.
	// Set before Serve.
	Logf func(format string, args ...any)

	name   string
	handle func(payload []byte, binary bool) Reply
	refuse func(msg string, binary bool) []byte

	mu       sync.Mutex
	lis      net.Listener
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	activeConns    *obs.Gauge
	drainingGauge  *obs.Gauge
	drainSeconds   *obs.Gauge
	bytesReceived  *obs.Counter
	framesRejected *obs.Counter
}

// NewConnServer creates a connection server that answers every request
// payload with handle, and a request it drops unread with refuse's
// error reply. name prefixes its log lines and its metric names on reg;
// maxFrame and drainGrace are the owner's defaults for MaxFrame and
// DrainGrace.
func NewConnServer(name string, reg *obs.Registry, maxFrame int, drainGrace time.Duration,
	handle func(payload []byte, binary bool) Reply, refuse func(msg string, binary bool) []byte) *ConnServer {
	return &ConnServer{
		ReadTimeout: DefaultReadTimeout,
		MaxFrame:    maxFrame,
		DrainGrace:  drainGrace,
		Logf:        log.Printf,

		name:   name,
		handle: handle,
		refuse: refuse,
		conns:  make(map[net.Conn]struct{}),

		activeConns:    reg.Gauge(name+"_active_connections", "Currently open client connections."),
		drainingGauge:  reg.Gauge(name+"_draining", "1 while a graceful Shutdown drain is in progress or finished."),
		drainSeconds:   reg.Gauge(name+"_drain_seconds", "Wall time the last Shutdown drain took."),
		bytesReceived:  reg.Counter(name+"_bytes_received_total", "Inbound frame bytes drawn from client connections."),
		framesRejected: reg.Counter(name+"_frames_rejected_total", "Requests dropped for exceeding the frame limit."),
	}
}

// Draining reports whether a graceful Shutdown has begun.
func (s *ConnServer) Draining() bool { return s.draining.Load() }

// Serve accepts connections on lis until Close or Shutdown. It blocks.
func (s *ConnServer) Serve(lis net.Listener) error {
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
		s.activeConns.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.activeConns.Add(-1)
			}()
			if err := s.serveConn(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("%s: connection %s: %v", s.name, conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close stops accepting, closes live connections and waits for
// handlers to drain. It is the abrupt stop — in-flight requests are
// torn down without a response, as a crash would — and doubles as the
// SIGKILL-equivalent in the chaos tests. Use Shutdown for a graceful
// drain.
func (s *ConnServer) Close() error {
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
// immediately, lets in-flight requests on existing connections finish
// (bounded by DrainGrace, and never past ctx's own deadline), then
// closes. A connection opened after Shutdown begins is refused. If ctx
// expires first, remaining connections are closed abruptly, their
// count is logged, and ctx.Err is returned.
func (s *ConnServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	s.drainingGauge.Set(1)
	drainStart := time.Now()
	lis := s.lis
	deadline := drainStart.Add(s.DrainGrace)
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
		// complete and are answered.
		c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	defer func() {
		s.drainSeconds.SetDuration(time.Since(drainStart))
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
		n := len(s.conns)
		s.mu.Unlock()
		s.Logf("%s: drain incomplete, closed %d connections early: %v", s.name, n, ctx.Err())
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
// framing below, and stands for storage.ErrFrameSize on binary frames.
var ErrFrameTooLong = errors.New("request frame too large")

// ReadLine accumulates one newline-terminated request from br, bounded
// by maxLine. Unlike bufio.Scanner it reads through a plain
// *bufio.Reader, so bytes the reader has buffered past the line — the
// first binary frame a pipelining client sent right behind its hello —
// survive a mid-connection framing switch instead of being discarded
// with the scanner. Exported for clients of the line-then-binary
// framing convention.
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

// serveConn runs the request loop for one connection.
func (s *ConnServer) serveConn(conn net.Conn) error {
	br := bufio.NewReader(countingReader{conn, s.bytesReceived})
	binary := false
	var wbuf []byte // reused response line or frame
	for {
		if !s.draining.Load() && s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		var payload []byte
		var err error
		if binary {
			payload, err = storage.ReadFrame(br, s.MaxFrame)
			if errors.Is(err, storage.ErrFrameSize) {
				err = ErrFrameTooLong
			}
		} else {
			payload, err = ReadLine(br, s.MaxFrame)
		}
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
				return io.EOF
			case errors.Is(err, ErrFrameTooLong):
				// Best-effort rejection before hanging up.
				s.framesRejected.Inc()
				s.write(conn, binary, &wbuf, s.refuse("request exceeds frame limit", binary))
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
		r := s.handle(payload, binary)
		if err := s.write(conn, binary, &wbuf, r.Payload); err != nil {
			return err
		}
		if r.Close != nil {
			return r.Close
		}
		if r.Binary {
			binary = true
		}
		// During a drain the loop keeps serving — a collector submission
		// spans two round trips (check, then batch), so cutting after one
		// response would break it mid-flight. The absolute read deadline
		// Shutdown set on the connection bounds how long this can go on.
	}
}

// write sends one encoded reply as a line or a frame.
func (s *ConnServer) write(conn net.Conn, binary bool, wbuf *[]byte, payload []byte) error {
	if binary {
		*wbuf = storage.AppendFrame((*wbuf)[:0], payload)
	} else {
		*wbuf = append(append((*wbuf)[:0], payload...), '\n')
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(*wbuf)
	return err
}
