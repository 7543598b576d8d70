package linkd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/faultinject"
	"fpdyn/internal/storage"
)

// startServer brings up a Service behind a Server on a loopback port.
func startServer(t *testing.T, mutate func(*Options)) (*Service, *Server, string) {
	t.Helper()
	svc := openTest(t, mutate)
	srv := NewServer(svc)
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return svc, srv, lis.Addr().String()
}

// testClient speaks the linkd wire protocol, switching framing after a
// binary hello like a real client.
type testClient struct {
	conn   net.Conn
	br     *bufio.Reader
	binary bool
}

func dialServer(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{conn: conn, br: bufio.NewReader(conn)}
}

func (c *testClient) send(t *testing.T, payload []byte) {
	t.Helper()
	var wire []byte
	if c.binary {
		wire = storage.AppendFrame(nil, payload)
	} else {
		wire = append(payload, '\n')
	}
	if _, err := c.conn.Write(wire); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func (c *testClient) recv(t *testing.T) *Response {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var payload []byte
	var err error
	if c.binary {
		payload, err = storage.ReadFrame(c.br, DefaultMaxFrame)
	} else {
		payload, err = collector.ReadLine(c.br, DefaultMaxFrame)
	}
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("decode response %q: %v", payload, err)
	}
	return &resp
}

func (c *testClient) roundTrip(t *testing.T, req *Request) *Response {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("encode request: %v", err)
	}
	c.send(t, payload)
	resp := c.recv(t)
	if req.Type == TypeHello && resp.Type == TypeHello && resp.Framing == collector.FramingBinary {
		c.binary = true
	}
	return resp
}

func TestServerJSONRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, nil)
	c := dialServer(t, addr)

	if resp := c.roundTrip(t, &Request{Type: TypePing}); resp.Type != TypePong {
		t.Fatalf("ping → %+v", resp)
	}
	for i := 0; i < 10; i++ {
		resp := c.roundTrip(t, &Request{
			Type: TypeAdd, ID: fmt.Sprintf("i%d", i),
			Record: testRecord(i, tBase.Add(time.Duration(i)*time.Minute)),
		})
		if resp.Type != TypeOK {
			t.Fatalf("add %d → %+v", i, resp)
		}
	}
	resp := c.roundTrip(t, &Request{Type: TypeQuery, Record: evolvedQuery(4, tBase.Add(time.Hour)), K: 3})
	if resp.Type != TypeResult || resp.Mode != ModeLearning {
		t.Fatalf("query → %+v", resp)
	}
	if len(resp.Candidates) == 0 || resp.Candidates[0].ID != "i4" {
		t.Fatalf("query candidates = %+v, want i4 first", resp.Candidates)
	}
}

func TestServerBinaryNegotiation(t *testing.T) {
	_, _, addr := startServer(t, nil)
	c := dialServer(t, addr)

	resp := c.roundTrip(t, &Request{Type: TypeHello, Framing: collector.FramingBinary})
	if resp.Type != TypeHello || resp.Framing != collector.FramingBinary {
		t.Fatalf("hello → %+v", resp)
	}
	if !c.binary {
		t.Fatal("client did not switch to binary framing")
	}
	// Everything after the hello reply rides CRC frames, both ways.
	if resp := c.roundTrip(t, &Request{Type: TypeAdd, ID: "b1", Record: testRecord(1, tBase)}); resp.Type != TypeOK {
		t.Fatalf("binary add → %+v", resp)
	}
	resp = c.roundTrip(t, &Request{Type: TypeQuery, Record: testRecord(1, tBase.Add(time.Hour)), K: 2})
	if resp.Type != TypeResult || len(resp.Candidates) == 0 || resp.Candidates[0].ID != "b1" {
		t.Fatalf("binary query → %+v", resp)
	}
}

// TestServerMalformedRequest: a bad frame costs the client an error
// response, not the connection.
func TestServerMalformedRequest(t *testing.T) {
	_, _, addr := startServer(t, nil)
	c := dialServer(t, addr)

	c.send(t, []byte(`{"type":"query"`)) // truncated JSON
	if resp := c.recv(t); resp.Type != TypeError {
		t.Fatalf("malformed JSON → %+v", resp)
	}
	c.send(t, []byte(`{"type":"query","k":5000,"record":{"fp":{}}}`))
	if resp := c.recv(t); resp.Type != TypeError {
		t.Fatalf("oversized k → %+v", resp)
	}
	if resp := c.roundTrip(t, &Request{Type: TypePing}); resp.Type != TypePong {
		t.Fatalf("connection dead after malformed requests: %+v", resp)
	}
}

// TestServerDeadline: deadline_ms becomes a context deadline that
// cancels the stalled query.
func TestServerDeadline(t *testing.T) {
	_, _, addr := startServer(t, func(o *Options) {
		o.fault = &faultinject.Script{Stall: 200 * time.Millisecond}
	})
	c := dialServer(t, addr)
	if resp := c.roundTrip(t, &Request{Type: TypeAdd, ID: "d1", Record: testRecord(1, tBase)}); resp.Type != TypeOK {
		t.Fatalf("add → %+v", resp)
	}
	resp := c.roundTrip(t, &Request{Type: TypeQuery, Record: testRecord(1, tBase), K: 2, DeadlineMS: 20})
	if resp.Type != TypeError {
		t.Fatalf("expired query → %+v, want error", resp)
	}
	// Without a deadline the same query succeeds.
	resp = c.roundTrip(t, &Request{Type: TypeQuery, Record: testRecord(1, tBase), K: 2})
	if resp.Type != TypeResult {
		t.Fatalf("undeadlined query → %+v", resp)
	}
}

// TestServerOverloaded: with the house full, an extra connection gets
// TypeOverloaded promptly — it does not queue behind the stall.
func TestServerOverloaded(t *testing.T) {
	const stall = 500 * time.Millisecond
	svc, _, addr := startServer(t, func(o *Options) {
		o.MaxInFlight = 1
		o.QueueDepth = 1
		o.fault = &faultinject.Script{Stall: stall}
	})
	loader := dialServer(t, addr)
	for i := 0; i < 5; i++ {
		if resp := loader.roundTrip(t, &Request{Type: TypeAdd, ID: fmt.Sprintf("i%d", i), Record: testRecord(i, tBase)}); resp.Type != TypeOK {
			t.Fatalf("add → %+v", resp)
		}
	}

	query := &Request{Type: TypeQuery, Record: evolvedQuery(2, tBase.Add(time.Hour)), K: 2}
	results := make(chan *Response, 2)
	for i := 0; i < 2; i++ {
		cl := dialServer(t, addr)
		want := int64(i + 1)
		go func() { results <- cl.roundTrip(t, query) }()
		waitFor(t, func() bool { return svc.pending.Load() == want })
	}

	shedder := dialServer(t, addr)
	start := time.Now()
	resp := shedder.roundTrip(t, query)
	if resp.Type != TypeOverloaded {
		t.Fatalf("third query → %+v, want overloaded", resp)
	}
	if waited := time.Since(start); waited > stall/2 {
		t.Fatalf("overloaded response took %v; must not wait out the %v stall", waited, stall)
	}
	for i := 0; i < 2; i++ {
		if r := <-results; r.Type != TypeResult {
			t.Fatalf("admitted query %d → %+v", i, r)
		}
	}
}

// TestServerShutdownDrain: Shutdown refuses new connections but lets
// the in-flight query finish and deliver its result.
func TestServerShutdownDrain(t *testing.T) {
	svc, srv, addr := startServer(t, func(o *Options) {
		o.fault = &faultinject.Script{Stall: 300 * time.Millisecond}
	})
	srv.DrainGrace = 2 * time.Second
	c := dialServer(t, addr)
	if resp := c.roundTrip(t, &Request{Type: TypeAdd, ID: "s1", Record: testRecord(1, tBase)}); resp.Type != TypeOK {
		t.Fatalf("add → %+v", resp)
	}

	inflight := make(chan *Response, 1)
	go func() {
		inflight <- c.roundTrip(t, &Request{Type: TypeQuery, Record: testRecord(1, tBase), K: 1})
	}()
	waitFor(t, func() bool { return svc.m.inflight.Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp := <-inflight; resp.Type != TypeResult {
		t.Fatalf("in-flight query during drain → %+v", resp)
	}
	// The listener is down: new connections are refused.
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	// The service survives the server: the operator snapshots, then closes.
	if svc.Len() != 1 {
		t.Fatalf("service lost state across drain: Len = %d", svc.Len())
	}
}

// TestServerShutdownRefusesNewConnections: once Serve owns the listener
// (a ping round trip proves it), Shutdown closes it, and a dial after
// the drain began is refused.
func TestServerShutdownRefusesNewConnections(t *testing.T) {
	_, srv, addr := startServer(t, func(o *Options) { o.Learn = nil })
	srv.DrainGrace = 50 * time.Millisecond
	c := dialServer(t, addr)
	if resp := c.roundTrip(t, &Request{Type: TypePing}); resp.Type != TypePong {
		t.Fatalf("ping → %+v", resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	if conn, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("connection accepted after drain started")
	}
}
