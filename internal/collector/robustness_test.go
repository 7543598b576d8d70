package collector

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

// Robustness: the server must survive malformed clients without
// crashing or wedging other connections.

func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	_, store, addr := startServer(t)
	conn := rawConn(t, addr)
	conn.Write([]byte("\x00\xff{not json at all\n\n\x13"))
	conn.Close()

	// A well-behaved client still works afterwards.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(sampleRecord()); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	if store.Len() != 1 {
		t.Fatalf("stored %d", store.Len())
	}
}

func TestServerSurvivesAbruptDisconnects(t *testing.T) {
	_, _, addr := startServer(t)
	for i := 0; i < 20; i++ {
		conn := rawConn(t, addr)
		// Half-written request, then slam the connection.
		fmt.Fprintf(conn, `{"type":"sub`)
		conn.Close()
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after disconnect storm: %v", err)
	}
}

func TestServerRejectsSubmitWithDanglingRefs(t *testing.T) {
	// Refs naming hashes that are neither known nor supplied must fail
	// cleanly, not store a half-restored record.
	_, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire, refs, _ := StripRecord(sampleRecord())
	refs[FieldFonts] = "0000000000000000000000000000000000000000"
	_, err = c.roundTrip(&Request{Type: TypeSubmit, Record: wire, Refs: refs})
	if err == nil || !strings.Contains(err.Error(), "missing value") {
		t.Fatalf("err = %v", err)
	}
	if store.Len() != 0 {
		t.Fatal("half-restored record stored")
	}
}

func TestServerHandlesOversizeCheck(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hashes := make([]string, 5000)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%040d", i)
	}
	resp, err := c.roundTrip(&Request{Type: TypeCheck, Hashes: hashes})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hashes) != len(hashes) {
		t.Fatalf("need %d of %d", len(resp.Hashes), len(hashes))
	}
}

func TestDispatchTableDriven(t *testing.T) {
	// The dispatcher in isolation, without sockets.
	srv := NewServer(storage.NewShardedStore(1))
	cases := []struct {
		req  Request
		want string
	}{
		{Request{Type: TypePing}, TypePong},
		{Request{Type: TypeCheck, Hashes: []string{"x"}}, TypeNeed},
		{Request{Type: TypeSubmit}, TypeError},
		{Request{Type: "nonsense"}, TypeError},
		{Request{}, TypeError},
	}
	for _, c := range cases {
		if got := srv.dispatch(&c.req); got.Type != c.want {
			t.Errorf("dispatch(%q) = %q, want %q", c.req.Type, got.Type, c.want)
		}
	}
}

func TestRequestJSONStability(t *testing.T) {
	// The wire format is a compatibility surface: field names must not
	// drift silently.
	req := Request{Type: TypeSubmit, Hashes: []string{"h"}, Refs: map[string]string{"fonts": "h"}}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type"`, `"hashes"`, `"refs"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("wire field %s missing in %s", want, b)
		}
	}
}
