package linkd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

// TestWireTranscript pins linkd's wire bytes for one scripted session
// on one connection: ping, a truncated-JSON line (answered, and the
// connection kept), hello → binary, an add and a query in CRC frames,
// and an oversize frame that ends the session.
func TestWireTranscript(t *testing.T) {
	_, _, addr := startServer(t, func(o *Options) { o.Learn = nil })
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var got []byte
	write := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	line := func(payload string) {
		t.Helper()
		write([]byte(payload + "\n"))
		resp, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read line reply to %s: %v", payload, err)
		}
		got = append(got, resp...)
	}
	frame := func(wire []byte) {
		t.Helper()
		write(wire)
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatalf("read frame header: %v", err)
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[:4]))
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("read frame body: %v", err)
		}
		got = append(append(got, hdr[:]...), body...)
	}
	request := func(req *Request) []byte {
		t.Helper()
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return storage.AppendFrame(nil, payload)
	}

	line(`{"type":"ping"}`)
	line(`{"type":"query"`)
	line(`{"type":"hello","framing":"binary"}`)
	frame(request(&Request{Type: TypeAdd, ID: "t1", Record: testRecord(1, tBase)}))
	frame(request(&Request{Type: TypeQuery, Record: evolvedQuery(1, tBase.Add(time.Hour)), K: 2}))
	oversize := make([]byte, 8) // a header announcing a 1 GiB payload
	binary.LittleEndian.PutUint32(oversize, 1<<30)
	write(oversize)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("server did not hang up: %v", err)
	}
	got = append(got, rest...)

	// Each binary reply is a frame: a little-endian payload length, the
	// payload's CRC-32C, then the JSON payload.
	want := "{\"type\":\"pong\"}\n" +
		"{\"type\":\"error\",\"error\":\"linkd: bad request: malformed JSON: unexpected end of JSON input\"}\n" +
		"{\"type\":\"hello\",\"framing\":\"binary\"}\n" +
		"\r\x00\x00\x00\xb0a\x89o{\"type\":\"ok\"}" +
		"H\x00\x00\x00\xb6Y\x03d{\"type\":\"result\",\"candidates\":[{\"ID\":\"t1\",\"Score\":28.96}],\"mode\":\"rule\"}" +
		"6\x00\x00\x00\xdc\xcbo7{\"type\":\"error\",\"error\":\"request exceeds frame limit\"}"
	if string(got) != want {
		t.Fatalf("session:\n got %q\nwant %q", got, want)
	}
}
