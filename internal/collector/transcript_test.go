package collector

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"fpdyn/internal/storage"
)

// wireConn is a raw client for transcript tests: it writes request
// bytes as given and records every response byte the server sends, so
// a test can compare a whole session against the exact bytes expected.
type wireConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	got  []byte
}

func dialWire(t *testing.T, addr string) *wireConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &wireConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (w *wireConn) write(b []byte) {
	w.t.Helper()
	if _, err := w.conn.Write(b); err != nil {
		w.t.Fatalf("write: %v", err)
	}
}

// line sends payload as one newline-JSON request and records the
// one-line reply.
func (w *wireConn) line(payload string) {
	w.t.Helper()
	w.write([]byte(payload + "\n"))
	resp, err := w.br.ReadBytes('\n')
	if err != nil {
		w.t.Fatalf("read line reply to %s: %v", payload, err)
	}
	w.got = append(w.got, resp...)
}

// frame sends raw binary-frame bytes and records the one-frame reply,
// header included.
func (w *wireConn) frame(wire []byte) {
	w.t.Helper()
	w.write(wire)
	var hdr [8]byte
	if _, err := io.ReadFull(w.br, hdr[:]); err != nil {
		w.t.Fatalf("read frame header: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:4]))
	if _, err := io.ReadFull(w.br, body); err != nil {
		w.t.Fatalf("read frame body: %v", err)
	}
	w.got = append(w.got, hdr[:]...)
	w.got = append(w.got, body...)
}

// closed records whatever the server sends before hanging up and fails
// if it keeps the connection open.
func (w *wireConn) closed() {
	w.t.Helper()
	rest, err := io.ReadAll(w.br)
	if err != nil {
		w.t.Fatalf("server did not hang up: %v", err)
	}
	w.got = append(w.got, rest...)
}

func jsonFrame(t *testing.T, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return storage.AppendFrame(nil, payload)
}

// oversizeFrame is a binary frame header announcing a payload far past
// any frame limit; the server rejects it from the header alone.
func oversizeFrame() []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, 1<<30)
	return hdr
}

// TestWireTranscript pins the collector's wire bytes for one scripted
// session: ping and a malformed line in newline-JSON (the malformed
// line costs the connection), then on a second connection hello →
// binary, a check and a batch in CRC frames, a repeated check the
// dedup answers in full, and an oversize frame that ends the session.
func TestWireTranscript(t *testing.T) {
	_, _, addr := startServer(t)

	c1 := dialWire(t, addr)
	c1.line(`{"type":"ping"}`)
	c1.line(`{"type":"ping"`)
	c1.closed()
	want1 := "{\"type\":\"pong\"}\n" +
		"{\"type\":\"error\",\"error\":\"malformed request\"}\n"
	if string(c1.got) != want1 {
		t.Fatalf("json session:\n got %q\nwant %q", c1.got, want1)
	}

	wire, refs, blobs := StripRecord(sampleRecord())
	hashes := make([]string, 0, len(blobs))
	for h := range blobs {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	check := jsonFrame(t, &Request{Type: TypeCheck, Hashes: hashes})
	c2 := dialWire(t, addr)
	c2.line(`{"type":"hello","framing":"binary"}`)
	c2.frame(check)
	c2.frame(jsonFrame(t, &Request{Type: TypeBatch, ClientID: "transcript",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}}}))
	c2.frame(check)
	c2.frame(oversizeFrame())
	c2.closed()
	// Each binary reply is a frame: a little-endian payload length, the
	// payload's CRC-32C, then the JSON payload.
	want2 := "{\"type\":\"hello\",\"framing\":\"binary\"}\n" +
		"\xc6\x00\x00\x00\x14 \f\x82{\"type\":\"need\",\"hashes\":[" +
		"\"53ad41c52dcf573f056ba410f8a239a97dc70c9d\",\"71a18cc6a1b5f6d2f1d5ed811017026aa3074007\"," +
		"\"c854a009bacf4ab9786429dba37ebdc18825f71e\",\"db3f5a6859bfdfcc99cc74303b9dec18ee5b710e\"]}" +
		"\"\x00\x00\x00\xf3\x99V&{\"type\":\"ok\",\"acks\":[{\"index\":0}]}" +
		"\x0f\x00\x00\x00\x0e\x1c\x1b\xaa{\"type\":\"need\"}" +
		"6\x00\x00\x00\xdc\xcbo7{\"type\":\"error\",\"error\":\"request exceeds frame limit\"}"
	if string(c2.got) != want2 {
		t.Fatalf("binary session:\n got %q\nwant %q", c2.got, want2)
	}
}
