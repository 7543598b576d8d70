package collector

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
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

// binFrame is req as a binary frame in the binary payload codec.
func binFrame(req *Request) []byte {
	return storage.AppendFrame(nil, appendRequest(nil, req))
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
// binary, a check and a batch in CRC frames of the binary payload
// codec, a repeated check the dedup answers in full, and an oversize
// frame that ends the session.
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
	check := binFrame(&Request{Type: TypeCheck, Hashes: hashes})
	c2 := dialWire(t, addr)
	c2.line(`{"type":"hello","framing":"binary"}`)
	c2.frame(check)
	c2.frame(binFrame(&Request{Type: TypeBatch, ClientID: "transcript",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}}}))
	c2.frame(check)
	c2.frame(oversizeFrame())
	c2.closed()
	// Each binary reply is a frame: a little-endian payload length and
	// the payload's CRC-32C, then the binary payload: version 1, the
	// length-prefixed type, then its fields. The need carries a count and
	// four 40-byte ("(") hashes; the ok one ack (index 0, not a dup, no
	// error).
	want2 := "{\"type\":\"hello\",\"framing\":\"binary\"}\n" +
		"\xab\x00\x00\x00\x71\x6d\x8a\xfd" + "\x01\x04need\x04" +
		"(53ad41c52dcf573f056ba410f8a239a97dc70c9d(71a18cc6a1b5f6d2f1d5ed811017026aa3074007" +
		"(c854a009bacf4ab9786429dba37ebdc18825f71e(db3f5a6859bfdfcc99cc74303b9dec18ee5b710e" +
		"\x08\x00\x00\x00\xcd\xf1\x45\x04" + "\x01\x02ok\x01\x00\x00\x00" +
		"\x07\x00\x00\x00\x06\x1d\x7d\x11" + "\x01\x04need\x00" +
		"\x23\x00\x00\x00\xdd\x38\x0b\x9b" + "\x01\x05error\x1brequest exceeds frame limit"
	if string(c2.got) != want2 {
		t.Fatalf("binary session:\n got %q\nwant %q", c2.got, want2)
	}
}

// TestJSONPayloadInBinaryFrameRefused: once hello switched the
// connection to binary, a frame whose payload is JSON — what binary
// frames carried before the binary codec — is answered "malformed
// request" in the binary codec, and the server hangs up without
// touching the store.
func TestJSONPayloadInBinaryFrameRefused(t *testing.T) {
	wire, refs, blobs := StripRecord(sampleRecord())
	batch, err := json.Marshal(&Request{Type: TypeBatch, ClientID: "old",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{`{"type":"ping"}`, string(batch)} {
		_, store, addr := startServer(t)
		c := dialWire(t, addr)
		c.line(`{"type":"hello","framing":"binary"}`)
		c.frame(storage.AppendFrame(nil, []byte(payload)))
		c.closed()
		want := "{\"type\":\"hello\",\"framing\":\"binary\"}\n" +
			string(storage.AppendFrame(nil, appendResponse(nil, &Response{Type: TypeError, Error: "malformed request"})))
		if string(c.got) != want {
			t.Fatalf("JSON payload %.20s… in a binary frame:\n got %q\nwant %q", payload, c.got, want)
		}
		if store.Len() != 0 || store.HasValue(refs[FieldFonts]) {
			t.Fatalf("refused payload stored %d records, or its fonts value", store.Len())
		}
	}
}

// TestClientRefusesReplyOfAnotherCodec: a binary reply whose version
// byte is not the codec's — the next version's, or a JSON payload from
// a server that predates the codec — gives the client an error, never
// a misread reply. The peer is a fake that upgrades on hello and then
// answers every frame with the scripted payload.
func TestClientRefusesReplyOfAnotherCodec(t *testing.T) {
	ok := appendResponse(nil, &Response{Type: TypeOK, Acks: []Ack{{Index: 7}}})
	for name, reply := range map[string][]byte{
		"version 2": append([]byte{wireVersion + 1}, ok[1:]...),
		"json":      []byte(`{"type":"ok","acks":[{"index":7}]}`),
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
			if _, err := br.ReadBytes('\n'); err != nil {
				return
			}
			conn.Write([]byte(`{"type":"hello","framing":"binary"}` + "\n"))
			for {
				if _, err := storage.ReadFrame(br, 0); err != nil {
					return
				}
				conn.Write(storage.AppendFrame(nil, reply))
			}
		}()
		c, err := Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if f, err := c.Negotiate(); err != nil || f != FramingBinary {
			t.Fatalf("%s: negotiate %q, %v", name, f, err)
		}
		acks, err := c.sendBatch([]BatchItem{{Record: sampleRecord(), Seq: 1}}, "c")
		if err == nil || acks != nil || c.Submitted() != 0 {
			t.Fatalf("%s: reply read as acks %+v (err %v, %d submitted), want an error", name, acks, err, c.Submitted())
		}
		if name == "version 2" && !strings.Contains(err.Error(), "version 2, want 1") {
			t.Fatalf("%s: error %q does not name the version", name, err)
		}
	}
}

// TestSmallestBatchItem: a batch item with an empty record — the epoch
// time, no strings, no fingerprint — no refs and no values encodes to
// minItemBytes, so the decoder's item-count bound refuses no real
// batch.
func TestSmallestBatchItem(t *testing.T) {
	empty := appendRequest(nil, &Request{Type: TypeBatch})
	p := appendRequest(nil, &Request{Type: TypeBatch, Batch: []BatchItem{{Record: &fingerprint.Record{Time: time.Unix(0, 0).UTC()}}}})
	if n := len(p) - len(empty); n != minItemBytes {
		t.Fatalf("smallest item encodes to %d bytes, minItemBytes is %d", n, minItemBytes)
	}
	var req Request
	if err := decodeRequest(p, &req, fingerprint.NewDecoder()); err != nil || len(req.Batch) != 1 {
		t.Fatalf("smallest item: %d items, %v", len(req.Batch), err)
	}
}
