package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"testing"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/storage"
)

// FuzzServerHandle drives the collector's request decode and dispatch
// (Server.handle) with arbitrary payloads, in newline-JSON (binary
// false) or in a binary frame (binary true), on a fresh in-memory
// store. It is seeded with TestWireTranscript's payloads in both
// framings and with binary payloads that are truncated, declare counts
// larger than their bytes, or carry JSON. Properties:
//   - a payload that does not decode in its framing (json.Unmarshal, or
//     the binary codec) is answered TypeError "malformed request" and
//     hangs up; no other payload hangs up;
//   - a binary payload that decodes re-encodes to the same bytes;
//   - every reply decodes in the request's framing;
//   - a batch reply is the committed prefix of the batch plus at most
//     one error ack, last;
//   - the store grows by exactly the batch's non-dup acks;
//   - a value whose content does not hash to its key is refused: the
//     walk stops at or before the first item carrying one, and every
//     value the store holds hashes to its key.
func FuzzServerHandle(f *testing.F) {
	seed := func(req *Request) {
		payload, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, false)
	}
	wire, refs, blobs := StripRecord(sampleRecord())
	hashes := make([]string, 0, len(blobs))
	for h := range blobs {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	f.Add([]byte(`{"type":"ping"}`), false)
	f.Add([]byte(`{"type":"ping"`), false)
	f.Add([]byte(`{"type":"hello","framing":"binary"}`), false)
	seed(&Request{Type: TypeCheck, Hashes: hashes})
	seed(&Request{Type: TypeBatch, ClientID: "transcript",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}}})
	// A resent seq (dup), then an item with no record that stops the walk.
	seed(&Request{Type: TypeBatch, ClientID: "c",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}, {Record: wire, Refs: refs, Seq: 1}, {Seq: 2}, {Record: wire, Refs: refs, Seq: 3}}})
	// Refs whose values never arrived.
	seed(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: wire, Refs: refs, Seq: 1}}})
	// A record sent whole, with no refs.
	seed(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: sampleRecord(), Seq: 1}}})
	f.Add([]byte(`{"type":"reboot"}`), false)
	f.Add([]byte(``), false)
	f.Add([]byte(`null`), false)
	// A value under another value's hash: alone, after an honest item
	// that landed the real content, and with no client ID.
	forged := map[string][]byte{refs[FieldFonts]: blobs[refs[FieldPlugins]]}
	seed(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: wire, Refs: refs, Values: forged, Seq: 1}}})
	seed(&Request{Type: TypeBatch, ClientID: "c",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}, {Record: wire, Refs: refs, Values: forged, Seq: 2}}})
	seed(&Request{Type: TypeBatch, Batch: []BatchItem{{Record: wire, Refs: refs, Values: forged}}})

	// The same requests in the binary codec. An FP-less record stands
	// for the missing record, which the codec cannot carry.
	bin := func(req *Request) []byte {
		p := appendRequest(nil, req)
		f.Add(p, true)
		return p
	}
	noFP := &fingerprint.Record{UserID: "u"}
	bin(&Request{Type: TypePing})
	bin(&Request{Type: TypeHello, Framing: FramingBinary})
	check := bin(&Request{Type: TypeCheck, Hashes: hashes})
	batch := bin(&Request{Type: TypeBatch, ClientID: "transcript",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}}})
	bin(&Request{Type: TypeBatch, ClientID: "c",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}, {Record: wire, Refs: refs, Seq: 1}, {Record: noFP, Seq: 2}, {Record: wire, Refs: refs, Seq: 3}}})
	bin(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: wire, Refs: refs, Seq: 1}}})
	bin(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: sampleRecord(), Seq: 1}}})
	bin(&Request{Type: "reboot"})
	bin(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: wire, Refs: refs, Values: forged, Seq: 1}}})
	bin(&Request{Type: TypeBatch, ClientID: "c",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}, {Record: wire, Refs: refs, Values: forged, Seq: 2}}})
	// Truncated, with a trailing byte, and with counts larger than the
	// bytes that remain: hashes, items, and a value's length.
	f.Add(batch[:len(batch)/2], true)
	f.Add(append(slices.Clip(check), 0), true)
	f.Add(binary.AppendUvarint(fingerprint.AppendString([]byte{wireVersion}, TypeCheck), 1<<40), true)
	f.Add(binary.AppendUvarint(fingerprint.AppendString(fingerprint.AppendString([]byte{wireVersion}, TypeBatch), "c"), 1<<20), true)
	last := blobs[hashes[3]] // the batch's final bytes: its length, then itself
	head := batch[:len(batch)-len(last)-len(binary.AppendUvarint(nil, uint64(len(last))))]
	f.Add(binary.AppendUvarint(slices.Clip(head), 1<<16), true)
	// The JSON payload a binary frame carried before the codec, and the
	// empty payload.
	f.Add([]byte(`{"type":"ping"}`), true)
	f.Add([]byte(``), true)

	f.Fuzz(func(t *testing.T, payload []byte, binary bool) {
		store := storage.NewShardedStore(1)
		srv := NewServer(store)
		var req Request
		var decErr error
		if binary {
			decErr = decodeRequest(payload, &req, fingerprint.NewDecoder())
			if decErr == nil && !bytes.Equal(appendRequest(nil, &req), payload) {
				t.Fatalf("accepted binary request re-encodes to other bytes:\n got %q\nwant %q", appendRequest(nil, &req), payload)
			}
		} else {
			decErr = json.Unmarshal(payload, &req)
		}

		r := srv.handle(payload, binary)
		resp := new(Response)
		var err error
		if binary {
			resp, err = decodeResponse(r.Payload)
		} else {
			err = json.Unmarshal(r.Payload, resp)
		}
		if err != nil {
			t.Fatalf("reply %q does not decode: %v", r.Payload, err)
		}
		if decErr != nil {
			if resp.Type != TypeError || resp.Error != "malformed request" || r.Close == nil {
				t.Fatalf("undecodable payload (%v) answered %+v, close %v; want malformed request and a hang-up", decErr, resp, r.Close)
			}
			if store.Len() != 0 {
				t.Fatalf("undecodable payload grew the store to %d", store.Len())
			}
			return
		}
		if r.Close != nil {
			t.Fatalf("decodable payload hung up: %v (reply %+v)", r.Close, resp)
		}

		forged := func(values map[string][]byte) bool {
			for h, content := range values {
				if hashutil.SHA1HexBytes(content) != h {
					return true
				}
			}
			return false
		}
		grew := 0
		switch req.Type {
		case TypeBatch:
			if resp.Type != TypeOK {
				t.Fatalf("batch answered %+v", resp)
			}
			committed := len(resp.Acks)
			if committed > 0 && resp.Acks[committed-1].Error != "" {
				committed--
			}
			if committed > len(req.Batch) {
				t.Fatalf("%d acks committed for a %d-item batch", committed, len(req.Batch))
			}
			for i := range req.Batch[:committed] {
				if forged(req.Batch[i].Values) {
					t.Fatalf("item %d carries a value that does not match its hash, yet was committed: %+v", i, resp.Acks)
				}
			}
			for i, a := range resp.Acks[:committed] {
				if a.Error != "" {
					t.Fatalf("ack %d of %d is an error (%q) before the end: %+v", i, len(resp.Acks), a.Error, resp.Acks)
				}
				if !a.Dup {
					grew++
				}
			}
		}
		held := map[string][]byte{}
		for _, it := range req.Batch {
			for h := range it.Values {
				held[h], _ = store.Value(h)
			}
		}
		for h, content := range held {
			if content != nil && hashutil.SHA1HexBytes(content) != h {
				t.Fatalf("store holds %q under %s, which is not its hash", content, h)
			}
		}
		if store.Len() != grew {
			t.Fatalf("store holds %d records after %d non-dup acks (reply %+v)", store.Len(), grew, resp)
		}
	})
}

// FuzzDecodeResponse drives the client's binary reply decoder
// (decodeResponse) with arbitrary payloads, seeded with each reply type
// the server sends, a JSON reply and a count larger than its bytes.
// Property: a payload either fails with errMalformedPayload or decodes
// to a reply that re-encodes to the same bytes.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range []*Response{
		{Type: TypePong},
		{Type: TypeHello, Framing: FramingBinary},
		{Type: TypeNeed},
		{Type: TypeNeed, Hashes: []string{"53ad41c52dcf573f056ba410f8a239a97dc70c9d", "71a18cc6a1b5f6d2f1d5ed811017026aa3074007"}},
		{Type: TypeOK, Acks: []Ack{{Index: 0}, {Index: -1, Dup: true}, {Error: "submit without record"}}},
		{Type: TypeError, Error: "malformed request"},
	} {
		f.Add(appendResponse(nil, resp))
	}
	f.Add([]byte(`{"type":"pong"}`))
	f.Add(binary.AppendUvarint(fingerprint.AppendString([]byte{wireVersion}, TypeOK), 1<<40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := decodeResponse(payload)
		if err != nil {
			if !errors.Is(err, errMalformedPayload) {
				t.Fatalf("error %v does not wrap errMalformedPayload", err)
			}
			return
		}
		if got := appendResponse(nil, resp); !bytes.Equal(got, payload) {
			t.Fatalf("decoded reply %+v re-encodes to other bytes:\n got %q\nwant %q", resp, got, payload)
		}
	})
}
