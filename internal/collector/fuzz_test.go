package collector

import (
	"encoding/json"
	"sort"
	"testing"

	"fpdyn/internal/hashutil"
	"fpdyn/internal/storage"
)

// FuzzServerHandle drives the collector's request decode and dispatch
// (Server.handle) with arbitrary payloads on a fresh in-memory store,
// seeded with TestWireTranscript's payloads. Properties:
//   - a payload json.Unmarshal rejects is answered TypeError "malformed
//     request" and hangs up; no other payload hangs up;
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
		f.Add(payload)
	}
	wire, refs, blobs := StripRecord(sampleRecord())
	hashes := make([]string, 0, len(blobs))
	for h := range blobs {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	f.Add([]byte(`{"type":"ping"}`))
	f.Add([]byte(`{"type":"ping"`))
	f.Add([]byte(`{"type":"hello","framing":"binary"}`))
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
	f.Add([]byte(`{"type":"reboot"}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	// A value under another value's hash: alone, after an honest item
	// that landed the real content, and with no client ID.
	forged := map[string][]byte{refs[FieldFonts]: blobs[refs[FieldPlugins]]}
	seed(&Request{Type: TypeBatch, ClientID: "c", Batch: []BatchItem{{Record: wire, Refs: refs, Values: forged, Seq: 1}}})
	seed(&Request{Type: TypeBatch, ClientID: "c",
		Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: 1}, {Record: wire, Refs: refs, Values: forged, Seq: 2}}})
	seed(&Request{Type: TypeBatch, Batch: []BatchItem{{Record: wire, Refs: refs, Values: forged}}})

	f.Fuzz(func(t *testing.T, payload []byte) {
		store := storage.NewShardedStore(1)
		srv := NewServer(store)
		var req Request
		decErr := json.Unmarshal(payload, &req)

		r := srv.handle(payload)
		resp, ok := r.Resp.(*Response)
		if !ok {
			t.Fatalf("reply %T, want *Response", r.Resp)
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
