package collector

import (
	"encoding/json"
	"sort"
	"testing"

	"fpdyn/internal/storage"
)

// FuzzServerHandle drives the collector's request decode and dispatch
// (Server.handle) with arbitrary payloads on a fresh in-memory store,
// seeded with TestWireTranscript's payloads. Properties:
//   - a payload json.Unmarshal rejects is answered TypeError "malformed
//     request" and hangs up; no other payload hangs up;
//   - a batch reply is the committed prefix of the batch plus at most
//     one error ack, last;
//   - the store grows by exactly the non-dup acks (a batch's, or the
//     submit verb's single one).
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
	seed(&Request{Type: TypeSubmit, ClientID: "c", Seq: 1, Record: sampleRecord()})
	f.Add([]byte(`{"type":"reboot"}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

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
			for i, a := range resp.Acks[:committed] {
				if a.Error != "" {
					t.Fatalf("ack %d of %d is an error (%q) before the end: %+v", i, len(resp.Acks), a.Error, resp.Acks)
				}
				if !a.Dup {
					grew++
				}
			}
		case TypeSubmit:
			if resp.Type == TypeOK && !resp.Dup {
				grew = 1
			}
		}
		if store.Len() != grew {
			t.Fatalf("store holds %d records after %d non-dup acks (reply %+v)", store.Len(), grew, resp)
		}
	})
}
