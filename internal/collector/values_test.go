package collector

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpdyn/internal/hashutil"
	"fpdyn/internal/storage"
)

// handleBatch sends one TypeBatch request through the server's binary
// decode and dispatch, as a binary-framed connection would, and
// returns its acks.
func handleBatch(t *testing.T, srv *Server, clientID string, items ...BatchItem) []Ack {
	t.Helper()
	r := srv.handle(appendRequest(nil, &Request{Type: TypeBatch, ClientID: clientID, Batch: items}), true)
	resp, err := decodeResponse(r.Payload)
	if err != nil || resp.Type != TypeOK || r.Close != nil {
		t.Fatalf("batch answered %+v, %v; close %v", resp, err, r.Close)
	}
	return resp.Acks
}

// TestServerRefusesValueNotMatchingHash: a value whose content does not
// hash to its key is refused with an error ack that stops the walk, is
// not stored, and so cannot corrupt a later record that names the hash.
func TestServerRefusesValueNotMatchingHash(t *testing.T) {
	store := storage.NewShardedStore(1)
	srv := NewServer(store)
	wire, refs, blobs := StripRecord(sampleRecord())
	hf := refs[FieldFonts]
	forged := make(map[string][]byte, len(blobs))
	for h, b := range blobs {
		forged[h] = b
	}
	forged[hf] = encodeList([]string{"Comic Sans MS"})

	acks := handleBatch(t, srv, "forger", BatchItem{Record: wire, Refs: refs, Values: forged, Seq: 1}, BatchItem{Record: wire, Refs: refs, Seq: 2})
	want := "value " + hf + " does not match its hash"
	if len(acks) != 1 || acks[0].Error != want {
		t.Fatalf("acks = %+v, want one error ack %q", acks, want)
	}
	if store.Len() != 0 || store.HasValue(hf) {
		t.Fatalf("forged item landed: %d records, value held %v", store.Len(), store.HasValue(hf))
	}

	rec := sampleRecord()
	wire, refs, blobs = StripRecord(rec)
	if acks := handleBatch(t, srv, "honest", BatchItem{Record: wire, Refs: refs, Values: blobs, Seq: 1}); len(acks) != 1 || acks[0].Error != "" {
		t.Fatalf("honest acks = %+v", acks)
	}
	if got := store.Records()[0]; !got.FP.Equal(rec.FP) {
		t.Fatalf("stored fonts %v, want %v", got.FP.Fonts, rec.FP.Fonts)
	}
}

// TestIngestValuesLandInHashOrder: one batch item carrying four new
// values writes the same segment bytes on every replay into a fresh
// store, so the values' WAL frames do not follow map order.
func TestIngestValuesLandInHashOrder(t *testing.T) {
	wire, refs, blobs := StripRecord(sampleRecord())
	if len(blobs) != 4 {
		t.Fatalf("sample record has %d distinct values, want 4", len(blobs))
	}
	var first []byte
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		store, _, err := storage.RecoverSharded(storage.ShardedWALOptions{
			WALOptions: storage.WALOptions{Dir: dir, Policy: storage.SyncNever}, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		acks := handleBatch(t, NewServer(store), "c", BatchItem{Record: wire, Refs: refs, Values: blobs, Seq: 1})
		if len(acks) != 1 || acks[0].Error != "" {
			t.Fatalf("acks = %+v", acks)
		}
		if err := store.CloseWALs(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "shard-00", "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments %v, %v", segs, err)
		}
		sort.Strings(segs)
		var got []byte
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, filepath.Base(seg)...)
			got = append(got, data...)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("replay %d wrote different segment bytes", i)
		}
	}
}

// TestRestoreSharesListsSafely: two records restored from the same
// hashes have equal lists, and appending to one record's list leaves
// the other's unchanged.
func TestRestoreSharesListsSafely(t *testing.T) {
	store := storage.NewShardedStore(1)
	srv := NewServer(store)
	rec := sampleRecord()
	wire, refs, blobs := StripRecord(rec)
	acks := handleBatch(t, srv, "c", BatchItem{Record: wire, Refs: refs, Values: blobs, Seq: 1}, BatchItem{Record: wire, Refs: refs, Seq: 2})
	if len(acks) != 2 || acks[0].Error != "" || acks[1].Error != "" {
		t.Fatalf("acks = %+v", acks)
	}
	recs := store.Records()
	a, b := recs[0].FP, recs[1].FP
	if !a.Equal(rec.FP) || !b.Equal(rec.FP) {
		t.Fatal("restored records differ from the source")
	}
	a.Fonts = append(a.Fonts, "Wingdings")
	a.Plugins = append(a.Plugins, "Flash")
	if !b.Equal(rec.FP) {
		t.Fatalf("appending to one record changed the other: fonts %v plugins %v", b.Fonts, b.Plugins)
	}
}

// TestRestoreUndecodableValue: a blob whose hash is right but whose
// content is not a list fails every record that names it with the same
// error, request after request.
func TestRestoreUndecodableValue(t *testing.T) {
	store := storage.NewShardedStore(1)
	srv := NewServer(store)
	wire, refs, blobs := StripRecord(sampleRecord())
	bad := []byte(`{"not":"a list"}`)
	hb := hashutil.SHA1HexBytes(bad)
	refs[FieldFonts] = hb
	blobs[hb] = bad

	var errs []string
	for seq := uint64(1); seq <= 3; seq++ {
		acks := handleBatch(t, srv, "c", BatchItem{Record: wire, Refs: refs, Values: blobs, Seq: seq})
		if len(acks) != 1 || !strings.Contains(acks[0].Error, "bad list value") {
			t.Fatalf("request %d acks = %+v, want a bad-list-value error", seq, acks)
		}
		errs = append(errs, acks[0].Error)
	}
	if errs[1] != errs[0] || errs[2] != errs[0] {
		t.Fatalf("errors differ across requests: %q", errs)
	}
	if store.Len() != 0 {
		t.Fatalf("%d records stored from an undecodable value", store.Len())
	}
}
