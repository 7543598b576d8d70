package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadFrom: arbitrary snapshot bytes must never panic; valid
// prefixes load, the first malformed line errors cleanly.
func FuzzReadFrom(f *testing.F) {
	// Seed with a real snapshot.
	s := NewShardedStore(1)
	s.Append(mkRecord(1))
	s.PutValue("h", []byte("v"))
	var buf bytes.Buffer
	s.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"rec":{"t":"zzz"}}`))
	f.Add([]byte(`{"hash":"h","val":"bm90IGJhc2U2NA=="}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewShardedStore(1)
		_, _ = st.ReadFrom(bytes.NewReader(data)) // must not panic
		// Whatever loaded must be internally consistent.
		if recs := st.Records(); len(recs) != st.Len() {
			t.Fatalf("Records lists %d of %d records", len(recs), st.Len())
		}
	})
}

// writeSegmentFile plants raw bytes as segment n of dir.
func writeSegmentFile(dir string, n int, data []byte) error {
	return os.WriteFile(filepath.Join(dir, segName(n)), data, 0o644)
}

// mkSegment frames the given payloads as one valid WAL segment.
func mkSegment(payloads ...[]byte) []byte {
	var seg bytes.Buffer
	for _, p := range payloads {
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		seg.Write(hdr[:])
		seg.Write(p)
	}
	return seg.Bytes()
}

// FuzzDecodeSegment: random corruption of a (seeded-valid) WAL segment
// must yield either a clean truncation — a valid frame prefix and a
// typed error — or a checksum/size error, never a panic and never a
// frame that fails its CRC. The seed corpus holds valid segments; the
// fuzzer mutates them into corrupt ones.
func FuzzDecodeSegment(f *testing.F) {
	rec, _ := json.Marshal(walEntry{Record: mkRecord(1), CID: "cid-x", Seq: 7})
	val, _ := json.Marshal(walEntry{Hash: "aabb", Value: []byte("blob")})
	f.Add(mkSegment(rec, val, rec))
	f.Add(mkSegment(val))
	f.Add(mkSegment())
	f.Add([]byte{0, 0, 0})                  // torn header
	f.Add(mkSegment(rec)[:frameHeaderSize]) // torn payload
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded int64
		off, err := DecodeSegment(data, 0, func(payload []byte) error {
			// A payload reaching this callback passed its CRC; it must
			// also be decodable — a "bogus record" would fail here and
			// surface as a decode error, never as a stored record.
			var e walEntry
			if jerr := json.Unmarshal(payload, &e); jerr != nil {
				return jerr
			}
			decoded += frameHeaderSize + int64(len(payload))
			return nil
		})
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d out of range [0,%d]", off, len(data))
		}
		if err == nil {
			if off != int64(len(data)) || decoded != off {
				t.Fatalf("clean decode stopped early: off=%d decoded=%d len=%d", off, decoded, len(data))
			}
			return
		}
		// Invalid input: a clean truncation point — the valid prefix
		// ends exactly where decoding stopped — with a typed error (or
		// the payload callback's own decode error).
		if off != decoded {
			t.Fatalf("invalid frame at offset %d but valid prefix is %d (err %v)", off, decoded, err)
		}
	})
}

// FuzzRecoverSegment drives full recovery over a mutated single-segment
// directory: recovery must never panic, and a second recovery over the
// (possibly truncated) directory must be clean and idempotent.
func FuzzRecoverSegment(f *testing.F) {
	rec, _ := json.Marshal(walEntry{Record: mkRecord(2), CID: "cid-y", Seq: 1})
	f.Add(mkSegment(rec, rec))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeSegmentFile(dir, 1, data); err != nil {
			t.Fatal(err)
		}
		opts := WALOptions{Dir: dir, Policy: SyncNever}
		st, w, stats, err := recoverDir(opts)
		if err != nil {
			return // corrupt beyond tail repair: refused, not panicked
		}
		w.Close()
		st2, w2, stats2, err := recoverDir(opts)
		if err != nil {
			t.Fatalf("second recovery failed after repair: %v", err)
		}
		w2.Close()
		if st2.Len() != st.Len() || stats2.Truncated {
			t.Fatalf("recovery not idempotent: %d→%d records, stats=%+v→%+v",
				st.Len(), st2.Len(), stats, stats2)
		}
	})
}
