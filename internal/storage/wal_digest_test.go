package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// walBytesDigest pins the exact segment bytes the WAL writes for a fixed
// sequence of every kind of append: a best-effort record, a one-record
// durable batch, a batch carrying an already-applied seq, a value, a
// journal payload, a size-driven rotation and a forced one. A change to
// framing, entry encoding or rotation shows up as a new digest.
const walBytesDigest = "c3049535184f1b4b5fc772772163e4f8e126241e669339b152f6aa0cb761ffb8"

func TestWALBytesDigest(t *testing.T) {
	opts := WALOptions{Dir: t.TempDir(), Policy: SyncNever, SegmentSize: 700}
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if idx := st.Append(mkRecord(0)); idx != 0 {
		t.Fatalf("Append idx = %d", idx)
	}
	res, err := st.AppendBatchDurable([]BatchAppend{{Record: mkRecord(1), Seq: 1}}, "cid-a")
	if err != nil || len(res) != 1 || res[0] != (BatchResult{Idx: 1}) {
		t.Fatalf("one-record batch = %+v, %v", res, err)
	}
	batch := make([]BatchAppend, 5)
	for i := range batch {
		batch[i] = BatchAppend{Record: mkRecord(2 + i), Seq: uint64(1 + i)}
	}
	res, err = st.AppendBatchDurable(batch, "cid-a")
	if err != nil {
		t.Fatal(err)
	}
	want := []BatchResult{{Idx: 1, Dup: true}, {Idx: 2}, {Idx: 3}, {Idx: 4}, {Idx: 5}}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("batch result %d = %+v, want %+v", i, res[i], want[i])
		}
	}
	if err := st.PutValueDurable("h-fonts", []byte(`["Arial","Verdana"]`)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPayload([]byte(`{"op":"add","id":"e-1"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatchDurable([]BatchAppend{{Record: mkRecord(7), Seq: 6}}, "cid-a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("%d segments: the sequence should rotate by size and by force", len(segs))
	}
	h := sha256.New()
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(opts.Dir, seg.name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(seg.name + "\n"))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != walBytesDigest {
		t.Fatalf("wal bytes digest = %s over %d segments, want %s", got, len(segs), walBytesDigest)
	}
}
