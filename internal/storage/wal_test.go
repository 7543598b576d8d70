package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpdyn/internal/faultinject"
)

// walOpts returns test options over a temp dir; SyncNever keeps the
// happy-path tests fast, the durability tests pass SyncAlways.
func walOpts(t *testing.T) WALOptions {
	t.Helper()
	return WALOptions{Dir: t.TempDir(), Policy: SyncNever}
}

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	opts := walOpts(t)
	st, w, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("fresh dir stats = %+v", stats)
	}
	for i := 0; i < 25; i++ {
		if _, _, err := appendOne(st, mkRecord(i), "cid-a", uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutValueDurable(valueKey("fonts-blob"), []byte("fonts-blob")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st2, w2, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.Records != 25 || stats.Values != 1 || stats.Truncated {
		t.Fatalf("stats = %+v", stats)
	}
	if st2.Len() != 25 || st2.NumValues() != 1 {
		t.Fatalf("recovered len=%d values=%d", st2.Len(), st2.NumValues())
	}
	// Indexes are rebuilt identically.
	if got, want := indexDigest(t, st2), indexDigest(t, st); got != want {
		t.Fatalf("recovered indexes differ:\n%s\nvs\n%s", got, want)
	}
	// The idempotency table survives recovery.
	if seq, ok := st2.LastSeq("cid-a"); !ok || seq != 25 {
		t.Fatalf("recovered lastSeq = %d, %v", seq, ok)
	}
	if _, dup, err := appendOne(st2, mkRecord(99), "cid-a", 25); err != nil || !dup {
		t.Fatalf("resubmitted seq not deduped: dup=%v err=%v", dup, err)
	}
	if st2.Len() != 25 {
		t.Fatalf("duplicate appended: len=%d", st2.Len())
	}
}

// indexDigest serializes a store's records and indexes for
// byte-identical comparison.
func indexDigest(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := enc.Encode(s.records); err != nil {
		t.Fatal(err)
	}
	if err := encodeSortedIndex(enc, s.byUser); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func encodeSortedIndex(enc *json.Encoder, idx map[string][]int) error {
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		if err := enc.Encode([]any{k, idx[k]}); err != nil {
			return err
		}
	}
	return nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	opts := walOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st.Append(mkRecord(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail frame by hand: drop the last 5 bytes, as a crash
	// mid-write would.
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	path := filepath.Join(opts.Dir, segs[0].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, w2, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if st2.Len() != 9 {
		t.Fatalf("recovered %d records, want 9 (torn frame dropped)", st2.Len())
	}
	if !stats.Truncated || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The file was physically truncated: the next recovery is clean.
	st3, w3, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	w3.Close()
	if st3.Len() != 9 || stats.Truncated {
		t.Fatalf("second recovery: len=%d stats=%+v", st3.Len(), stats)
	}
}

func TestRecoverRejectsMidLogCorruption(t *testing.T) {
	opts := walOpts(t)
	opts.SegmentSize = 256 // force several segments
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		st.Append(mkRecord(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(opts.Dir)
	if len(segs) < 3 {
		t.Fatalf("rotation produced %d segments, want >= 3", len(segs))
	}
	// Flip one payload byte in the FIRST segment: that is corruption,
	// not a crash signature, and recovery must refuse to silently drop
	// the rest of the log.
	path := filepath.Join(opts.Dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeaderSize+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := recoverDir(opts); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	opts := walOpts(t)
	opts.SegmentSize = 512
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, _, err := appendOne(st, mkRecord(i), "c", uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(opts.Dir)
	if len(segs) < 2 {
		t.Fatalf("no rotation: %d segments", len(segs))
	}
	st2, w2, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if st2.Len() != 30 || stats.Segments != len(segs) {
		t.Fatalf("recovered %d records over %d segments", st2.Len(), stats.Segments)
	}
}

func TestWALFsyncFailurePoisonsAppends(t *testing.T) {
	opts := WALOptions{
		Dir:    t.TempDir(),
		Policy: SyncAlways,
		OpenFile: func(path string) (SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, FailSyncAt: 2}, nil
		},
	}
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := appendOne(st, mkRecord(0), "c", 1); err != nil {
		t.Fatalf("first durable append: %v", err)
	}
	// The second append's fsync fails: no ACK, no in-memory append.
	if _, _, err := appendOne(st, mkRecord(1), "c", 2); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected fsync failure", err)
	}
	if st.Len() != 1 {
		t.Fatalf("record applied despite failed fsync: len=%d", st.Len())
	}
	// The failure is sticky: the log tail is in unknown state, so every
	// later append refuses too.
	if _, _, err := appendOne(st, mkRecord(2), "c", 3); !errors.Is(err, ErrWALSticky) {
		t.Fatalf("err = %v, want ErrWALSticky", err)
	}
	if seq, _ := st.LastSeq("c"); seq != 1 {
		t.Fatalf("lastSeq advanced to %d past a failed append", seq)
	}
}

func TestWALShortWritesSurfaceAsErrors(t *testing.T) {
	opts := WALOptions{
		Dir:    t.TempDir(),
		Policy: SyncNever,
		OpenFile: func(path string) (SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, Script: &faultinject.Script{ShortWrites: true}}, nil
		},
	}
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := appendOne(st, mkRecord(0), "c", 1); err == nil {
		t.Fatal("short write not surfaced")
	}
	if st.Len() != 0 {
		t.Fatal("record applied despite short write")
	}
}

func TestWALSyncIntervalPolicy(t *testing.T) {
	opts := WALOptions{Dir: t.TempDir(), Policy: SyncInterval}
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	st.Append(mkRecord(0))
	time.Sleep(syncInterval + 25*time.Millisecond) // let the background sync run
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st2, w2, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if st2.Len() != 1 {
		t.Fatalf("len = %d", st2.Len())
	}
}

func TestWALRejectsOversizedFrame(t *testing.T) {
	opts := walOpts(t)
	opts.MaxFrame = 256
	_, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendValue("h", bytes.Repeat([]byte{1}, 512)); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("err = %v, want ErrFrameSize", err)
	}
}

func TestDecodeSegmentErrors(t *testing.T) {
	// Build one valid two-frame segment in memory.
	var seg bytes.Buffer
	frames := [][]byte{[]byte(`{"hash":"a","val":"AQ=="}`), []byte(`{"hash":"b","val":"Ag=="}`)}
	for _, p := range frames {
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crcOf(p))
		seg.Write(hdr[:])
		seg.Write(p)
	}
	data := seg.Bytes()

	count := func(d []byte) (int, int64, error) {
		n := 0
		off, err := DecodeSegment(d, 0, func([]byte) error { n++; return nil })
		return n, off, err
	}

	if n, off, err := count(data); n != 2 || off != int64(len(data)) || err != nil {
		t.Fatalf("valid segment: n=%d off=%d err=%v", n, off, err)
	}
	// Torn tail: drop 3 bytes.
	if n, _, err := count(data[:len(data)-3]); n != 1 || !errors.Is(err, ErrTornFrame) {
		t.Fatalf("torn: n=%d err=%v", n, err)
	}
	// Truncated header.
	if n, off, err := count(data[:4]); n != 0 || off != 0 || !errors.Is(err, ErrTornFrame) {
		t.Fatalf("short header: n=%d off=%d err=%v", n, off, err)
	}
	// Checksum flip in the second frame.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x42
	if n, _, err := count(bad); n != 1 || !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt: n=%d err=%v", n, err)
	}
	// Implausible length header.
	big := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(big[0:4], 1<<30)
	if n, _, err := count(big); n != 0 || !errors.Is(err, ErrFrameSize) {
		t.Fatalf("oversized: n=%d err=%v", n, err)
	}
}

func crcOf(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}

// TestRecoverDropsValueNotMatchingItsHash replays a value entry whose
// content does not hash to its key, from a segment and from a
// snapshot: recovery drops it and counts it, and keeps every record
// and every honest value.
func TestRecoverDropsValueNotMatchingItsHash(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", compact), func(t *testing.T) {
			opts := walOpts(t)
			st, w, _, err := recoverDir(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := appendOne(st, mkRecord(0), "cid", 1); err != nil {
				t.Fatal(err)
			}
			forged, honest := valueKey("fonts"), valueKey("plugins")
			if err := st.PutValueDurable(forged, []byte("Comic Sans")); err != nil {
				t.Fatal(err)
			}
			if err := st.PutValueDurable(honest, []byte("plugins")); err != nil {
				t.Fatal(err)
			}
			if compact {
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st2, w2, stats, err := recoverDir(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if stats.BadValues != 1 || stats.Values+stats.SnapshotValues != 1 {
				t.Fatalf("stats = %+v, want 1 bad value and 1 good one", stats)
			}
			if st2.Len() != 1 || st2.HasValue(forged) || !st2.HasValue(honest) {
				t.Fatalf("recovered %d records, forged value kept %v, honest kept %v",
					st2.Len(), st2.HasValue(forged), st2.HasValue(honest))
			}
		})
	}
}

func TestLegacyAppendIsLoggedBestEffort(t *testing.T) {
	opts := walOpts(t)
	st, w, _, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	st.Append(mkRecord(0))
	st.PutValue(valueKey("v"), []byte("v"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st2, w2, stats, err := recoverDir(opts)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if st2.Len() != 1 || st2.NumValues() != 1 {
		t.Fatalf("len=%d values=%d stats=%+v", st2.Len(), st2.NumValues(), stats)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "Interval": SyncInterval, "NEVER": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error")
	}
	if s := fmt.Sprintf("%v/%v/%v", SyncAlways, SyncInterval, SyncNever); s != "always/interval/never" {
		t.Fatalf("String() = %s", s)
	}
}

// TestSeqIdempotentZeroAcrossRecovery: a record applied under (client,
// seq 0) keeps its idempotency row through recovery, whether the row
// is rebuilt from the log's record entry (which omits a zero seq) or
// read from a compaction snapshot, so a resend after the restart is a
// dup of the original index and is not appended again.
func TestSeqIdempotentZeroAcrossRecovery(t *testing.T) {
	for _, compact := range []bool{false, true} {
		opts := walOpts(t)
		st, w, _, err := recoverDir(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := appendOne(st, mkRecord(0), "", 0); err != nil { // no client
			t.Fatal(err)
		}
		idx, dup, err := appendOne(st, mkRecord(1), "client-z", 0)
		if err != nil || dup {
			t.Fatalf("compact=%v: first (client-z, 0): dup=%v err=%v", compact, dup, err)
		}
		if compact {
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		st2, w2, _, err := recoverDir(opts)
		if err != nil {
			t.Fatal(err)
		}
		if seq, ok := st2.LastSeq("client-z"); !ok || seq != 0 {
			t.Fatalf("compact=%v: recovered row (%d, %v), want (0, true)", compact, seq, ok)
		}
		got, dup, err := appendOne(st2, mkRecord(1), "client-z", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !dup || got != idx {
			t.Fatalf("compact=%v: resend of (client-z, 0) after recovery: idx=%d dup=%v, want dup of %d", compact, got, dup, idx)
		}
		if st2.Len() != 2 {
			t.Fatalf("compact=%v: resend appended again: len=%d, want 2", compact, st2.Len())
		}
		w2.Close()
	}
}
