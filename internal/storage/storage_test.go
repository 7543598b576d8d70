package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
)

// valueKey returns content's SHA-1 hex, its content address: recovery
// and ReadFrom keep a value only under the key its content hashes to.
func valueKey(content string) string { return hashutil.SHA1HexBytes([]byte(content)) }

func mkRecord(i int) *fingerprint.Record {
	return &fingerprint.Record{
		Time:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		UserID: fmt.Sprintf("user-%d", i%3),
		Cookie: fmt.Sprintf("ck-%d", i%5),
		FP:     &fingerprint.Fingerprint{UserAgent: fmt.Sprintf("UA-%d", i), CPUCores: 4},
	}
}

// appendOne durably appends one record as a batch of one, returning
// its index and whether its (clientID, seq) was a duplicate.
func appendOne(st interface {
	AppendBatchDurable([]BatchAppend, string) ([]BatchResult, error)
}, r *fingerprint.Record, clientID string, seq uint64) (int, bool, error) {
	res, err := st.AppendBatchDurable([]BatchAppend{{Record: r, Seq: seq}}, clientID)
	if err != nil {
		return 0, false, err
	}
	return res[0].Idx, res[0].Dup, nil
}

func TestAppendAndIndexes(t *testing.T) {
	s := newStore()
	for i := 0; i < 10; i++ {
		if got := s.Append(mkRecord(i)); got != i {
			t.Fatalf("Append returned %d, want %d", got, i)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	u := s.ByUser("user-1")
	if len(u) != 4 { // i = 1, 4, 7 -> wait: i%3==1 for 1,4,7 => 3... recompute below
		// i%3==1 for i=1,4,7 → 3 records; adjust expectation dynamically.
		t.Logf("user-1 records: %d", len(u))
	}
	want := 0
	for i := 0; i < 10; i++ {
		if i%3 == 1 {
			want++
		}
	}
	if len(u) != want {
		t.Fatalf("ByUser = %d records, want %d", len(u), want)
	}
}

func TestValueStoreDedup(t *testing.T) {
	s := newStore()
	if s.HasValue("h1") {
		t.Fatal("empty store has value")
	}
	s.PutValue("h1", []byte("content"))
	if !s.HasValue("h1") || s.NumValues() != 1 {
		t.Fatal("PutValue failed")
	}
	// Idempotent re-put with different content keeps the original
	// (content-addressed: same hash means same content by contract).
	s.PutValue("h1", []byte("other"))
	v, _ := s.Value("h1")
	if string(v) != "content" {
		t.Fatalf("value overwritten: %q", v)
	}
}

func TestPutValueCopies(t *testing.T) {
	s := newStore()
	buf := []byte("abc")
	s.PutValue("h", buf)
	buf[0] = 'X'
	v, _ := s.Value("h")
	if string(v) != "abc" {
		t.Fatal("PutValue aliased caller buffer")
	}
}

func TestRecordsSnapshotIsolated(t *testing.T) {
	s := NewShardedStore(1)
	s.Append(mkRecord(0))
	snap := s.Records()
	s.Append(mkRecord(1))
	if len(snap) != 1 {
		t.Fatal("snapshot grew after Append")
	}
}

func TestRoundTripSerialization(t *testing.T) {
	s := NewShardedStore(1)
	for i := 0; i < 25; i++ {
		s.Append(mkRecord(i))
	}
	s.PutValue(valueKey("\x01\x02\x03"), []byte{1, 2, 3})
	s.PutValue(valueKey("fonts"), []byte("fonts"))

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewShardedStore(1)
	if _, err := s2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 25 || s2.numValues() != 2 {
		t.Fatalf("round trip: %d records, %d values", s2.Len(), s2.numValues())
	}
	got, want := s2.Records(), s.Records()
	for i := 0; i < 25; i++ {
		if got[i].FP.UserAgent != want[i].FP.UserAgent {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if v, ok := s2.Value(valueKey("fonts")); !ok || string(v) != "fonts" {
		t.Fatal("value lost in round trip")
	}
	// Indexes must be rebuilt on load.
	if len(s2.ByUser("user-1")) != len(s.ByUser("user-1")) {
		t.Fatal("index not rebuilt")
	}
}

func TestReadFromGarbage(t *testing.T) {
	s := NewShardedStore(1)
	if _, err := s.ReadFrom(bytes.NewBufferString("{broken")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.jsonl")
	s := NewShardedStore(1)
	for i := 0; i < 5; i++ {
		s.Append(mkRecord(i))
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("loaded %d records", s2.Len())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	s := newStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Append(mkRecord(w*200 + i))
				s.PutValue(fmt.Sprintf("h-%d-%d", w, i%10), []byte{byte(i)})
				_ = s.Len()
				_ = s.ByUser("user-1")
				_, _ = s.Value("h-0-0")
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", s.Len())
	}
}

func BenchmarkAppend(b *testing.B) {
	s := newStore()
	r := mkRecord(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Append(r)
	}
}

func BenchmarkValueLookup(b *testing.B) {
	s := newStore()
	for i := 0; i < 10000; i++ {
		s.PutValue(fmt.Sprintf("hash-%d", i), []byte("x"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HasValue("hash-5000")
	}
}

// recoverDir recovers one shard straight from opts.Dir (the layout of
// one shard-NN directory) and returns its WAL beside it.
func recoverDir(opts WALOptions) (*Store, *WAL, RecoveryStats, error) {
	st, stats, err := recoverShard(opts)
	if err != nil {
		return nil, nil, stats, err
	}
	return st, st.wal, stats, nil
}

// oneShard wraps st as a one-shard ShardedStore, the surface that
// exports (WriteTo), loads (ReadFrom) and lists (Records) a store.
func oneShard(st *Store) *ShardedStore { return &ShardedStore{stores: []*Store{st}} }
