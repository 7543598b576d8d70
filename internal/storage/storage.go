// Package storage is the data-storage backend of the measurement
// platform (Figure 1 of the paper): an append-only visit-record log
// with secondary indexes, plus the content-addressed value store that
// backs the collection protocol's hash-dedup optimization (§2.2.1 — the
// client sends only a hash when the server already holds the value, and
// the server keeps full content, which is what later lets the offline
// analysis pixel-diff canvas images).
//
// ShardedStore (sharded.go) is the store every caller builds,
// recovers, serves and exports; at one shard it is Shards: 1. Store is
// one of its shards. Both are safe for concurrent use: the collection
// server appends from many connections while analyses read snapshots.
package storage

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"fpdyn/internal/fingerprint"
)

// Store is one shard of a ShardedStore: its records in arrival order,
// their per-user index, its values and its idempotency table. The zero
// value is not usable; construct with newStore.
type Store struct {
	mu      sync.RWMutex
	records []*fingerprint.Record
	byUser  map[string][]int
	values  map[string][]byte
	// lastSeq tracks, per collection client, the highest client-assigned
	// sequence ID applied — the idempotency table that lets a
	// reconnecting client resubmit without double-appending.
	lastSeq map[string]uint64
	lastIdx map[string]int // index appended for lastSeq[cid]
	// wal is the shard's write-ahead log, nil in memory. Recovery sets
	// it before the store is shared; it never changes after.
	wal *WAL

	// compactMu serializes Compact runs without holding s.mu across the
	// snapshot write.
	compactMu sync.Mutex
}

// newStore returns an empty shard.
func newStore() *Store {
	return &Store{
		byUser:  make(map[string][]int),
		values:  make(map[string][]byte),
		lastSeq: make(map[string]uint64),
		lastIdx: make(map[string]int),
	}
}

// appendLocked applies a record to the in-memory log and indexes.
// Callers hold s.mu.
func (s *Store) appendLocked(r *fingerprint.Record) int {
	idx := len(s.records)
	s.records = append(s.records, r)
	s.byUser[r.UserID] = append(s.byUser[r.UserID], idx)
	return idx
}

// Append adds a record and returns its index. Records are expected in
// collection (time) order; the store preserves insertion order. With a
// WAL attached the append is logged best-effort, as a batch of one;
// servers that must not ACK before the record is durable use
// AppendBatchDurable instead.
func (s *Store) Append(r *fingerprint.Record) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		_ = s.wal.AppendRecordBatch([]BatchAppend{{Record: r}}, "")
	}
	return s.appendLocked(r)
}

// BatchAppend is one record of a group-committed batch append.
type BatchAppend struct {
	Record *fingerprint.Record
	Seq    uint64
}

// BatchResult is the per-record outcome of AppendBatchDurable: the
// record's index, and whether its (client ID, seq) had already been
// applied so the record was not appended again.
type BatchResult struct {
	Idx int
	Dup bool
}

// AppendBatchDurable applies a batch of records from one client with
// write-ahead durability, idempotency and a single group commit: the
// fresh (non-duplicate) records are WAL-logged in one write — one fsync
// under the always policy, however many records the batch holds — then
// applied to the in-memory log in order. A single record is a batch of
// one. Seqs must be monotonic per client, within the batch too (the
// wire protocol guarantees it). A (clientID, seq) already applied is
// not re-appended: its result is a dup carrying the original index
// when seq is the latest applied, -1 when it is older. An empty
// clientID opts out of the idempotency table. On error nothing was
// applied and none of the batch may be ACKed.
func (s *Store) AppendBatchDurable(items []BatchAppend, clientID string) ([]BatchResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	results := make([]BatchResult, len(items))
	fresh := make([]BatchAppend, 0, len(items))
	last, seen := s.lastSeq[clientID]
	for i, it := range items {
		if clientID != "" && seen && it.Seq <= last {
			// Replay of an already-applied record (a retransmission).
			results[i] = BatchResult{Idx: -1, Dup: true}
			if it.Seq == s.lastSeq[clientID] {
				results[i].Idx = s.lastIdx[clientID]
			}
			continue
		}
		fresh = append(fresh, it)
		last, seen = it.Seq, true
	}
	if s.wal != nil {
		if err := s.wal.AppendRecordBatch(fresh, clientID); err != nil {
			return nil, err
		}
	}
	for i, it := range items {
		if results[i].Dup {
			continue
		}
		idx := s.appendLocked(it.Record)
		results[i].Idx = idx
		if clientID != "" {
			s.lastSeq[clientID] = it.Seq
			s.lastIdx[clientID] = idx
		}
	}
	return results, nil
}

// LastSeq returns the highest sequence ID applied for a client, with
// ok reporting whether the client has ever appended.
func (s *Store) LastSeq(clientID string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seq, ok := s.lastSeq[clientID]
	return seq, ok
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// ByUser returns the records of one user in insertion order.
func (s *Store) ByUser(userID string) []*fingerprint.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idxs := s.byUser[userID]
	out := make([]*fingerprint.Record, len(idxs))
	for i, idx := range idxs {
		out[i] = s.records[idx]
	}
	return out
}

// HasValue reports whether the content-addressed store holds hash.
func (s *Store) HasValue(hash string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.values[hash]
	return ok
}

// PutValue stores content under its hash. Re-putting an existing hash
// is a no-op (content-addressed stores are idempotent). With a WAL
// attached the value is logged best-effort; see PutValueDurable.
func (s *Store) PutValue(hash string, content []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.values[hash]; ok {
		return
	}
	if s.wal != nil {
		_ = s.wal.AppendValue(hash, content)
	}
	s.putValueLocked(hash, content)
}

// PutValueDurable stores content under its hash with write-ahead
// durability: an error means the value was NOT accepted.
func (s *Store) PutValueDurable(hash string, content []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.values[hash]; ok {
		return nil
	}
	if s.wal != nil {
		if err := s.wal.AppendValue(hash, content); err != nil {
			return err
		}
	}
	s.putValueLocked(hash, content)
	return nil
}

func (s *Store) putValueLocked(hash string, content []byte) {
	cp := make([]byte, len(content))
	copy(cp, content)
	s.values[hash] = cp
}

// Value returns the content stored under hash.
func (s *Store) Value(hash string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.values[hash]
	return v, ok
}

// NumValues returns the number of distinct stored values.
func (s *Store) NumValues() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.values)
}

// SnapshotWriter writes the JSONL export incrementally, record by
// record, without materializing a store: ShardedStore.WriteTo writes
// through it, and so does the streaming generator, in its own record
// order (fpgen writes time order). Values (content-addressed canvas
// blobs) go first, in sorted hash order; for record-only snapshots
// just stream the records. Each line is a walEntry holding one value
// under its hash or one record, the WAL's payload shape. Close
// flushes; bufio's sticky error surfaces any earlier write failure
// there.
type SnapshotWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewSnapshotWriter wraps w in a buffered snapshot encoder.
func NewSnapshotWriter(w io.Writer) *SnapshotWriter {
	bw := bufio.NewWriterSize(w, 1<<18)
	return &SnapshotWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Value writes one content-addressed value line.
func (sw *SnapshotWriter) Value(hash string, val []byte) error {
	return sw.enc.Encode(&walEntry{Hash: hash, Value: val})
}

// Record writes one record line.
func (sw *SnapshotWriter) Record(r *fingerprint.Record) error {
	return sw.enc.Encode(&walEntry{Record: r})
}

// Close flushes the buffer (it does not close the underlying writer).
func (sw *SnapshotWriter) Close() error { return sw.bw.Flush() }

// sortedValueHashesLocked returns the value hashes in lexical order so
// every serialization of the same state is byte-identical. Callers
// hold s.mu.
func (s *Store) sortedValueHashesLocked() []string {
	hashes := make([]string, 0, len(s.values))
	for h := range s.values {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return hashes
}

// countingWriter tracks bytes actually written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countingReadFrom tracks bytes actually drawn from the source.
type countingReadFrom struct {
	r io.Reader
	n int64
}

func (cr *countingReadFrom) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// WriteFileAtomic replaces path with the bytes write produces, or
// leaves it as it was. The bytes go to path+".tmp" in the same
// directory, which is fsynced, closed and renamed over path; the
// directory is then fsynced so the rename survives a crash. On any
// failure the temporary file is removed and path keeps its previous
// contents, so a crash or a write error mid-export never destroys the
// last good export.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

// LoadFile reads an export (see ShardedStore.WriteTo) from path into a
// new one-shard store.
func LoadFile(path string) (*ShardedStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ss := NewShardedStore(1)
	if _, err := ss.ReadFrom(f); err != nil {
		return nil, err
	}
	return ss, nil
}
