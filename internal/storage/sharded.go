// Sharded storage: N independent stores, each with its own WAL
// directory, partitioned by hash(UserID) for records and by content
// hash for values. The paper's platform ingested 7.2M fingerprints
// from ~1.5M users (§2.2); a single store serializes every append
// behind one mutex and one fsync stream. Sharding multiplies both:
// appends to different shards contend on nothing, and fsyncs spread
// across N files. ShardedStore is the one store facade: a single
// store is simply one shard, under root/shard-00.
//
// Routing by UserID keeps all of a user's records — and the relative
// order the collector accepted them in — on one shard, which is what
// makes a canonical serialization (users sorted, each user's records
// in arrival order) invariant under the shard count. Values route by
// their content hash: the hash-dedup check (§2.2.1) for a given hash
// always lands on the shard that owns it.
package storage

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/parallel"
)

// shardsMetaName is the root-dir marker recording the shard count the
// directory was created with. Reopening with a different count would
// silently misroute every key, so RecoverSharded refuses instead.
const shardsMetaName = "SHARDS"

// shardDirName formats the per-shard WAL directory name.
func shardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// shardIndex routes a key to one of n shards via FNV-1a (stable across
// processes and platforms, unlike Go's randomized map hash).
func shardIndex(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// ShardedWALOptions configures RecoverSharded. The embedded
// WALOptions apply to every shard; Dir is the root directory under
// which shard-NN subdirectories live. Each shard's metrics carry its
// own ("shard", "NN") labels on the shared registry.
type ShardedWALOptions struct {
	WALOptions
	// Shards is the number of partitions (default 1). The count is
	// sticky per directory: reopening an existing root with a
	// different count is an error.
	Shards int
	// RecoveryWorkers bounds the goroutines replaying shards on
	// recovery; <= 0 resolves to GOMAXPROCS. Replay order never affects
	// the recovered state: shards are disjoint.
	RecoveryWorkers int
}

func (o *ShardedWALOptions) shards() int {
	if o.Shards <= 0 {
		return 1
	}
	return o.Shards
}

// ShardedRecoveryStats merges per-shard recovery outcomes.
type ShardedRecoveryStats struct {
	RecoveryStats                 // totals across shards (Add semantics)
	Shards        int             // shard count recovered
	PerShard      []RecoveryStats // indexed by shard
}

// ShardedStore partitions records and values across independent
// stores (shards). It is what the collector server ingests into and
// what every export is written from.
type ShardedStore struct {
	stores []*Store
}

// NewShardedStore returns an in-memory store (no WALs) with n shards —
// the non-durable counterpart to RecoverSharded, used by tests and
// offline tooling.
func NewShardedStore(n int) *ShardedStore {
	if n <= 0 {
		n = 1
	}
	ss := &ShardedStore{stores: make([]*Store, n)}
	for i := range ss.stores {
		ss.stores[i] = newStore()
	}
	return ss
}

// checkShardsMeta enforces the sticky shard count: first open writes
// the marker, later opens must match it. A root without the marker
// that already holds segments or snapshots is a directory of the
// retired flat layout (one store's log directly in the root); it is
// refused rather than read as empty, and the error names the one-time
// migration to the one-shard layout.
func checkShardsMeta(root string, n int) error {
	path := filepath.Join(root, shardsMetaName)
	data, err := os.ReadFile(path)
	if err == nil {
		got, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil {
			return fmt.Errorf("storage: corrupt %s file: %q", shardsMetaName, data)
		}
		if got != n {
			return fmt.Errorf("storage: wal root %s was created with %d shards, reopened with %d", root, got, n)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: read %s: %w", shardsMetaName, err)
	}
	segs, err := listSegments(root)
	if err != nil {
		return err
	}
	snaps, err := listSnapshots(root)
	if err != nil {
		return err
	}
	if len(segs)+len(snaps) > 0 {
		return fmt.Errorf("storage: wal root %s holds a flat (unsharded) log and no %s file; to migrate it, move its wal-*.seg and snap-*.snap files into %s and write a %s file containing 1",
			root, shardsMetaName, filepath.Join(root, shardDirName(0)), shardsMetaName)
	}
	if err := os.WriteFile(path, []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
		return fmt.Errorf("storage: write %s: %w", shardsMetaName, err)
	}
	return fsyncDir(root)
}

// RecoverSharded replays every shard's WAL — in parallel — and
// returns the recovered store with all shard WALs attached and
// accepting appends. Shards are disjoint, so the recovered state is
// identical for any worker count; the merged stats are accumulated in
// shard order regardless of replay order.
func RecoverSharded(opts ShardedWALOptions) (*ShardedStore, ShardedRecoveryStats, error) {
	n := opts.shards()
	var stats ShardedRecoveryStats
	stats.Shards = n
	stats.PerShard = make([]RecoveryStats, n)
	if opts.Dir == "" {
		return nil, stats, errors.New("storage: sharded recovery needs a root dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("storage: wal root: %w", err)
	}
	if err := checkShardsMeta(opts.Dir, n); err != nil {
		return nil, stats, err
	}

	ss := &ShardedStore{stores: make([]*Store, n)}
	errs := make([]error, n)
	parallel.ForEach(parallel.Resolve(opts.RecoveryWorkers), n, func(i int) {
		shardOpts := opts.WALOptions
		shardOpts.Dir = filepath.Join(opts.Dir, shardDirName(i))
		shardOpts.metricLabels = []string{"shard", fmt.Sprintf("%02d", i)}
		st, rstats, err := recoverShard(shardOpts)
		if err != nil {
			errs[i] = fmt.Errorf("storage: shard %d: %w", i, err)
			return
		}
		ss.stores[i] = st
		stats.PerShard[i] = rstats
	})
	for _, err := range errs {
		if err != nil {
			// Close the shards that did open so a partial recovery
			// doesn't leak file handles and sync loops.
			ss.CloseWALs()
			return nil, stats, err
		}
	}
	for _, rs := range stats.PerShard {
		stats.RecoveryStats.Add(rs)
	}
	return ss, stats, nil
}

func (ss *ShardedStore) recordShard(userID string) *Store {
	return ss.stores[shardIndex(userID, len(ss.stores))]
}

func (ss *ShardedStore) valueShard(hash string) *Store {
	return ss.stores[shardIndex(hash, len(ss.stores))]
}

// AppendBatchDurable splits the batch by owning shard (its user's) —
// preserving each shard's arrival order — and group-commits one
// sub-batch per shard, so a batch costs one fsync per *touched shard*
// rather than one per record. Each shard's idempotency table sees a
// monotonic subsequence of each client's sequence numbers — safe
// because the resilient client submits in seq order and stops at the
// first failure, so a shard never sees seq k after a higher seq from
// the same client was rejected. A shard failure aborts with an error;
// sub-batches on earlier shards may already be durable, which is safe:
// the client retransmits the whole batch and the per-shard idempotency
// tables turn the replayed records into dups.
func (ss *ShardedStore) AppendBatchDurable(items []BatchAppend, clientID string) ([]BatchResult, error) {
	n := len(ss.stores)
	if n == 1 {
		return ss.stores[0].AppendBatchDurable(items, clientID)
	}
	perShard := make([][]BatchAppend, n)
	perIdx := make([][]int, n)
	for i, it := range items {
		sh := shardIndex(it.Record.UserID, n)
		perShard[sh] = append(perShard[sh], it)
		perIdx[sh] = append(perIdx[sh], i)
	}
	results := make([]BatchResult, len(items))
	for sh, sub := range perShard {
		if len(sub) == 0 {
			continue
		}
		res, err := ss.stores[sh].AppendBatchDurable(sub, clientID)
		if err != nil {
			return nil, fmt.Errorf("storage: shard %d: %w", sh, err)
		}
		for j, r := range res {
			results[perIdx[sh][j]] = r
		}
	}
	return results, nil
}

// Append routes a best-effort append to the record's user shard.
func (ss *ShardedStore) Append(r *fingerprint.Record) int {
	return ss.recordShard(r.UserID).Append(r)
}

// HasValue reports whether the owning shard holds hash.
func (ss *ShardedStore) HasValue(hash string) bool {
	return ss.valueShard(hash).HasValue(hash)
}

// Value returns the content stored under hash.
func (ss *ShardedStore) Value(hash string) ([]byte, bool) {
	return ss.valueShard(hash).Value(hash)
}

// PutValueDurable stores content on its owning shard.
func (ss *ShardedStore) PutValueDurable(hash string, content []byte) error {
	return ss.valueShard(hash).PutValueDurable(hash, content)
}

// PutValue stores content on its owning shard, best effort.
func (ss *ShardedStore) PutValue(hash string, content []byte) {
	ss.valueShard(hash).PutValue(hash, content)
}

// lastSeq returns the highest sequence ID applied for a client across
// all shards.
func (ss *ShardedStore) lastSeq(clientID string) (uint64, bool) {
	var best uint64
	found := false
	for _, st := range ss.stores {
		if seq, ok := st.LastSeq(clientID); ok {
			found = true
			if seq > best {
				best = seq
			}
		}
	}
	return best, found
}

// Len returns the total record count across shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, st := range ss.stores {
		n += st.Len()
	}
	return n
}

// numValues returns the total distinct value count across shards.
func (ss *ShardedStore) numValues() int {
	n := 0
	for _, st := range ss.stores {
		n += st.NumValues()
	}
	return n
}

// ByUser returns one user's records in arrival order (all on one
// shard).
func (ss *ShardedStore) ByUser(userID string) []*fingerprint.Record {
	return ss.recordShard(userID).ByUser(userID)
}

// Records returns every record in canonical order: users sorted by
// ID, each user's records in arrival order. A user's records live on
// exactly one shard, so the order is the same for any shard count
// holding the same accepted data. The slice is fresh; the records are
// shared and must be treated as immutable.
func (ss *ShardedStore) Records() []*fingerprint.Record {
	var users []string
	for _, st := range ss.stores {
		st.mu.RLock()
		for u := range st.byUser {
			users = append(users, u)
		}
		st.mu.RUnlock()
	}
	sort.Strings(users)
	out := make([]*fingerprint.Record, 0, ss.Len())
	for _, u := range users {
		out = append(out, ss.ByUser(u)...)
	}
	return out
}

// WriteTo serializes the store as JSON lines in canonical order:
// values sorted by hash across all shards, then Records. Equal
// accepted data serializes to identical bytes at any shard count —
// the property the cross-shard chaos digests assert. It implements
// io.WriterTo: the count is the number of bytes written to w.
func (ss *ShardedStore) WriteTo(w io.Writer) (int64, error) {
	var hashes []string
	for _, st := range ss.stores {
		st.mu.RLock()
		hashes = append(hashes, st.sortedValueHashesLocked()...)
		st.mu.RUnlock()
	}
	sort.Strings(hashes)
	cw := &countingWriter{w: w}
	sw := NewSnapshotWriter(cw)
	for _, h := range hashes {
		v, _ := ss.Value(h)
		if err := sw.Value(h, v); err != nil {
			return cw.n, fmt.Errorf("storage: encode value: %w", err)
		}
	}
	for _, r := range ss.Records() {
		if err := sw.Record(r); err != nil {
			return cw.n, fmt.Errorf("storage: encode record: %w", err)
		}
	}
	err := sw.Close()
	return cw.n, err
}

// ReadFrom loads JSON lines produced by WriteTo (or a SnapshotWriter),
// routing each record and value to its shard and appending to current
// contents. A value line whose content does not hash to its key is
// refused with an error naming the hash, and nothing after it is
// loaded: a stored value is shared by every record that references its
// hash. It implements io.ReaderFrom: the count is the number of bytes
// read from r (on a clean EOF, exactly what the matching WriteTo
// returned).
func (ss *ShardedStore) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReadFrom{r: r}
	dec := json.NewDecoder(bufio.NewReader(cr))
	for {
		var line walEntry
		if err := dec.Decode(&line); err == io.EOF {
			return cr.n, nil
		} else if err != nil {
			return cr.n, fmt.Errorf("storage: decode: %w", err)
		}
		switch {
		case line.Record != nil:
			ss.Append(line.Record)
		case line.Hash != "":
			if !line.valueMatchesHash() {
				return cr.n, fmt.Errorf("storage: value %s does not match its hash", line.Hash)
			}
			ss.PutValue(line.Hash, line.Value)
		}
	}
}

// SaveFile writes the canonical serialization to path atomically (see
// WriteFileAtomic).
func (ss *ShardedStore) SaveFile(path string) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		_, err := ss.WriteTo(w)
		return err
	})
}

// Compact checkpoints every shard (see Store.Compact) and merges the
// stats. Shards compact independently and in parallel; an idle shard
// writes nothing, so CoveredSeg is 0 when every shard was idle. A
// shard failure aborts with its error but leaves other shards'
// snapshots in place — compaction is idempotent, the next run covers
// them.
func (ss *ShardedStore) Compact() (CompactionStats, error) {
	n := len(ss.stores)
	stats := make([]CompactionStats, n)
	errs := make([]error, n)
	parallel.ForEach(0, n, func(i int) {
		stats[i], errs[i] = ss.stores[i].Compact()
	})
	var merged CompactionStats
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return merged, fmt.Errorf("storage: shard %d: %w", i, errs[i])
		}
		merged.Add(stats[i])
	}
	return merged, nil
}

// WALError returns the first sticky WAL error across shards, or nil.
func (ss *ShardedStore) WALError() error {
	for i, st := range ss.stores {
		if st.wal != nil {
			if err := st.wal.Err(); err != nil {
				return fmt.Errorf("storage: shard %d: %w", i, err)
			}
		}
	}
	return nil
}

// CloseWALs closes every shard's WAL, returning the first error. A
// store without WALs (NewShardedStore) has nothing to close.
func (ss *ShardedStore) CloseWALs() error {
	var first error
	for _, st := range ss.stores {
		if st != nil && st.wal != nil {
			if err := st.wal.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
