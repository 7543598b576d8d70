// Write-ahead log for the collection store. The paper's deployment
// survived an eight-day server outage (§2.2) because clients retried;
// the server half of that guarantee is that a record, once ACKed, is
// never lost to a crash. The WAL provides it: every Append/PutValue is
// framed, checksummed, and (per policy) fsynced to a segment file
// before the store acknowledges, and recoverShard replays the segments
// into a fresh shard on restart through ReplayJournal (journal.go),
// truncating a torn tail frame instead of failing.
//
// Frame layout (little endian):
//
//	uint32 payload length | uint32 CRC-32C of payload | payload
//
// The payload is one JSON-encoded walEntry: either a full visit record
// (with the client-assigned sequence ID that makes resubmission
// idempotent) or a content-addressed value. Segments rotate at
// SegmentSize and are named wal-NNNNNNNN.seg; recovery replays them in
// name order.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/obs"
)

// SyncPolicy selects when the WAL fsyncs its active segment.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an ACK implies the record
	// survives power loss. The durable default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker every syncInterval:
	// an ACK survives process crash but may lose the last interval to
	// power loss.
	SyncInterval
	// SyncNever leaves syncing to the OS: an ACK survives process
	// crash only. For benchmarks and tests.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag spellings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("storage: unknown fsync policy %q (want always, interval or never)", s)
}

// SegmentFile is the file surface the WAL writes through. *os.File
// satisfies it; faultinject wraps it to script write and fsync
// failures.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// WALOptions configures a WAL: ReplayJournal's and, embedded in
// ShardedWALOptions, every shard's of RecoverSharded. The zero value
// of every field has a usable default; Dir is required.
type WALOptions struct {
	// Dir is the segment directory; created if absent.
	Dir string
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SegmentSize is the rotation threshold in bytes (default 64 MiB).
	//
	// api: TestWALBytesDigest and TestRecoverStatsPinned pin segment
	// bytes and recovery stats at small sizes that force rotation.
	SegmentSize int64
	// OpenFile opens a new segment for appending; defaults to
	// os.Create. Fault-injection hooks replace it.
	//
	// api: the storage, collector and linkd tests fail segment writes
	// and fsyncs through it (faultinject.File).
	OpenFile func(path string) (SegmentFile, error)
	// Registry receives the WAL's metrics (append/fsync latency,
	// bytes written, rotations, recovery counters). Nil allocates a
	// private registry, reachable via WAL.Metrics.
	Registry *obs.Registry
	// metricLabels are constant key/value label pairs attached to every
	// metric this WAL registers. RecoverSharded sets ("shard", "NN") so
	// all shards can share one registry without colliding.
	metricLabels []string
	// maxFrame bounds a single payload (default defaultMaxFrame);
	// larger appends are rejected and larger on-disk length headers
	// are treated as corruption during recovery.
	maxFrame int
}

// defaultMaxFrame is the default bound on one frame's payload.
const defaultMaxFrame = 16 << 20

// syncInterval is the background fsync period under SyncInterval.
const syncInterval = 100 * time.Millisecond

func (o *WALOptions) segmentSize() int64 {
	if o.SegmentSize <= 0 {
		return 64 << 20
	}
	return o.SegmentSize
}

func (o *WALOptions) frameLimit() int {
	if o.maxFrame <= 0 {
		return defaultMaxFrame
	}
	return o.maxFrame
}

func (o *WALOptions) openFile(path string) (SegmentFile, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.Create(path)
}

// walEntry is the payload of one frame: exactly one of Record, Hash or
// Seqs is set. CID/Seq carry the client-assigned sequence ID alongside
// record entries so recovery rebuilds the idempotency table. Seqs only
// appears in compaction snapshots: the full per-client idempotency
// table at the snapshot cut (log replay rebuilds it incrementally from
// record entries instead).
type walEntry struct {
	Record *fingerprint.Record `json:"rec,omitempty"`
	CID    string              `json:"cid,omitempty"`
	Seq    uint64              `json:"seq,omitempty"`
	Hash   string              `json:"hash,omitempty"`
	Value  []byte              `json:"val,omitempty"`
	Seqs   map[string]seqEntry `json:"seqs,omitempty"`
}

// valueMatchesHash reports whether a value entry's content hashes to
// its key, the content address every reader of the value relies on.
func (e *walEntry) valueMatchesHash() bool {
	return hashutil.SHA1HexBytes(e.Value) == e.Hash
}

// seqEntry is one client's row of the idempotency table as persisted
// in a snapshot: the highest applied sequence ID and the record index
// it produced (so a post-recovery duplicate ACKs the original index).
type seqEntry struct {
	Seq uint64 `json:"seq"`
	Idx int    `json:"idx"`
}

// Sentinel decode errors. ErrTornFrame marks an incomplete tail (the
// expected shape after a crash mid-write); ErrChecksum marks a frame
// whose bytes are all present but do not match their CRC.
var (
	ErrTornFrame = errors.New("storage: torn wal frame")
	ErrChecksum  = errors.New("storage: wal frame checksum mismatch")
	ErrFrameSize = errors.New("storage: wal frame exceeds size bound")
	ErrWALClosed = errors.New("storage: wal is closed")
	ErrWALSticky = errors.New("storage: wal disabled after earlier write/fsync failure")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const frameHeaderSize = 8

// WAL is an append-only, checksummed, segmented log. It is safe for
// concurrent use.
type WAL struct {
	opts    WALOptions
	metrics walMetrics

	mu     sync.Mutex
	f      SegmentFile
	seg    int   // current segment number
	size   int64 // bytes written to current segment
	buf    []byte
	closed bool
	// err is sticky: after a write or fsync failure the log's tail
	// state is unknown, so every later append refuses until the
	// operator restarts and recovers. Set via setErrLocked so the
	// sticky-error gauge tracks it.
	err error

	stopSync chan struct{}
	syncDone chan struct{}
}

// walMetrics is the WAL's obs wiring: latency histograms for the two
// stable-storage operations and counters for throughput and lifecycle
// events. Updates are atomic; nothing here allocates on the append
// path.
type walMetrics struct {
	appendSeconds *obs.Histogram
	fsyncSeconds  *obs.Histogram
	fsyncFailures *obs.Counter
	bytesWritten  *obs.Counter
	appends       *obs.Counter
	rotations     *obs.Counter
	stickyError   *obs.Gauge

	compactions   *obs.Counter
	snapshotBytes *obs.Gauge

	recoveredRecords  *obs.Gauge
	recoveredValues   *obs.Gauge
	recoveredSegments *obs.Gauge
	truncatedBytes    *obs.Gauge
	snapshotRecords   *obs.Gauge
	snapshotValues    *obs.Gauge
}

func newWALMetrics(reg *obs.Registry, labels []string) walMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return walMetrics{
		appendSeconds: reg.Histogram("wal_append_seconds", "Latency of one framed append (fsync included under the always policy).", nil, labels...),
		fsyncSeconds:  reg.Histogram("wal_fsync_seconds", "Latency of one segment fsync, successful or not.", nil, labels...),
		fsyncFailures: reg.Counter("wal_fsync_failures_total", "Segment fsync calls that returned an error.", labels...),
		bytesWritten:  reg.Counter("wal_bytes_written_total", "Framed bytes written to segment files.", labels...),
		appends:       reg.Counter("wal_appends_total", "Frames appended.", labels...),
		rotations:     reg.Counter("wal_segment_rotations_total", "Segment files rotated out.", labels...),
		stickyError:   reg.Gauge("wal_sticky_error", "1 after a write/fsync failure poisoned the log.", labels...),

		compactions:   reg.Counter("wal_compactions_total", "Snapshot+truncate compactions completed.", labels...),
		snapshotBytes: reg.Gauge("wal_snapshot_bytes", "Size of the last written compaction snapshot.", labels...),

		recoveredRecords:  reg.Gauge("wal_recovered_records", "Record entries replayed from segments by the last recovery.", labels...),
		recoveredValues:   reg.Gauge("wal_recovered_values", "Value entries replayed from segments by the last recovery.", labels...),
		recoveredSegments: reg.Gauge("wal_recovered_segments", "Segment files replayed by the last recovery.", labels...),
		truncatedBytes:    reg.Gauge("wal_recovery_truncated_bytes", "Torn tail bytes truncated by the last recovery.", labels...),
		snapshotRecords:   reg.Gauge("wal_recovered_snapshot_records", "Records loaded from the compaction snapshot by the last recovery.", labels...),
		snapshotValues:    reg.Gauge("wal_recovered_snapshot_values", "Values loaded from the compaction snapshot by the last recovery.", labels...),
	}
}

// setErrLocked records the sticky error and flips the gauge. Callers
// hold w.mu.
func (w *WAL) setErrLocked(err error) {
	w.err = err
	w.metrics.stickyError.Set(1)
}

func openWALAt(opts WALOptions, seg int) (*WAL, error) {
	w := &WAL{opts: opts, seg: seg - 1, metrics: newWALMetrics(opts.Registry, opts.metricLabels)}
	if err := w.rotateLocked(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// segPattern names segment n; snapPattern (snapshot.go) names the
// snapshot covering segments 1..n.
const segPattern = "wal-%08d.seg"

// segName formats the on-disk name of segment n.
func segName(n int) string { return fmt.Sprintf(segPattern, n) }

type segRef struct {
	n    int
	name string
}

// fileNumber parses name as the file pattern names for some n.
func fileNumber(name, pattern string) (int, bool) {
	var n int
	_, err := fmt.Sscanf(name, pattern, &n)
	return n, err == nil && name == fmt.Sprintf(pattern, n)
}

// listFiles returns the files of dir that pattern names, in number
// order.
func listFiles(dir, pattern string) ([]segRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	var refs []segRef
	for _, e := range ents {
		if n, ok := fileNumber(e.Name(), pattern); ok {
			refs = append(refs, segRef{n, e.Name()})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].n < refs[j].n })
	return refs, nil
}

// listSegments returns the wal-*.seg files of dir in segment order.
func listSegments(dir string) ([]segRef, error) { return listFiles(dir, segPattern) }

// rotateLocked closes the active segment (after a final sync) and
// opens the next one. Callers hold w.mu (or own the WAL exclusively
// during construction).
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if err := w.fsyncLocked(); err != nil {
			return fmt.Errorf("storage: wal rotate sync: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("storage: wal rotate close: %w", err)
		}
		w.f = nil
		w.metrics.rotations.Inc()
	}
	w.seg++
	f, err := w.opts.openFile(filepath.Join(w.opts.Dir, segName(w.seg)))
	if err != nil {
		return fmt.Errorf("storage: wal open segment: %w", err)
	}
	w.f = f
	w.size = 0
	return nil
}

// AppendValue logs one content-addressed value.
func (w *WAL) AppendValue(hash string, content []byte) error {
	payload, err := json.Marshal(&walEntry{Hash: hash, Value: content})
	if err != nil {
		return fmt.Errorf("storage: wal encode: %w", err)
	}
	return w.write(payload)
}

// AppendRecordBatch logs a batch of records as one group commit: every
// frame goes down in a single Write and — under the always policy — a
// single fsync covers the whole batch, amortizing the durability cost
// N ways. A lone record is a batch of one. On nil the entire batch is
// on stable storage per policy; on error none of it may be ACKed (a
// multi-frame write can tear mid-batch, but recovery truncates at the
// tear and the client retransmits, so partial frames are
// indistinguishable from a crash mid-single-append).
func (w *WAL) AppendRecordBatch(items []BatchAppend, clientID string) error {
	if len(items) == 0 {
		return nil
	}
	payloads := make([][]byte, len(items))
	for i, it := range items {
		payload, err := json.Marshal(&walEntry{Record: it.Record, CID: clientID, Seq: it.Seq})
		if err != nil {
			return fmt.Errorf("storage: wal encode: %w", err)
		}
		payloads[i] = payload
	}
	return w.write(payloads...)
}

// write frames payloads and writes them to the active segment, rotating
// and syncing per policy. Every frame goes down in a single Write, so a
// crash tears at most the frames of this call. The append-latency
// observation covers the whole durable path: rotation (if due), the
// write, and the fsync under SyncAlways. It is the only routine that
// writes frames to a segment.
func (w *WAL) write(payloads ...[]byte) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	if w.err != nil {
		return fmt.Errorf("%w: %w", ErrWALSticky, w.err)
	}
	w.buf = w.buf[:0]
	for _, payload := range payloads {
		if len(payload) > w.opts.frameLimit() {
			return fmt.Errorf("%w: %d > %d bytes", ErrFrameSize, len(payload), w.opts.frameLimit())
		}
		w.buf = AppendFrame(w.buf, payload)
	}
	total := int64(len(w.buf))
	if w.size > 0 && w.size+total > w.opts.segmentSize() {
		if err := w.rotateLocked(); err != nil {
			w.setErrLocked(err)
			return err
		}
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.setErrLocked(err)
		return fmt.Errorf("storage: wal write: %w", err)
	}
	w.size += total
	w.metrics.bytesWritten.Add(total)
	w.metrics.appends.Add(int64(len(payloads)))
	if w.opts.Policy == SyncAlways {
		if err := w.fsyncLocked(); err != nil {
			w.setErrLocked(err)
			return fmt.Errorf("storage: wal fsync: %w", err)
		}
	}
	w.metrics.appendSeconds.ObserveDuration(time.Since(start))
	return nil
}

// fsyncLocked syncs the active segment, timing it into the fsync
// histogram. The latency is observed on success AND failure — the
// slowest fsyncs are the stalling or failing ones, which is exactly
// when an operator needs wal_fsync_seconds to be telling the truth —
// and failures additionally bump wal_fsync_failures_total. Callers
// hold w.mu and handle the sticky-error bookkeeping themselves
// (rotation wraps the error differently from appends).
func (w *WAL) fsyncLocked() error {
	start := time.Now()
	err := w.f.Sync()
	w.metrics.fsyncSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		w.metrics.fsyncFailures.Inc()
	}
	return err
}

// Rotate forces a segment rotation: the active segment is synced,
// closed, and a fresh one opened. It returns the new active segment
// number; every segment numbered below it is closed and will never be
// written again. Compaction rotates first so its snapshot covers a
// frozen prefix of the log.
func (w *WAL) Rotate() (active int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrWALClosed
	}
	if w.err != nil {
		return 0, fmt.Errorf("%w: %w", ErrWALSticky, w.err)
	}
	if err := w.rotateLocked(); err != nil {
		w.setErrLocked(err)
		return 0, err
	}
	return w.seg, nil
}

func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.err == nil {
				if err := w.fsyncLocked(); err != nil {
					w.setErrLocked(err)
				}
			}
			w.mu.Unlock()
		}
	}
}

// Err returns the sticky write/fsync error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Dir returns the segment directory.
func (w *WAL) Dir() string { return w.opts.Dir }

// Close performs a final sync and closes the active segment. Safe to
// call twice.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if w.err == nil {
			err = w.f.Sync()
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	stop := w.stopSync
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.syncDone
	}
	return err
}

// DecodeSegment scans the frames of one segment, invoking fn with each
// CRC-valid payload. It returns the byte offset of the first invalid
// frame and the reason (ErrTornFrame for an incomplete tail,
// ErrChecksum for a CRC mismatch, ErrFrameSize for an implausible
// length header, or fn's own error for an undecodable payload). A
// fully valid segment returns (len(data), nil). maxFrame <= 0 selects
// the default bound.
func DecodeSegment(data []byte, maxFrame int, fn func(payload []byte) error) (int64, error) {
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrame
	}
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			return off, ErrTornFrame
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxFrame {
			return off, ErrFrameSize
		}
		if len(rest) < frameHeaderSize+n {
			return off, ErrTornFrame
		}
		payload := rest[frameHeaderSize : frameHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, ErrChecksum
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += int64(frameHeaderSize + n)
	}
	return off, nil
}

// RecoveryStats summarizes one shard's recovery (and, merged, a
// RecoverSharded run); cmd/fpserver logs it as the startup banner. With compaction in play, Segments/Records/Values
// count only what was replayed from segment files — the cost that
// grows with activity since the last compaction — while the Snapshot*
// fields count the live state loaded in one pass from the snapshot.
type RecoveryStats struct {
	Segments       int   // segment files replayed (excludes those covered by the snapshot)
	Records        int   // record entries replayed from segments
	Values         int   // value entries replayed from segments
	BadValues      int   // value entries dropped, segments and snapshot alike: content does not hash to the key
	TruncatedBytes int64 // torn tail bytes dropped from the last segment
	Truncated      bool  // whether a torn tail was truncated

	SnapshotSeg     int // highest segment the loaded snapshot covers (0 = no snapshot)
	SnapshotRecords int // records loaded from the snapshot
	SnapshotValues  int // values loaded from the snapshot
}

// Add merges other into s (the per-shard → fleet aggregation).
func (s *RecoveryStats) Add(other RecoveryStats) {
	s.Segments += other.Segments
	s.Records += other.Records
	s.Values += other.Values
	s.BadValues += other.BadValues
	s.TruncatedBytes += other.TruncatedBytes
	s.Truncated = s.Truncated || other.Truncated
	if other.SnapshotSeg > 0 {
		s.SnapshotSeg = max(s.SnapshotSeg, other.SnapshotSeg)
	}
	s.SnapshotRecords += other.SnapshotRecords
	s.SnapshotValues += other.SnapshotValues
}

// recoverShard rebuilds one shard from opts.Dir through ReplayJournal,
// with a walEntry decoder: the newest compaction snapshot (if one
// exists) and the WAL segments it does not cover rebuild the records,
// the byUser and value indexes and the per-client sequence table, and
// the new WAL ReplayJournal opens (next segment number) is attached so
// subsequent appends are durable. ReplayJournal's rules hold: a torn
// tail frame of the final segment is truncated durably, any other bad
// frame — including a checksummed frame that is not a walEntry — fails
// recovery, and obsolete files are deleted best-effort.
func recoverShard(opts WALOptions) (*Store, RecoveryStats, error) {
	var stats, snap RecoveryStats
	st := newStore()
	decode := func(stats *RecoveryStats) func(payload []byte) error {
		return func(payload []byte) error {
			var e walEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return fmt.Errorf("storage: wal entry: %w", err)
			}
			st.applyEntry(&e, stats)
			return nil
		}
	}
	w, js, err := ReplayJournal(opts, decode(&snap), decode(&stats))
	if err != nil {
		return nil, stats, err
	}
	stats.Segments = js.Segments
	stats.TruncatedBytes, stats.Truncated = js.TruncatedBytes, js.Truncated
	stats.SnapshotSeg = js.SnapshotSeg
	stats.SnapshotRecords, stats.SnapshotValues = snap.Records, snap.Values
	stats.BadValues += snap.BadValues
	// ReplayJournal's gauges count frames; the store's count record and
	// value entries.
	w.metrics.recoveredRecords.SetInt(int64(stats.Records))
	w.metrics.recoveredValues.SetInt(int64(stats.Values))
	w.metrics.snapshotRecords.SetInt(int64(stats.SnapshotRecords))
	w.metrics.snapshotValues.SetInt(int64(stats.SnapshotValues))
	st.wal = w
	return st, stats, nil
}

// syncFileAndDir fsyncs path's contents and then its parent directory,
// making an in-place metadata change (truncation, rename) durable.
func syncFileAndDir(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

// fsyncDir fsyncs a directory so entry creations/removals/renames in
// it are durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// restoreSeqLocked replays one idempotency row: it takes the row when
// the client is unseen or seq is newer than its applied one. Seq 0 is
// a valid first seq, so an unseen client's row is taken even at 0.
func (s *Store) restoreSeqLocked(cid string, seq uint64, idx int) {
	if last, ok := s.lastSeq[cid]; !ok || seq > last {
		s.lastSeq[cid] = seq
		s.lastIdx[cid] = idx
	}
}

// applyEntry replays one WAL or snapshot entry into the store without
// re-logging it (recovery attaches the WAL only after replay). A value
// whose content does not hash to its key is dropped and counted in
// stats.BadValues; no record is lost, since records are stored whole,
// and the next client that references the hash is asked for it again.
func (s *Store) applyEntry(e *walEntry, stats *RecoveryStats) {
	switch {
	case e.Record != nil:
		s.mu.Lock()
		idx := s.appendLocked(e.Record)
		if e.CID != "" {
			s.restoreSeqLocked(e.CID, e.Seq, idx)
		}
		s.mu.Unlock()
		stats.Records++
	case e.Hash != "" && !e.valueMatchesHash():
		stats.BadValues++
	case e.Hash != "":
		s.mu.Lock()
		if _, ok := s.values[e.Hash]; !ok {
			s.values[e.Hash] = e.Value
		}
		s.mu.Unlock()
		stats.Values++
	case e.Seqs != nil:
		s.mu.Lock()
		for cid, se := range e.Seqs {
			s.restoreSeqLocked(cid, se.Seq, se.Idx)
		}
		s.mu.Unlock()
	}
}
