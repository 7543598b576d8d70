// Package extsort is the out-of-core substrate of the streaming
// pipeline: presorted, CRC-framed run files and a bounded-memory k-way
// heap merge over them. The paper's dataset is 7.2M fingerprints — far
// past what the in-memory pipeline holds — so the simulator spills
// each batch's time-ordered records here as one run (WriteRun), and
// consumers read them back merged (Merge) or one run at a time
// (EachRun) instead of as slices.
//
// On-disk format: each run is a sequence of frames in the storage WAL
// framing (uint32 length | uint32 CRC-32C | payload, little endian —
// storage.AppendFrame / storage.ReadFrame), one encoded item per
// frame. A torn or corrupt frame is a hard error when read: spill
// files live for the duration of one pipeline run, so unlike the WAL
// there is no tail to truncate — losing records silently would corrupt
// every downstream statistic.
//
// Determinism: Merge yields items in exactly the order Less defines,
// with ties broken by run index (earlier run wins). Pipelines that need
// byte-identical output across partitionings must use a total order
// (the record streams key on (time, serial), which is unique).
package extsort

import (
	"bufio"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// Options configures a Sorter. Less, Encode and NewDecoder are required;
// the zero value of everything else has a usable default.
type Options[T any] struct {
	// Dir is the spill directory; created if absent. Required.
	Dir string
	// Less is the sort order. It must be a total order for the merged
	// stream to be independent of how items were partitioned into runs.
	Less func(a, b T) bool
	// Encode appends the encoding of v to dst and returns the extended
	// slice (the append-style contract avoids per-item allocations).
	Encode func(dst []byte, v T) ([]byte, error)
	// NewDecoder returns the decode function for one merge stream. Each
	// Merge calls it once, so a decoder may carry state across the
	// stream's items (a string intern table) without locking. Every
	// frame is read into a fresh payload slice, so a decoder may keep
	// its payload (or a slice of it) in the item it returns.
	NewDecoder func() func(payload []byte) (T, error)
	// OpenFile opens a new run file for writing; defaults to os.Create.
	// Fault-injection hooks replace it to script write failures.
	OpenFile func(path string) (storage.SegmentFile, error)
	// Registry receives the sorter's metrics (runs, spilled bytes,
	// items, merge heap size). Nil disables.
	Registry *obs.Registry
	// Name labels this sorter's metrics (the "sort" label value), so
	// several sorters can share one registry.
	Name string
}

func (o *Options[T]) openFile(path string) (storage.SegmentFile, error) {
	if o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.Create(path)
}

// Sorter spills sorted runs and merges them back as a bounded-memory
// stream. Not safe for concurrent use: the
// pipeline stages that feed it are the ordered, single-consumer ends
// of the worker pools.
type Sorter[T any] struct {
	opts Options[T]

	runs    []string
	spilled int64
	scratch []byte
	frozen  bool // set once Merge has been called; no more writes

	mRuns  *obs.Counter
	mBytes *obs.Counter
	mItems *obs.Counter
	mHeap  *obs.Gauge
}

// New creates a Sorter spilling under opts.Dir.
func New[T any](opts Options[T]) (*Sorter[T], error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("extsort: Dir is required")
	}
	if opts.Less == nil || opts.Encode == nil || opts.NewDecoder == nil {
		return nil, fmt.Errorf("extsort: Less, Encode and NewDecoder are required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("extsort: %w", err)
	}
	s := &Sorter[T]{opts: opts}
	if reg := opts.Registry; reg != nil {
		labels := []string{"sort", opts.Name}
		s.mRuns = reg.Counter("extsort_runs_total", "spill run files written", labels...)
		s.mBytes = reg.Counter("extsort_spilled_bytes_total", "bytes spilled to run files", labels...)
		s.mItems = reg.Counter("extsort_items_total", "items written into runs", labels...)
		s.mHeap = reg.Gauge("extsort_merge_heap_size", "run heads live in the merge heap", labels...)
	}
	return s, nil
}

// WriteRun spills one already-sorted run. The items must be in Less
// order; the merge relies on it. Callers produce naturally sorted
// batches (the simulator's per-batch timelines) and write each as a
// run.
func (s *Sorter[T]) WriteRun(items []T) error {
	if s.frozen {
		return fmt.Errorf("extsort: write after merge")
	}
	if len(items) == 0 {
		return nil
	}
	path := filepath.Join(s.opts.Dir, fmt.Sprintf("run-%06d.seg", len(s.runs)))
	f, err := s.opts.openFile(path)
	if err != nil {
		return fmt.Errorf("extsort: open run: %w", err)
	}
	bw := bufio.NewWriterSize(writerOnly{f}, 1<<18)
	var written int64
	var frame []byte
	for _, v := range items {
		s.scratch, err = s.opts.Encode(s.scratch[:0], v)
		if err != nil {
			f.Close()
			return fmt.Errorf("extsort: encode: %w", err)
		}
		frame = storage.AppendFrame(frame[:0], s.scratch)
		if _, err := bw.Write(frame); err != nil {
			f.Close()
			return fmt.Errorf("extsort: write run: %w", err)
		}
		written += int64(len(frame))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("extsort: write run: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("extsort: close run: %w", err)
	}
	s.runs = append(s.runs, path)
	s.spilled += written
	if s.mRuns != nil {
		s.mRuns.Inc()
		s.mBytes.Add(written)
		s.mItems.Add(int64(len(items)))
	}
	return nil
}

// Runs returns the number of spilled run files.
func (s *Sorter[T]) Runs() int { return len(s.runs) }

// SpilledBytes returns the total bytes written to run files.
func (s *Sorter[T]) SpilledBytes() int64 { return s.spilled }

// Merge returns a stream yielding every spilled item in Less order.
// Merge may be called repeatedly — each call re-opens the run files and
// replays the same merged sequence. After the first Merge or EachRun
// the sorter is frozen: no further WriteRun.
func (s *Sorter[T]) Merge() (*Stream[T], error) {
	s.frozen = true
	st := &Stream[T]{s: s}
	decode := s.opts.NewDecoder()
	for i, path := range s.runs {
		r, err := openRun(path, i, decode, s.opts.Less)
		if err != nil {
			st.Close()
			return nil, err
		}
		ok, err := r.advance()
		if err != nil {
			st.Close()
			r.f.Close()
			return nil, err
		}
		if ok {
			st.h = append(st.h, r)
		} else {
			r.f.Close()
		}
	}
	heap.Init(&st.h)
	if s.mHeap != nil {
		s.mHeap.SetInt(int64(len(st.h)))
	}
	return st, nil
}

// EachRun hands fn the encoded items of one run at a time, in run
// order and each run in written order, unmerged: for consumers whose
// runs are each closed under the key they group by. Every payload is
// a fresh slice; after fn returns, EachRun drops the run, so only one
// run's bytes stay resident unless fn keeps them. A torn or corrupt
// frame is an error naming the run. EachRun freezes the sorter as
// Merge does and may be called repeatedly.
func (s *Sorter[T]) EachRun(fn func(payloads [][]byte) error) error {
	s.frozen = true
	var run [][]byte
	for i, path := range s.runs {
		r, err := openRun(path, i, func(p []byte) ([]byte, error) { return p, nil }, nil)
		if err != nil {
			return err
		}
		for {
			ok, err := r.advance()
			if err != nil {
				r.f.Close()
				return err
			}
			if !ok {
				break
			}
			run = append(run, r.cur)
		}
		r.f.Close()
		err = fn(run)
		clear(run)
		run = run[:0]
		if err != nil {
			return err
		}
	}
	return nil
}

// Close removes the spill directory and every run file. The sorter is
// unusable afterwards.
func (s *Sorter[T]) Close() error {
	s.frozen = true
	return os.RemoveAll(s.opts.Dir)
}

// writerOnly narrows a SegmentFile to io.Writer for bufio (SegmentFile
// has Close, which bufio must not see).
type writerOnly struct{ f storage.SegmentFile }

func (w writerOnly) Write(p []byte) (int, error) { return w.f.Write(p) }

// runReader is one run's read head: the current decoded item plus the
// buffered file reader behind it. The heads of one Stream share its
// decoder and order by less.
type runReader[T any] struct {
	path   string
	f      *os.File
	br     *bufio.Reader
	idx    int
	decode func(payload []byte) (T, error)
	less   func(a, b T) bool
	cur    T
	off    int64 // start of the next frame
}

func openRun[T any](path string, idx int, decode func([]byte) (T, error), less func(a, b T) bool) (*runReader[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run: %w", err)
	}
	return &runReader[T]{path: path, f: f, br: bufio.NewReaderSize(f, 1<<18),
		idx: idx, decode: decode, less: less}, nil
}

// advance reads and decodes the next frame, bounded by the storage
// WAL's frame limit. ok=false on a clean EOF at a frame boundary; torn,
// corrupt, oversized or undecodable frames are hard errors naming the
// run file and the frame's start offset.
func (r *runReader[T]) advance() (ok bool, err error) {
	payload, err := storage.ReadFrame(r.br, 0)
	if err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, storage.ErrTornFrame) {
			return false, nil
		}
		return false, fmt.Errorf("extsort: run %s at byte %d: %w", filepath.Base(r.path), r.off, err)
	}
	v, err := r.decode(payload)
	if err != nil {
		return false, fmt.Errorf("extsort: run %s at byte %d: decode: %w", filepath.Base(r.path), r.off, err)
	}
	r.off += int64(len(payload)) + 8
	r.cur = v
	return true, nil
}

// Stream is a bounded-memory merged iterator over the spilled runs: one
// decoded item and one buffered reader per run, independent of the
// total item count.
type Stream[T any] struct {
	s      *Sorter[T]
	h      mergeHeap[T]
	closed bool
}

// Next returns the next item in merge order. ok=false when the stream
// is exhausted. After an error the stream is poisoned: every later
// call returns the same error.
func (st *Stream[T]) Next() (v T, ok bool, err error) {
	if len(st.h) == 0 {
		return v, false, nil
	}
	top := st.h[0]
	v = top.cur
	more, err := top.advance()
	if err != nil {
		st.Close()
		return v, false, err
	}
	if more {
		heap.Fix(&st.h, 0)
	} else {
		heap.Pop(&st.h)
		top.f.Close()
	}
	if st.s.mHeap != nil {
		st.s.mHeap.SetInt(int64(len(st.h)))
	}
	return v, true, nil
}

// Close releases the remaining run readers. Safe to call twice; the
// run files themselves stay until Sorter.Close so Merge can re-stream.
func (st *Stream[T]) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	for _, r := range st.h {
		r.f.Close()
	}
	st.h = nil
	return nil
}

// mergeHeap orders run heads by Less on their current item, ties broken
// by run index so the merged order is stable and deterministic.
type mergeHeap[T any] []*runReader[T]

func (h mergeHeap[T]) Len() int { return len(h) }
func (h mergeHeap[T]) Less(i, j int) bool {
	if h[i].less(h[i].cur, h[j].cur) {
		return true
	}
	if h[i].less(h[j].cur, h[i].cur) {
		return false
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap[T]) Push(x any)   { *h = append(*h, x.(*runReader[T])) }
func (h *mergeHeap[T]) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
