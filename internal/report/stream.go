package report

// The out-of-core report path. The in-memory Reporter materializes the
// whole dataset plus ground truth and dynamics; StreamReporter produces
// the same core artifacts — the Summary line, the §2.3.3 estimate and
// Table 2 — from a re-streamable record source in bounded memory:
//
//	pass 1  stream records    → browser-ID union pass (browserid.StreamBuilder)
//	regroup re-stream records → external sort keyed (canonical ID, stream position)
//	analyze merged stream     → per-instance chains: diff, classify in
//	                            fixed-size parallel chunks, accumulate
//
// The regroup sort is what keeps memory flat: grouped by canonical ID,
// each instance's records arrive contiguously in time order, so the
// dynamics chain needs only the previous record and the §2.3.3 cookie
// analysis only the current instance's cookie sequence. What stays
// resident is proportional to instances/users/cookies (the union-find,
// the estimate maps), never to records.
//
// Chunk boundaries are deterministic (fixed ChunkSize over the merged
// order) and chunks are classified with the ordered parallel.Map, so
// output is byte-identical for every worker count — and equal to the
// in-memory Reporter's bytes for the same records.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fpdyn/internal/browserid"
	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/extsort"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/obs"
	"fpdyn/internal/parallel"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

// RecordIter iterates time-ordered records; ok=false ends the stream.
type RecordIter interface {
	Next() (*fingerprint.Record, bool, error)
	Close() error
}

// RecordSource opens a fresh iterator over the same record sequence.
// It must be re-openable: the ground-truth build takes two passes.
type RecordSource func() (RecordIter, error)

type sliceIter struct {
	recs []*fingerprint.Record
	i    int
}

func (it *sliceIter) Next() (*fingerprint.Record, bool, error) {
	if it.i >= len(it.recs) {
		return nil, false, nil
	}
	r := it.recs[it.i]
	it.i++
	return r, true, nil
}

func (it *sliceIter) Close() error { return nil }

// SliceSource adapts an in-memory record slice to a RecordSource — the
// legacy entry point for callers that already hold the dataset.
func SliceSource(recs []*fingerprint.Record) RecordSource {
	return func() (RecordIter, error) { return &sliceIter{recs: recs}, nil }
}

type spillIter struct{ rs *population.RecordStream }

func (it *spillIter) Next() (*fingerprint.Record, bool, error) {
	item, ok, err := it.rs.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return item.Rec, true, nil
}

func (it *spillIter) Close() error { return it.rs.Close() }

// SpillSource adapts a spilled simulation to a RecordSource.
func SpillSource(sd *population.SpilledDataset) RecordSource {
	return func() (RecordIter, error) {
		rs, err := sd.Stream()
		if err != nil {
			return nil, err
		}
		return &spillIter{rs: rs}, nil
	}
}

// StreamOptions configures the out-of-core report pipeline.
type StreamOptions struct {
	// Workers is the pool size for hashing, diffing and classifying
	// chunks (1 = serial; 0 or negative = NumCPU, via parallel.Resolve).
	// Output is identical for every value.
	Workers int
	// SpillDir hosts the regroup sort's run files (subdirectory
	// "regroup"); empty means a fresh temp directory. Removed when the
	// pipeline finishes either way.
	SpillDir string
	// ChunkSize is the number of records per parallel work chunk
	// (default 8192). It shapes memory and parallelism, never output.
	ChunkSize int
	Registry  *obs.Registry
	Timings   *obs.Timings
	// OpenFile opens regroup run files (fault-injection hook).
	OpenFile func(path string) (storage.SegmentFile, error)
}

func (o *StreamOptions) chunk() int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	return 8192
}

// StreamReporter renders the streaming-computable report sections.
type StreamReporter struct {
	w io.Writer

	records      int64
	numInstances int
	numUsers     int
	numDyns      int64
	numChanged   int64
	breakdown    *dynamics.Breakdown
	est          browserid.Rates
	multiShare   float64
}

// grouped is the regroup sort's item: a record keyed by its canonical
// browser ID and its position in the time-ordered input (the input is
// (time, serial)-sorted, so Seq preserves exactly that order within
// each group).
type grouped struct {
	ID  string
	Seq int64
	Rec *fingerprint.Record
}

// encodeGrouped is the regroup runs' item codec: the ID, Seq as a
// varint, then the record in the fingerprint binary codec.
func encodeGrouped(dst []byte, v grouped) ([]byte, error) {
	dst = fingerprint.AppendString(dst, v.ID)
	dst = binary.AppendVarint(dst, v.Seq)
	return fingerprint.AppendRecord(dst, v.Rec), nil
}

var errBadGrouped = errors.New("report: malformed regroup item")

// newGroupedDecoder returns the decoder for one merge stream; its
// fingerprint.Decoder interns strings across the stream's records.
func newGroupedDecoder() func([]byte) (grouped, error) {
	d := fingerprint.NewDecoder()
	return func(p []byte) (grouped, error) {
		var v grouped
		id, p, err := d.String(p)
		if err != nil {
			return v, err
		}
		seq, n := binary.Varint(p)
		if n <= 0 {
			return v, errBadGrouped
		}
		v.Rec = new(fingerprint.Record)
		rest, err := d.Decode(p[n:], v.Rec)
		if err != nil {
			return v, err
		}
		if len(rest) != 0 {
			return v, errBadGrouped
		}
		v.ID, v.Seq = id, seq
		return v, nil
	}
}

func groupedLess(a, b grouped) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Seq < b.Seq
}

// NewStream runs the out-of-core pipeline over src and returns a
// reporter whose Summary, Estimate and Table2 print bytes identical to
// the in-memory Reporter over the same records. images resolves canvas
// hashes for the classifier (nil-able via dynamics.MapImages(nil)).
func NewStream(src RecordSource, images dynamics.ImageProvider, w io.Writer, opts StreamOptions) (*StreamReporter, error) {
	workers := opts.Workers
	chunkSize := opts.chunk()
	r := &StreamReporter{w: w}

	var chunkGauge *obs.Gauge
	if opts.Registry != nil {
		chunkGauge = opts.Registry.Gauge("report_stream_chunk_records", "records buffered in the current processing chunk")
	}
	inFlight := func(n int) {
		if chunkGauge != nil {
			chunkGauge.SetInt(int64(n))
		}
	}

	// Pass 1: the cookie-linking union pass. Initial-ID hashing is the
	// hot part; it fans out per chunk while the owner bookkeeping stays
	// serial in stream order (the owner is the FIRST ID seen).
	stop := opts.Timings.Start("ground_truth_pass1")
	builder := browserid.NewStreamBuilder()
	chunk := make([]*fingerprint.Record, 0, chunkSize)
	flushObserve := func() {
		if len(chunk) == 0 {
			return
		}
		inFlight(len(chunk))
		ids := parallel.Map(workers, len(chunk), func(i int) string {
			return browserid.InitialID(chunk[i])
		})
		for i, rec := range chunk {
			builder.ObserveWithID(rec, ids[i])
		}
		chunk = chunk[:0]
		inFlight(0)
	}
	it, err := src()
	if err != nil {
		return nil, err
	}
	for {
		rec, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		r.records++
		chunk = append(chunk, rec)
		if len(chunk) == chunkSize {
			flushObserve()
		}
	}
	flushObserve()
	if err := it.Close(); err != nil {
		return nil, err
	}
	builder.Seal()
	stop(int(r.records))

	// Regroup: re-stream, resolve canonical IDs, spill into an external
	// sort keyed (canonical ID, stream position).
	stop = opts.Timings.Start("regroup")
	root := opts.SpillDir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "fpdyn-report-*")
		if err != nil {
			return nil, fmt.Errorf("report: spill dir: %w", err)
		}
		defer os.RemoveAll(root)
	}
	sorter, err := extsort.New(extsort.Options[grouped]{
		Dir:         filepath.Join(root, "regroup"),
		Less:        groupedLess,
		Encode:      encodeGrouped,
		NewDecoder:  newGroupedDecoder,
		MaxRunItems: chunkSize,
		OpenFile:    opts.OpenFile,
		Registry:    opts.Registry,
		Name:        "regroup",
	})
	if err != nil {
		return nil, err
	}
	defer sorter.Close()
	it, err = src()
	if err != nil {
		return nil, err
	}
	var seq int64
	gchunk := make([]*fingerprint.Record, 0, chunkSize)
	flushRegroup := func() error {
		if len(gchunk) == 0 {
			return nil
		}
		inFlight(len(gchunk))
		ids := parallel.Map(workers, len(gchunk), func(i int) string {
			return browserid.InitialID(gchunk[i])
		})
		for i, rec := range gchunk {
			// find() is a serial map walk; the expensive hash above ran
			// on the pool.
			if err := sorter.Push(grouped{ID: builder.CanonicalOf(ids[i]), Seq: seq, Rec: rec}); err != nil {
				return err
			}
			seq++
		}
		gchunk = gchunk[:0]
		inFlight(0)
		return nil
	}
	for {
		rec, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		gchunk = append(gchunk, rec)
		if len(gchunk) == chunkSize {
			if err := flushRegroup(); err != nil {
				it.Close()
				return nil, err
			}
		}
	}
	if err := flushRegroup(); err != nil {
		it.Close()
		return nil, err
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	if err := sorter.Flush(); err != nil {
		return nil, err
	}
	stop(int(r.records))

	// Analyze: walk the grouped merge. Each instance is a contiguous
	// run in time order, so the chain needs one previous record and the
	// estimate one cookie sequence at a time. Consecutive pairs are
	// diffed and classified in fixed-size parallel chunks.
	stop = opts.Timings.Start("analyze")
	merge, err := sorter.Merge()
	if err != nil {
		return nil, err
	}
	defer merge.Close()

	cl := &dynamics.Classifier{Images: images}
	acc := dynamics.NewAccumulator()
	est := browserid.NewEstimateAccumulator()

	type pair struct {
		id       string
		from, to *fingerprint.Record
	}
	pairs := make([]pair, 0, chunkSize)
	flushPairs := func() {
		if len(pairs) == 0 {
			return
		}
		inFlight(len(pairs))
		dyns := parallel.Map(workers, len(pairs), func(i int) *dynamics.Dynamics {
			p := pairs[i]
			return &dynamics.Dynamics{
				BrowserID: p.id,
				From:      p.from,
				To:        p.to,
				Delta:     diff.Diff(p.from.FP, p.to.FP),
			}
		})
		changed := dyns[:0]
		for _, d := range dyns {
			if d.CoreChanged() {
				changed = append(changed, d)
			}
		}
		r.numChanged += int64(len(changed))
		for i, c := range cl.ClassifyBatch(changed, workers) {
			acc.Add(changed[i], c)
		}
		pairs = pairs[:0]
		inFlight(0)
	}

	var curID string
	var curUser string
	var prev *fingerprint.Record
	var cookieSeq []string
	endInstance := func() {
		if curID == "" {
			return
		}
		est.AddInstance(curID, curUser, cookieSeq)
		cookieSeq = cookieSeq[:0]
		prev = nil
	}
	for {
		g, ok, err := merge.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if g.ID != curID {
			endInstance()
			curID = g.ID
			curUser = g.Rec.UserID
		}
		if g.Rec.Cookie != "" {
			cookieSeq = append(cookieSeq, g.Rec.Cookie)
		}
		if prev != nil {
			r.numDyns++
			pairs = append(pairs, pair{id: g.ID, from: prev, to: g.Rec})
			if len(pairs) == chunkSize {
				flushPairs()
			}
		}
		prev = g.Rec
	}
	endInstance()
	flushPairs()
	stop(int(r.records))

	r.numInstances = est.NumInstances()
	r.numUsers = est.NumUsers()
	r.breakdown = acc.Finish(r.numInstances)
	r.est = est.Rates()
	r.multiShare = est.MultiBrowserUserShare()
	return r, nil
}

// Summary prints the dataset header line (same bytes as Reporter).
func (r *StreamReporter) Summary() {
	renderSummary(r.w, int(r.records), r.numInstances, r.numUsers, int(r.numDyns), int(r.numChanged))
}

// Estimate prints the §2.3.3 estimation (same bytes as Reporter).
func (r *StreamReporter) Estimate() {
	renderEstimate(r.w, r.est, r.multiShare)
}

// Table2 prints the dynamics classification (same bytes as Reporter).
func (r *StreamReporter) Table2() {
	renderTable2(r.w, r.breakdown)
}

// Breakdown exposes the accumulated Table 2 quantities.
func (r *StreamReporter) Breakdown() *dynamics.Breakdown { return r.breakdown }

// NumRecords returns the streamed record count.
func (r *StreamReporter) NumRecords() int64 { return r.records }

// NumInstances returns the canonical browser-instance count.
func (r *StreamReporter) NumInstances() int { return r.numInstances }
