// Package report renders every table and figure of the paper's
// evaluation from a re-streamable record source. cmd/fpreport is a
// thin flag wrapper over this package; keeping the rendering here makes
// each artifact regenerable (and testable) programmatically:
//
//	r, err := report.NewStream(report.DatasetSource(ds),
//		dynamics.MapImages(ds.CanvasImages), os.Stdout, report.StreamOptions{},
//		"table2", "fig12")
//	r.Summary()
//	r.Render("table2")
//	r.Render("fig12")
//
// The pipeline makes three passes over the source, and decodes each
// record in full exactly once:
//
//	pass 1  stream records    → browser-ID union pass (browserid.StreamBuilder)
//	regroup re-stream records → external sort keyed (canonical ID, stream position)
//	analyze merged stream     → per-instance chains: decode, diff and classify
//	                            in fixed-size parallel chunks, then fold every
//	                            record, dynamics and instance into the
//	                            requested sections' accumulators
//
// The source yields each record's browser-ID key beside its bytes in
// the fingerprint binary codec. A spilled source decodes only the key
// (fingerprint.Decoder.DecodeKey), on the merge goroutine, in pass 1
// and again in regroup; the initial IDs are hashed on the pool. The
// regroup sort carries the bytes unchanged, and analyze decodes them
// on the pool, one fingerprint.Decoder per contiguous slice of a chunk.
//
// The regroup sort is what keeps memory flat: grouped by canonical ID,
// each instance's records arrive contiguously in time order, so the
// walk needs only the current instance's records' summary. What stays
// resident is proportional to instances, users and distinct values (the
// union-find, the estimate maps, the sections' tallies), never to
// records.
//
// The Summary line, the §2.3.3 estimate and Table 2 are always
// computed; every other section folds only when requested. Chunk
// boundaries are deterministic (fixed ChunkSize over the merged order)
// and chunks are classified with the ordered parallel.Map, so output is
// byte-identical for every worker count and chunk size.
package report

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/canvas"
	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/extsort"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/geoip"
	"fpdyn/internal/obs"
	"fpdyn/internal/parallel"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

// RecordSource is a re-streamable time-ordered record sequence (the
// ground-truth build takes two passes) plus the dataset inputs some
// sections need: the GPU truth (Insight 1.3), the geolocation database
// (Insight 1.4) and the observation window (Figure 12).
type RecordSource struct {
	// each streams every record in time order to fn, stopping at the
	// first error: a record carrying at least the browser-ID key
	// fields (fingerprint.Decoder.DecodeKey), and the full record in
	// the fingerprint binary codec, which fn may keep.
	each       func(fn func(key *fingerprint.Record, raw []byte) error) error
	gpu        map[string]canvas.GPUInfo
	geo        *geoip.DB
	start, end time.Time
}

// DatasetSource adapts an in-memory dataset to a RecordSource. Each
// record is its own key, and is encoded afresh on every pass.
func DatasetSource(ds *population.Dataset) RecordSource {
	each := func(fn func(*fingerprint.Record, []byte) error) error {
		for _, rec := range ds.Records {
			if err := fn(rec, fingerprint.AppendRecord(nil, rec)); err != nil {
				return err
			}
		}
		return nil
	}
	return RecordSource{each: each, gpu: ds.GPUImageInfo, geo: ds.Geo, start: ds.Cfg.Start, end: ds.Cfg.End}
}

// SpillSource adapts a spilled simulation to a RecordSource: the
// spilled runs are merged with key-only decoding, and each record's
// bytes are passed on as they were read.
func SpillSource(sd *population.SpilledDataset) RecordSource {
	return RecordSource{each: sd.EachKey, gpu: sd.GPUImageInfo, geo: sd.Geo, start: sd.Cfg.Start, end: sd.Cfg.End}
}

// chunks streams src in chunks of n records (the last may be shorter):
// the records' keys and encoded bytes, with each chunk's initial
// browser IDs hashed on the worker pool.
func (src RecordSource) chunks(n, workers int, inFlight func(int), fn func(keys []*fingerprint.Record, raws [][]byte, ids []string) error) error {
	keys := make([]*fingerprint.Record, 0, n)
	raws := make([][]byte, 0, n)
	flush := func() error {
		inFlight(len(keys))
		ids := parallel.Map(workers, len(keys), func(i int) string {
			return browserid.InitialID(keys[i])
		})
		err := fn(keys, raws, ids)
		keys, raws = keys[:0], raws[:0]
		inFlight(0)
		return err
	}
	err := src.each(func(key *fingerprint.Record, raw []byte) error {
		keys, raws = append(keys, key), append(raws, raw)
		if len(keys) < n {
			return nil
		}
		return flush()
	})
	if err != nil || len(keys) == 0 {
		return err
	}
	return flush()
}

// StreamOptions configures the report pipeline.
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

// Reporter renders the report sections accumulated by NewStream.
type Reporter struct {
	w   io.Writer
	src RecordSource
	cl  *dynamics.Classifier

	records    int64
	numDyns    int64
	numChanged int64
	breakdown  *dynamics.Breakdown
	est        *browserid.EstimateAccumulator

	// renders holds the renderer of every requested section.
	renders map[string]func()
}

// instance is the analyze walk's state for the canonical browser
// instance being folded. Hooks may read it but must not retain it.
type instance struct {
	ord         int // 1-based position in walk order
	id          string
	first, last *fingerprint.Record
	visits      int
	changes     int      // core-changed dynamics so far
	cookies     []string // time-ordered non-empty cookies
}

// fold is one section: the accumulator hooks the analyze walk calls,
// and the renderer that prints the result. Nil hooks are skipped.
type fold struct {
	// record sees every record, grouped by instance in time order,
	// after the instance state counts it.
	record func(in *instance, rec *fingerprint.Record)
	// pair sees every consecutive-visit pair, changed or not.
	pair func(d *dynamics.Dynamics)
	// changed sees every core-changed pair with its classification.
	changed func(d *dynamics.Dynamics, c dynamics.Classification)
	// instance sees each instance after its last record.
	instance func(in *instance)
	render   func()
}

// grouped is the regroup sort's item: an encoded record keyed by its
// canonical browser ID and its position in the time-ordered input (the
// input is (time, serial)-sorted, so Seq preserves exactly that order
// within each group).
type grouped struct {
	ID  string
	Seq int64
	Raw []byte // the record in the fingerprint binary codec
}

// encodeGrouped is the regroup runs' item codec: the ID, Seq as a
// varint, then the record's bytes as they came.
func encodeGrouped(dst []byte, v grouped) ([]byte, error) {
	dst = fingerprint.AppendString(dst, v.ID)
	dst = binary.AppendVarint(dst, v.Seq)
	return append(dst, v.Raw...), nil
}

var errBadGrouped = errors.New("report: malformed regroup item")

// newGroupedDecoder returns the decoder for one merge stream: it
// interns the IDs and leaves the record's bytes, a slice of the frame,
// for analyze to decode.
func newGroupedDecoder() func([]byte) (grouped, error) {
	d := fingerprint.NewDecoder()
	return func(p []byte) (grouped, error) {
		id, p, err := d.String(p)
		if err != nil {
			return grouped{}, err
		}
		seq, n := binary.Varint(p)
		if n <= 0 {
			return grouped{}, errBadGrouped
		}
		return grouped{ID: id, Seq: seq, Raw: p[n:]}, nil
	}
}

func groupedLess(a, b grouped) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Seq < b.Seq
}

// NewStream runs the pipeline over src and returns a reporter that can
// render the Summary, the §2.3.3 estimate, Table 2 and every requested
// section (fpreport's -what names; see Sections). images resolves
// canvas hashes for the classifier (nil-able via
// dynamics.MapImages(nil)).
func NewStream(src RecordSource, images dynamics.ImageProvider, w io.Writer, opts StreamOptions, sections ...string) (*Reporter, error) {
	workers := opts.Workers
	chunkSize := opts.chunk()
	r := &Reporter{w: w, src: src, cl: &dynamics.Classifier{Images: images}, renders: map[string]func(){}}
	var folds []fold
	// The estimate and Table 2 are core: always computed, so always
	// renderable.
	for _, name := range append([]string{"estimate", "table2"}, sections...) {
		build, ok := sectionBuilders[name]
		if !ok {
			return nil, fmt.Errorf("report: unknown section %q", name)
		}
		if _, done := r.renders[name]; done {
			continue
		}
		f := build(r)
		r.renders[name] = f.render
		folds = append(folds, f)
	}

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
	// hot part and runs on the pool; the owner bookkeeping stays serial
	// in stream order (the owner is the FIRST ID seen).
	stop := opts.Timings.Start("ground_truth_pass1")
	builder := browserid.NewStreamBuilder()
	err := src.chunks(chunkSize, workers, inFlight, func(keys []*fingerprint.Record, _ [][]byte, ids []string) error {
		for i, key := range keys {
			builder.ObserveWithID(key, ids[i])
		}
		r.records += int64(len(keys))
		return nil
	})
	if err != nil {
		return nil, err
	}
	builder.Seal()
	stop(int(r.records))

	// Regroup: re-stream, resolve canonical IDs, spill the records'
	// bytes into an external sort keyed (canonical ID, stream position).
	stop = opts.Timings.Start("regroup")
	root := opts.SpillDir
	if root == "" {
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
	var seq int64
	err = src.chunks(chunkSize, workers, inFlight, func(_ []*fingerprint.Record, raws [][]byte, ids []string) error {
		for i, raw := range raws {
			// find() is a serial map walk; the expensive hash ran on the
			// pool.
			if err := sorter.Push(grouped{ID: builder.CanonicalOf(ids[i]), Seq: seq, Raw: raw}); err != nil {
				return err
			}
			seq++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := sorter.Flush(); err != nil {
		return nil, err
	}
	stop(int(r.records))

	stop = opts.Timings.Start("analyze")
	merge, err := sorter.Merge()
	if err != nil {
		return nil, err
	}
	defer merge.Close()
	if err := r.analyze(merge, folds, workers, chunkSize, inFlight); err != nil {
		return nil, err
	}
	stop(int(r.records))
	return r, nil
}

// analyze walks the grouped merge. Each instance is a contiguous run in
// time order, so the walk holds one instance's state at a time. The
// merge yields encoded records; each fixed-size chunk of them is
// decoded on the pool, one fingerprint.Decoder per contiguous slice of
// the chunk, and linked to its predecessors serially. Consecutive pairs
// are then diffed and the changed ones classified in parallel; then
// every record, pair and instance of the chunk folds, in merge order,
// into the core accumulators and the requested sections' hooks.
func (r *Reporter) analyze(merge *extsort.Stream[grouped], folds []fold, workers, chunkSize int, inFlight func(int)) error {
	acc := dynamics.NewAccumulator()
	est := browserid.NewEstimateAccumulator()
	var in instance
	endInstance := func() {
		if in.visits == 0 {
			return
		}
		est.AddInstance(in.id, in.first.UserID, in.cookies)
		for _, f := range folds {
			if f.instance != nil {
				f.instance(&in)
			}
		}
	}

	// step is one merged record: its encoded bytes, then the decoded
	// record and its instance's previous record (nil on the instance's
	// first).
	type step struct {
		id        string
		raw       []byte
		prev, rec *fingerprint.Record
	}
	steps := make([]step, 0, chunkSize)
	// decoders[s] decodes slice s of every chunk, so each keeps its
	// intern table warm across chunks; slices run one per goroutine.
	decoders := make([]*fingerprint.Decoder, parallel.Resolve(workers))
	for s := range decoders {
		decoders[s] = fingerprint.NewDecoder()
	}
	errs := make([]error, len(decoders))
	var curID string
	var last *fingerprint.Record
	var changed []*dynamics.Dynamics
	flush := func() error {
		if len(steps) == 0 {
			return nil
		}
		inFlight(len(steps))
		parallel.ForEach(workers, len(decoders), func(s int) {
			d := decoders[s]
			for i := s * len(steps) / len(decoders); i < (s+1)*len(steps)/len(decoders); i++ {
				rec := new(fingerprint.Record)
				rest, err := d.Decode(steps[i].raw, rec)
				if err == nil && len(rest) != 0 {
					err = errBadGrouped
				}
				if err != nil {
					errs[s] = fmt.Errorf("report: regrouped record: %w", err)
					return
				}
				steps[i].rec = rec
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for i := range steps {
			s := &steps[i]
			if s.id == curID {
				s.prev = last
			}
			curID, last = s.id, s.rec
		}
		dyns := parallel.Map(workers, len(steps), func(i int) *dynamics.Dynamics {
			s := steps[i]
			if s.prev == nil {
				return nil
			}
			return &dynamics.Dynamics{
				BrowserID: s.id,
				From:      s.prev,
				To:        s.rec,
				Delta:     diff.Diff(s.prev.FP, s.rec.FP),
			}
		})
		changed = changed[:0]
		for _, d := range dyns {
			if d != nil && d.CoreChanged() {
				changed = append(changed, d)
			}
		}
		classes := r.cl.ClassifyAll(changed, workers)
		k := 0
		for i, s := range steps {
			if s.prev == nil {
				endInstance()
				in = instance{ord: in.ord + 1, id: s.id, first: s.rec, cookies: in.cookies[:0]}
			}
			in.visits++
			in.last = s.rec
			if s.rec.Cookie != "" {
				in.cookies = append(in.cookies, s.rec.Cookie)
			}
			for _, f := range folds {
				if f.record != nil {
					f.record(&in, s.rec)
				}
			}
			d := dyns[i]
			if d == nil {
				continue
			}
			r.numDyns++
			for _, f := range folds {
				if f.pair != nil {
					f.pair(d)
				}
			}
			if k < len(changed) && changed[k] == d {
				c := classes[k]
				k++
				r.numChanged++
				in.changes++
				acc.Add(d, c)
				for _, f := range folds {
					if f.changed != nil {
						f.changed(d, c)
					}
				}
			}
		}
		steps = steps[:0]
		inFlight(0)
		return nil
	}

	for {
		g, ok, err := merge.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		steps = append(steps, step{id: g.ID, raw: g.Raw})
		if len(steps) == chunkSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	endInstance()

	r.est = est
	r.breakdown = acc.Finish(est.NumInstances())
	return nil
}

// Summary prints the dataset header line.
func (r *Reporter) Summary() {
	fmt.Fprintf(r.w, "dataset: %d fingerprints, %d browser instances, %d users, %d dynamics (%d changed)\n\n",
		r.records, r.est.NumInstances(), r.est.NumUsers(), r.numDyns, r.numChanged)
}

// Render prints one section by its fpreport -what name, followed by a
// blank line. A section that was not requested from NewStream has
// accumulated nothing, so rendering it is a caller bug and panics
// rather than print zeros.
func (r *Reporter) Render(name string) {
	render, ok := r.renders[name]
	if !ok {
		panic(fmt.Sprintf("report: section %q was not requested from NewStream", name))
	}
	render()
	fmt.Fprintln(r.w)
}
