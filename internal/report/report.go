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
// The pipeline makes three passes over the source:
//
//	pass 1  stream records    → browser-ID union pass (browserid.StreamBuilder)
//	regroup re-stream records → external sort keyed (canonical ID, stream position)
//	analyze merged stream     → per-instance chains: diff and classify in
//	                            fixed-size parallel chunks, then fold every
//	                            record, dynamics and instance into the
//	                            requested sections' accumulators
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
	// first error.
	each       func(fn func(*fingerprint.Record) error) error
	gpu        map[string]canvas.GPUInfo
	geo        *geoip.DB
	start, end time.Time
}

// DatasetSource adapts an in-memory dataset to a RecordSource.
func DatasetSource(ds *population.Dataset) RecordSource {
	each := func(fn func(*fingerprint.Record) error) error {
		for _, rec := range ds.Records {
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	}
	return RecordSource{each: each, gpu: ds.GPUImageInfo, geo: ds.Geo, start: ds.Cfg.Start, end: ds.Cfg.End}
}

// SpillSource adapts a spilled simulation to a RecordSource.
func SpillSource(sd *population.SpilledDataset) RecordSource {
	each := func(fn func(*fingerprint.Record) error) error {
		rs, err := sd.Stream()
		if err != nil {
			return err
		}
		defer rs.Close() // read-only run files
		for {
			item, ok, err := rs.Next()
			if err != nil || !ok {
				return err
			}
			if err := fn(item.Rec); err != nil {
				return err
			}
		}
	}
	return RecordSource{each: each, gpu: sd.GPUImageInfo, geo: sd.Geo, start: sd.Cfg.Start, end: sd.Cfg.End}
}

// chunks streams src in chunks of n records (the last may be shorter),
// with each chunk's initial browser IDs hashed on the worker pool.
func (src RecordSource) chunks(n, workers int, inFlight func(int), fn func(chunk []*fingerprint.Record, ids []string) error) error {
	chunk := make([]*fingerprint.Record, 0, n)
	flush := func() error {
		inFlight(len(chunk))
		ids := parallel.Map(workers, len(chunk), func(i int) string {
			return browserid.InitialID(chunk[i])
		})
		err := fn(chunk, ids)
		chunk = chunk[:0]
		inFlight(0)
		return err
	}
	err := src.each(func(rec *fingerprint.Record) error {
		if chunk = append(chunk, rec); len(chunk) < n {
			return nil
		}
		return flush()
	})
	if err != nil || len(chunk) == 0 {
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
	err := src.chunks(chunkSize, workers, inFlight, func(chunk []*fingerprint.Record, ids []string) error {
		for i, rec := range chunk {
			builder.ObserveWithID(rec, ids[i])
		}
		r.records += int64(len(chunk))
		return nil
	})
	if err != nil {
		return nil, err
	}
	builder.Seal()
	stop(int(r.records))

	// Regroup: re-stream, resolve canonical IDs, spill into an external
	// sort keyed (canonical ID, stream position).
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
	err = src.chunks(chunkSize, workers, inFlight, func(chunk []*fingerprint.Record, ids []string) error {
		for i, rec := range chunk {
			// find() is a serial map walk; the expensive hash ran on the
			// pool.
			if err := sorter.Push(grouped{ID: builder.CanonicalOf(ids[i]), Seq: seq, Rec: rec}); err != nil {
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
// time order, so the walk holds one instance's state at a time.
// Consecutive pairs are diffed and the changed ones classified in
// fixed-size parallel chunks; then every record, pair and instance of
// the chunk folds, in merge order, into the core accumulators and the
// requested sections' hooks.
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

	// step is one merged record; prev is its instance's previous record
	// (nil on the instance's first).
	type step struct {
		id        string
		prev, rec *fingerprint.Record
	}
	steps := make([]step, 0, chunkSize)
	var changed []*dynamics.Dynamics
	flush := func() {
		if len(steps) == 0 {
			return
		}
		inFlight(len(steps))
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
	}

	var curID string
	var prev *fingerprint.Record
	for {
		g, ok, err := merge.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if g.ID != curID {
			curID, prev = g.ID, nil
		}
		steps = append(steps, step{id: g.ID, prev: prev, rec: g.Rec})
		prev = g.Rec
		if len(steps) == chunkSize {
			flush()
		}
	}
	flush()
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
