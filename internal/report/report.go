// Package report renders every table and figure of the paper's
// evaluation from a sequence of record partitions. cmd/fpreport is a
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
// Each partition is a set of records closed under user ID, in time
// order: one spilled simulation batch (SpillSource) or a whole
// in-memory dataset (DatasetSource). A browser ID never spans two user
// IDs, so a partition is its own ground truth, and it is read once:
//
//	keys     decode each record's browser-ID key
//	         (fingerprint.Decoder.DecodeKey) and hash its initial ID,
//	         on the pool
//	ids      a fresh browserid.StreamBuilder observes the keys in time
//	         order, seals, and resolves every canonical ID
//	group    sort the positions by (canonical ID, position), so each
//	         instance's records are contiguous and in time order
//	analyze  per-instance chains: decode, diff and classify in
//	         fixed-size parallel chunks, then fold every record, dynamics
//	         and instance into the requested sections' accumulators
//
// A partition is held as its records' encoded bytes and IDs, never as
// decoded records: analyze decodes each chunk on the pool, one
// fingerprint.Decoder per contiguous slice of the chunk, and keeps only
// the current instance's records' summary. The accumulators persist
// across partitions, and every section's result is order-free (counts,
// sets, sorted lists), so neither the partition order nor the instance
// order shows in the output. What stays resident is one partition's
// bytes plus state proportional to instances, users and distinct values
// (the estimate maps, the sections' tallies), never to all records.
//
// The Summary line, the §2.3.3 estimate and Table 2 are always
// computed; every other section folds only when requested. Chunk
// boundaries are deterministic (fixed ChunkSize over each partition's
// grouped order) and chunks are classified with the ordered
// parallel.Map, so output is byte-identical for every worker count and
// chunk size.
package report

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/canvas"
	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/geoip"
	"fpdyn/internal/obs"
	"fpdyn/internal/parallel"
	"fpdyn/internal/population"
)

// RecordSource is a sequence of record partitions plus the dataset
// inputs some sections need: the GPU truth (Insight 1.3), the
// geolocation database (Insight 1.4) and the observation window
// (Figure 12).
type RecordSource struct {
	// parts hands fn one partition at a time, stopping at the first
	// error: the records of a set of users closed under user ID (with
	// each "-shared" second account beside its user), in time order and
	// in the fingerprint binary codec. fn may overwrite the slice's
	// elements and keeps nothing past its return.
	parts      func(fn func(raws [][]byte) error) error
	gpu        map[string]canvas.GPUInfo
	geo        *geoip.DB
	start, end time.Time
}

// DatasetSource adapts an in-memory dataset to a RecordSource of one
// partition, every record encoded afresh.
func DatasetSource(ds *population.Dataset) RecordSource {
	parts := func(fn func([][]byte) error) error {
		raws := make([][]byte, len(ds.Records))
		for i, rec := range ds.Records {
			raws[i] = fingerprint.AppendRecord(nil, rec)
		}
		return fn(raws)
	}
	return RecordSource{parts: parts, gpu: ds.GPUImageInfo, geo: ds.Geo, start: ds.Cfg.Start, end: ds.Cfg.End}
}

// SpillSource adapts a spilled simulation to a RecordSource: each
// spilled run, one batch of users, is a partition, read once and
// passed on as the bytes that were spilled.
func SpillSource(sd *population.SpilledDataset) RecordSource {
	return RecordSource{parts: sd.EachBatch, gpu: sd.GPUImageInfo, geo: sd.Geo, start: sd.Cfg.Start, end: sd.Cfg.End}
}

// StreamOptions configures the report pipeline.
type StreamOptions struct {
	// Workers is the pool size for decoding, hashing, diffing and
	// classifying (1 = serial; 0 or negative = GOMAXPROCS, via
	// parallel.Resolve). Output is identical for every value.
	Workers int
	// SpillDir is ignored: the report reads each partition once and
	// spills nothing. It stays so that existing callers still compile.
	SpillDir string
	// ChunkSize is the number of records per parallel work chunk
	// (default 8192). It shapes memory and parallelism, never output.
	ChunkSize int
	Registry  *obs.Registry
	Timings   *obs.Timings
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

	stop := opts.Timings.Start("analyze")
	partition, finish := r.walk(folds, workers, chunkSize, inFlight)
	if err := src.parts(partition); err != nil {
		return nil, err
	}
	finish()
	stop(int(r.records))
	return r, nil
}

// walk returns the analyze walk: partition folds one partition, and
// finish ends the last instance and the core accumulators.
//
// A partition's keys are decoded and its initial IDs hashed on the
// pool; the union pass runs serially in time order; sorting the
// positions by (canonical ID, position) then makes each instance a
// contiguous run in time order, so the walk holds one instance's
// state at a time. The grouped records' bytes are cut into fixed-size
// chunks; each chunk is decoded on the pool, one fingerprint.Decoder
// per contiguous slice of it, and linked to its predecessors serially. Consecutive pairs are then
// diffed and the changed ones classified in parallel; then every
// record, pair and instance of the chunk folds, in walk order, into the
// core accumulators and the requested sections' hooks.
func (r *Reporter) walk(folds []fold, workers, chunkSize int, inFlight func(int)) (partition func(raws [][]byte) error, finish func()) {
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

	// decoders[s] decodes slice s of every partition and chunk, so each
	// keeps its intern table warm; slices run one per goroutine.
	decoders := make([]*fingerprint.Decoder, parallel.Resolve(workers))
	for s := range decoders {
		decoders[s] = fingerprint.NewDecoder()
	}
	errs := make([]error, len(decoders))
	// onPool runs fn(s, i) for every i < n, slice s of [0, n) on
	// decoders[s]'s goroutine, and returns the first error.
	onPool := func(n int, fn func(s, i int) error) error {
		parallel.ForEach(workers, len(decoders), func(s int) {
			for i := s * n / len(decoders); i < (s+1)*n/len(decoders); i++ {
				if err := fn(s, i); err != nil {
					errs[s] = fmt.Errorf("report: record: %w", err)
					return
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	decode := func(d *fingerprint.Decoder, raw []byte, rec *fingerprint.Record, keyOnly bool) error {
		f := d.Decode
		if keyOnly {
			f = d.DecodeKey
		}
		rest, err := f(raw, rec)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%w: %d trailing bytes", fingerprint.ErrMalformedRecord, len(rest))
		}
		return err
	}

	// step is one grouped record: its encoded bytes, then the decoded
	// record and its instance's previous record (nil on the instance's
	// first).
	type step struct {
		id        string
		raw       []byte
		prev, rec *fingerprint.Record
	}
	steps := make([]step, 0, chunkSize)
	var curID string
	var last *fingerprint.Record
	var changed []*dynamics.Dynamics
	flush := func() error {
		if len(steps) == 0 {
			return nil
		}
		inFlight(len(steps))
		err := onPool(len(steps), func(s, i int) error {
			steps[i].rec = new(fingerprint.Record)
			return decode(decoders[s], steps[i].raw, steps[i].rec, false)
		})
		if err != nil {
			return err
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
		clear(steps)
		steps = steps[:0]
		inFlight(0)
		return nil
	}

	// key is what the union pass needs of a record; keyRecs[s] is slice
	// s's reused key-decoding target.
	type key struct{ id, user, cookie string }
	var keys []key
	var order []int
	keyRecs := make([]fingerprint.Record, len(decoders))
	partition = func(raws [][]byte) error {
		r.records += int64(len(raws))
		keys = slices.Grow(keys[:0], len(raws))[:len(raws)]
		err := onPool(len(raws), func(s, i int) error {
			rec := &keyRecs[s]
			if err := decode(decoders[s], raws[i], rec, true); err != nil {
				return err
			}
			keys[i] = key{id: browserid.InitialID(rec), user: rec.UserID, cookie: rec.Cookie}
			return nil
		})
		if err != nil {
			return err
		}
		b := browserid.NewStreamBuilder()
		var rec fingerprint.Record
		for _, k := range keys {
			rec.UserID, rec.Cookie = k.user, k.cookie
			b.ObserveWithID(&rec, k.id)
		}
		b.Seal()
		order = order[:0]
		for i := range keys {
			keys[i].id = b.CanonicalOf(keys[i].id)
			order = append(order, i)
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := strings.Compare(keys[a].id, keys[b].id); c != 0 {
				return c
			}
			return a - b
		})
		for _, i := range order {
			steps = append(steps, step{id: keys[i].id, raw: raws[i]})
			raws[i] = nil // released once its chunk is walked
			if len(steps) == chunkSize {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	}
	finish = func() {
		endInstance()
		r.est = est
		r.breakdown = acc.Finish(est.NumInstances())
	}
	return partition, finish
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
