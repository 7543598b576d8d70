package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/report"
)

// The pipeline workload: population.SimulateSpill → report.NewStream
// over the spilled runs → Summary, Estimate and Table2, on every core.
// The memory budget and chunk size sit well below the data, so the
// simulate sort and the regroup sort both spill several runs.
const (
	pipelineUsers     = 4000
	pipelineMemBudget = 6 << 20
	pipelineChunk     = 2048
	pipelineWarmUsers = 800
)

// pipelineIter is one pass of the pipeline.
type pipelineIter struct {
	digest         string
	records        int
	wall           time.Duration
	stages         map[string]time.Duration // obs.Timings stages
	spilledBytes   int64
	runs           int64
	allocBytes     uint64
	t0, t1, t2, t3 time.Time
	top1           float64 // browser-ID linking accuracy, when measured
	pass, observe  time.Duration
	encode, decode time.Duration
}

func pipelineConfig(users int, seed int64) population.Config {
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	cfg.Workers = -1
	return cfg
}

// pipelineOnce runs the pipeline once. With probe set it also measures,
// on the same spilled dataset before it is removed, a bare pass over
// the spilled stream, the record codec over the same records, the
// browser-ID observe pass, and linking accuracy against the
// simulator's ground truth.
func pipelineOnce(dir string, users int, seed int64, probe bool) (*pipelineIter, error) {
	it := &pipelineIter{stages: map[string]time.Duration{}}
	reg := obs.NewRegistry()
	tm := &obs.Timings{}
	m0 := memSample()
	it.t0 = time.Now()
	sd, err := population.SimulateSpill(pipelineConfig(users, seed), population.StreamOptions{
		SpillDir: dir, MemBudget: pipelineMemBudget, Registry: reg, Timings: tm,
	})
	if err != nil {
		return nil, err
	}
	defer sd.Close()
	it.t1 = time.Now()
	it.allocBytes = memSince(m0).allocBytes
	var out bytes.Buffer
	sr, err := report.NewStream(report.SpillSource(sd), dynamics.MapImages(sd.CanvasImages), &out,
		report.StreamOptions{Workers: -1, SpillDir: sd.SpillRoot(), ChunkSize: pipelineChunk, Registry: reg, Timings: tm})
	if err != nil {
		return nil, err
	}
	it.t2 = time.Now()
	sr.Summary()
	sr.Estimate()
	sr.Table2()
	it.t3 = time.Now()

	sum := sha256.Sum256(out.Bytes())
	it.digest = hex.EncodeToString(sum[:])
	it.records = sd.Records
	it.wall = it.t3.Sub(it.t0)
	for _, st := range tm.Stages() {
		it.stages[st.Stage] = time.Duration(st.Seconds * float64(time.Second))
	}
	snap := reg.Snapshot()
	for _, s := range []string{"simulate", "regroup"} {
		it.spilledBytes += snap.Counters[fmt.Sprintf(`extsort_spilled_bytes_total{sort=%q}`, s)]
		it.runs += snap.Counters[fmt.Sprintf(`extsort_runs_total{sort=%q}`, s)]
	}
	if probe {
		if err := it.probe(sd); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *pipelineIter) probe(sd *population.SpilledDataset) error {
	// A bare pass over the spilled stream: merge + frame read + decode.
	t0 := time.Now()
	rs, err := sd.Stream()
	if err != nil {
		return err
	}
	var items []population.StreamItem
	for {
		item, ok, err := rs.Next()
		if err != nil {
			rs.Close()
			return err
		}
		if !ok {
			break
		}
		items = append(items, item)
	}
	rs.Close()
	it.pass = time.Since(t0)

	recs := make([]*fingerprint.Record, len(items))
	for i := range items {
		recs[i] = items[i].Rec
	}
	if it.encode, it.decode, err = codecCost(recs); err != nil {
		return err
	}

	t0 = time.Now()
	b := browserid.NewStreamBuilder()
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = browserid.InitialID(r)
		b.ObserveWithID(r, ids[i])
	}
	b.Seal()
	it.observe = time.Since(t0)

	// Linking accuracy: a record is linked right when its browser-ID
	// group's first record belongs to the same true instance.
	first := map[string]int{}
	right := 0
	for i := range items {
		g := b.CanonicalOf(ids[i])
		inst, ok := first[g]
		if !ok {
			first[g] = items[i].Instance
			inst = items[i].Instance
		}
		if inst == items[i].Instance {
			right++
		}
	}
	it.top1 = float64(right) / float64(len(items))
	return nil
}

func runPipeline(e *env) (*outcome, error) {
	o := newOutcome()
	o.params["users"] = pipelineUsers
	o.params["mem_budget_bytes"] = pipelineMemBudget
	o.params["chunk"] = pipelineChunk
	o.params["workers"] = -1

	// Set-up warms the process with a small pipeline pass.
	warmDir := filepath.Join(e.work, "warm")
	setup, _, err := medianSetup(3, func() (*pipelineIter, error) {
		defer os.RemoveAll(warmDir)
		return pipelineOnce(warmDir, pipelineWarmUsers, e.seed, false)
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	var phases [][]*pipelineIter
	var mems []memDelta
	var wantDigest string
	k := 0
	for i, d := range e.phases() {
		traced := e.trace && i == 1
		if traced {
			o.tr = newTracer()
		}
		var iters []*pipelineIter
		runtime.GC() // every phase starts from a settled heap
		m0 := memSample()
		start := time.Now()
		for len(iters) == 0 || time.Since(start) < d {
			dir := filepath.Join(e.work, fmt.Sprintf("pipe-%d", k))
			k++
			// The first iteration of the run also measures accuracy.
			it, err := pipelineOnce(dir, pipelineUsers, e.seed, traced || k == 1)
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
			if wantDigest == "" {
				wantDigest = it.digest
			}
			o.attempted++
			if it.digest != wantDigest {
				o.failed++
			}
			if traced {
				traceIter(o.tr, it)
			}
			iters = append(iters, it)
		}
		phases = append(phases, iters)
		mems = append(mems, memSince(m0))
	}
	o.check(o.failed == 0, "pipeline: %d of %d iterations rendered a different report", o.failed, o.attempted)
	o.check(recordDigest(e, wantDigest), "pipeline: report digest %s differs from the one recorded for seed %d", wantDigest, e.seed)
	o.params["report_digest"] = wantDigest

	base := phases[0]
	var rps []float64
	var wall, sim samples
	for _, it := range base {
		rps = append(rps, float64(it.records)/it.wall.Seconds())
		wall.add(it.wall)
		sim.add(it.stages["simulate_spill"])
	}
	o.e2e["records_per_s"] = medianOf(rps)
	// The pipeline's operations are whole runs: latency is the wall
	// time of one run, add latency that of its write side (simulate and
	// spill). With a handful of runs, p99 is the slowest.
	o.pctMetric(o.e2e, "latency_p50_ms", wall.report(0.50, limitMs(e)))
	o.samples["latency_p99_ms"] = wall.report(0.99, limitMs(e))
	o.pctMetric(o.e2e, "add_latency_p50_ms", sim.report(0.50, limitMs(e)))
	o.samples["add_latency_p99_ms"] = sim.report(0.99, limitMs(e))
	o.e2e["top1_accuracy"] = base[0].top1
	o.params["records"] = base[0].records
	o.params["spill_runs"] = base[0].runs

	if e.trace {
		tp := phases[1]
		med := func(f func(*pipelineIter) float64) float64 {
			var vs []float64
			for _, it := range tp {
				vs = append(vs, f(it))
			}
			return medianOf(vs)
		}
		secs := func(d time.Duration) float64 { return d.Seconds() }
		o.layer["fingerprint.encode_us"] = med(func(it *pipelineIter) float64 { return float64(it.encode.Microseconds()) / float64(it.records) })
		o.layer["fingerprint.decode_us"] = med(func(it *pipelineIter) float64 { return float64(it.decode.Microseconds()) / float64(it.records) })
		o.layer["population.simulate_spill_s"] = med(func(it *pipelineIter) float64 { return secs(it.stages["simulate_spill"]) })
		o.layer["population.alloc_bytes_per_record"] = med(func(it *pipelineIter) float64 { return float64(it.allocBytes) / float64(it.records) })
		o.layer["extsort.pass_s"] = med(func(it *pipelineIter) float64 { return secs(it.pass) })
		o.layer["extsort.spilled_bytes_per_record"] = med(func(it *pipelineIter) float64 { return float64(it.spilledBytes) / float64(it.records) })
		o.layer["extsort.runs"] = med(func(it *pipelineIter) float64 { return float64(it.runs) })
		o.layer["browserid.observe_s"] = med(func(it *pipelineIter) float64 { return secs(it.observe) })
		o.layer["report.ground_truth_pass1_s"] = med(func(it *pipelineIter) float64 { return secs(it.stages["ground_truth_pass1"]) })
		o.layer["report.regroup_s"] = med(func(it *pipelineIter) float64 { return secs(it.stages["regroup"]) })
		o.layer["report.analyze_s"] = med(func(it *pipelineIter) float64 { return secs(it.stages["analyze"]) })
		tRecs := 0
		for _, it := range tp {
			tRecs += it.records
		}
		runtimeLayer(o, mems[1], tRecs)
		lg := computeLedger(o.tr.snapshot())
		o.ledger = &lg
		o.layer["trace.coverage"] = lg.coverage()
		o.layer["trace.overhead_ratio"] = med(func(it *pipelineIter) float64 { return secs(it.wall) }) / (wall.median() / 1e3)
		o.layer["loadgen.late_p99_ms"] = 0 // a batch job has no arrivals
		fillZero(o.layer)
	}
	return o, nil
}

// traceIter lays one pipeline run out as spans. The wrapped calls are
// timed directly; the stages inside report.NewStream come from its
// obs.Timings, and inside each stage the work the probes measured on
// the same records is laid out as derived children: pass 1 and regroup
// each stream the spilled runs once (an extsort pass, whose decode is
// the record codec); pass 1 feeds the browser-ID builder, regroup
// encodes every record into its sort and analyze decodes them back.
func traceIter(tr *tracer, it *pipelineIter) {
	req := tr.add(0, 0, "request.pipeline", it.t0, it.t3)
	sim := tr.add(req, req, "population.SimulateSpill", it.t0, it.t1)
	cur := it.t0
	tr.derive(req, sim, "fingerprint.encode", &cur, it.encode)

	ns := tr.add(req, req, "report.NewStream", it.t1, it.t2)
	stage := it.t1
	for _, name := range []string{"ground_truth_pass1", "regroup", "analyze"} {
		cur := stage
		sp := tr.derive(req, ns, "report."+name, &stage, it.stages[name])
		if name == "analyze" {
			tr.derive(req, sp, "fingerprint.decode", &cur, it.decode)
			continue
		}
		passStart := cur
		pass := tr.derive(req, sp, "extsort.pass", &cur, it.pass)
		tr.derive(req, pass, "fingerprint.decode", &passStart, it.decode)
		if name == "ground_truth_pass1" {
			tr.derive(req, sp, "browserid.observe", &cur, it.observe)
		} else {
			tr.derive(req, sp, "fingerprint.encode", &cur, it.encode)
		}
	}
	tr.add(req, req, "report.render", it.t2, it.t3)
}

// recordDigest keeps the report digest per seed and population size
// beside the results, and reports whether this run repeated it.
func recordDigest(e *env, digest string) bool {
	dir := filepath.Join(filepath.Dir(filepath.Dir(e.work)), "digests")
	path := filepath.Join(dir, fmt.Sprintf("pipeline-seed%d-users%d.sha256", e.seed, pipelineUsers))
	if prev, err := os.ReadFile(path); err == nil {
		return string(bytes.TrimSpace(prev)) == digest
	}
	return os.WriteFile(path, []byte(digest+"\n"), 0o644) == nil
}
