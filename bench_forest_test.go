package fpdyn

// The forest benchmark harness for the learning-based linker's pair
// model: training throughput (serial vs parallel, tree/depth sweep),
// preprocessing throughput, and scalar-vs-batch prediction, plus an
// emitter that writes the measurements to BENCH_forest.json so the
// perf trajectory is tracked across PRs.
//
//	go test -run xxx -bench BenchmarkTopKLearn .
//	BENCH_FOREST_OUT=BENCH_forest.json go test -run TestEmitForestBench .

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fpdyn/internal/fpstalker"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/population"
)

// BenchmarkTopKLearnScalarVsBatch isolates the batch prediction lever
// in LearnLinker.TopK: identical table and query, per-pair scalar
// forest walks versus per-forest-pass candidate blocks.
func BenchmarkTopKLearnScalarVsBatch(b *testing.B) {
	w := world(b)
	n := len(w.ds.Records) / 2
	forest, err := fpstalker.TrainPairModel(w.ds.Records[:n], w.ds.TrueInstance[:n],
		mlearn.ForestConfig{Seed: 1, NumTrees: 10, MaxDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	q := evolvedQuery(w.ds.Records[len(w.ds.Records)/2])
	for _, mode := range []struct {
		name   string
		scalar bool
	}{{"scalar", true}, {"batch", false}} {
		b.Run(mode.name, func(b *testing.B) {
			l := fpstalker.NewLearnLinker(forest)
			l.NoBlocking = true // whole table: the worst case batch scoring targets
			l.Workers = 1
			l.ScalarScore = mode.scalar
			for i, rec := range w.ds.Records {
				l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.TopK(q, 10)
			}
		})
	}
}

// --- BENCH_forest.json emitter ----------------------------------------

type forestTrainResult struct {
	Trees       int     `json:"trees"`
	Depth       int     `json:"depth"`
	Workers     int     `json:"workers"`
	Seconds     float64 `json:"seconds"`
	PairsPerSec float64 `json:"pairs_per_sec"`
}

type forestBenchReport struct {
	Pairs   int   `json:"pairs"`
	Records int   `json:"records"`
	Seed    int64 `json:"seed"`
	NumCPU  int   `json:"num_cpu"`

	// PreprocessSec: PairTrainingSet (entry preprocessing + pair-vector
	// builds) by worker label.
	PreprocessSec map[string]float64 `json:"preprocess_seconds_by_workers"`

	// Train: the Figure 10 operating points (the CLI's 15×8 forest and
	// the default 30×12) at 1 worker and NumCPU, plus the sweep.
	Train []forestTrainResult `json:"train"`
	Sweep []forestTrainResult `json:"tree_depth_sweep"`

	// Predict: forest evaluations/sec over the training matrix.
	PredictScalarPerSec float64 `json:"predict_scalar_per_sec"`
	PredictBatchPerSec  float64 `json:"predict_batch_per_sec"`

	// TopK: mean LearnLinker query latency, scalar vs batch scoring.
	TopKScalarNs int64 `json:"topk_scalar_ns_per_query"`
	TopKBatchNs  int64 `json:"topk_batch_ns_per_query"`
	TopKDBSize   int   `json:"topk_db_size"`
}

// TestEmitForestBench measures pair-model preprocessing, forest
// training and prediction throughput and writes BENCH_forest.json.
// Gated behind BENCH_FOREST_OUT so the regular test run stays fast;
// `make bench-forest` sets it.
func TestEmitForestBench(t *testing.T) {
	out := os.Getenv("BENCH_FOREST_OUT")
	if out == "" {
		t.Skip("set BENCH_FOREST_OUT=<path> to emit the forest benchmark")
	}
	users := 4000 // sized so the pair set clears 20k training pairs
	if s := os.Getenv("BENCH_FOREST_USERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad BENCH_FOREST_USERS %q: %v", s, err)
		}
		users = n
	}
	const seed = 42
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	cfg.Workers = -1
	ds := population.Simulate(cfg)

	rep := forestBenchReport{
		Records:       len(ds.Records),
		Seed:          seed,
		NumCPU:        runtime.NumCPU(),
		PreprocessSec: map[string]float64{},
	}

	// Preprocessing: the two-phase PairTrainingSet at 1 worker and NumCPU.
	var X [][]float64
	var y []int
	for _, mode := range []struct {
		label   string
		workers int
	}{{"1", 1}, {"ncpu", -1}} {
		start := time.Now()
		var err error
		X, y, err = fpstalker.PairTrainingSet(ds.Records, ds.TrueInstance, seed, mode.workers)
		if err != nil {
			t.Fatal(err)
		}
		rep.PreprocessSec[mode.label] = time.Since(start).Seconds()
	}
	rep.Pairs = len(X)
	t.Logf("%d records → %d training pairs", len(ds.Records), len(X))

	trainOnce := func(trees, depth, workers int) forestTrainResult {
		start := time.Now()
		if _, err := mlearn.TrainForest(X, y, mlearn.ForestConfig{
			Seed: seed, NumTrees: trees, MaxDepth: depth, Workers: workers,
		}); err != nil {
			t.Fatal(err)
		}
		sec := time.Since(start).Seconds()
		return forestTrainResult{Trees: trees, Depth: depth, Workers: workers,
			Seconds: sec, PairsPerSec: float64(len(X)) / sec}
	}
	for _, op := range []struct{ trees, depth int }{{30, 12}, {15, 8}} {
		rep.Train = append(rep.Train, trainOnce(op.trees, op.depth, 1))
		rep.Train = append(rep.Train, trainOnce(op.trees, op.depth, -1))
	}
	for _, trees := range []int{10, 30, 60} {
		for _, depth := range []int{8, 12, 16} {
			rep.Sweep = append(rep.Sweep, trainOnce(trees, depth, -1))
		}
	}

	// Prediction throughput over the training matrix, scalar vs batch,
	// in 256-row blocks — the shape LearnLinker.TopK actually scores
	// (engine.go's scoreBlock), not one giant matrix pass: a
	// whole-matrix batch call would re-stream megabytes of vectors once
	// per tree, which no production path does. Both sides walk the same
	// blocks in the same order; best of a few rounds so a CPU-steal
	// spike on a shared box cannot decide the comparison.
	forest, err := mlearn.TrainForest(X, y, mlearn.ForestConfig{Seed: seed, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := forest.NumFeatures()
	flat := make([]float64, 0, len(X)*d)
	for _, row := range X {
		flat = append(flat, row...)
	}
	const predBlock = 256
	probs := make([]float64, predBlock)
	bestScalar, bestBatch := math.MaxFloat64, math.MaxFloat64
	for round := 0; round < 3; round++ {
		start := time.Now()
		for _, row := range X {
			forest.PredictProba(row)
		}
		bestScalar = math.Min(bestScalar, time.Since(start).Seconds())
		start = time.Now()
		for lo := 0; lo < len(X); lo += predBlock {
			hi := min(lo+predBlock, len(X))
			forest.PredictProbaBatch(flat[lo*d:hi*d], probs[:hi-lo])
		}
		bestBatch = math.Min(bestBatch, time.Since(start).Seconds())
	}
	rep.PredictScalarPerSec = float64(len(X)) / bestScalar
	rep.PredictBatchPerSec = float64(len(X)) / bestBatch

	// TopK latency: scalar vs batch scoring over an unblocked table
	// (the candidate-set shape the paper's Figure 9 measures).
	topkForest, err := fpstalker.TrainPairModel(ds.Records[:len(ds.Records)/2],
		ds.TrueInstance[:len(ds.Records)/2],
		mlearn.ForestConfig{Seed: seed, NumTrees: 15, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scalar bool) *fpstalker.LearnLinker {
		l := fpstalker.NewLearnLinker(topkForest)
		l.NoBlocking = true
		l.Workers = 1
		l.ScalarScore = scalar
		for i, rec := range ds.Records {
			l.Add(fpstalker.InstanceID(ds.TrueInstance[i]), rec)
		}
		return l
	}
	// Alternating rounds, minimum mean per side: on a shared box a
	// single timed pass can absorb a CPU-steal spike large enough to
	// invert the comparison; the min of interleaved rounds is the
	// standard robust estimator for that regime.
	qs := ds.Records[:min(200, len(ds.Records))]
	scalarLinker := mk(true)
	batchLinker := mk(false)
	rep.TopKDBSize = scalarLinker.Len()
	bestScalarNs, bestBatchNs := int64(math.MaxInt64), int64(math.MaxInt64)
	for round := 0; round < 5; round++ {
		if ns := fpstalker.TimeMatching(scalarLinker, qs, 10).Nanoseconds(); ns < bestScalarNs {
			bestScalarNs = ns
		}
		if ns := fpstalker.TimeMatching(batchLinker, qs, 10).Nanoseconds(); ns < bestBatchNs {
			bestBatchNs = ns
		}
	}
	rep.TopKScalarNs = bestScalarNs
	rep.TopKBatchNs = bestBatchNs

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d pairs, train(30×12) %.2fs serial / %.2fs ncpu, topk scalar %v vs batch %v",
		out, rep.Pairs, rep.Train[0].Seconds, rep.Train[1].Seconds,
		time.Duration(rep.TopKScalarNs), time.Duration(rep.TopKBatchNs))
}
