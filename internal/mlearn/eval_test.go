package mlearn

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 2, TN: 10}
	if p := c.Precision(); p != 0.8 {
		t.Fatalf("precision = %v", p)
	}
	if r := c.Recall(); r != 0.8 {
		t.Fatalf("recall = %v", r)
	}
	if f := c.F1(); f < 0.8-1e-12 || f > 0.8+1e-12 {
		t.Fatalf("f1 = %v", f)
	}
	if a := c.Accuracy(); a != 18.0/22 {
		t.Fatalf("accuracy = %v", a)
	}
	if tot := c.Total(); tot != 22 {
		t.Fatalf("total = %v", tot)
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.Accuracy() != 0 {
		t.Fatal("zero confusion must yield zero metrics, not NaN")
	}
}

func TestConfusionObserve(t *testing.T) {
	var c Confusion
	c.Observe(1, 1)
	c.Observe(1, 0)
	c.Observe(0, 1)
	c.Observe(0, 0)
	if c != (Confusion{TP: 1, FN: 1, FP: 1, TN: 1}) {
		t.Fatalf("counts = %+v", c)
	}
}

// TestStratifiedSplit checks the split is disjoint, exhaustive,
// class-balanced to the requested fraction, and a pure function of
// (y, frac, seed).
func TestStratifiedSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	y := make([]int, 1000)
	for i := range y {
		if rng.Float64() < 0.2 {
			y[i] = 1
		}
	}
	train, test, err := StratifiedSplit(y, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != len(y) {
		t.Fatalf("split sizes %d + %d != %d", len(train), len(test), len(y))
	}
	seen := make([]bool, len(y))
	for _, i := range append(append([]int(nil), train...), test...) {
		if seen[i] {
			t.Fatalf("row %d appears twice", i)
		}
		seen[i] = true
	}
	pos := func(idx []int) (n int) {
		for _, i := range idx {
			n += y[i]
		}
		return
	}
	totalPos := pos(test) + pos(train)
	gotFrac := float64(pos(test)) / float64(totalPos)
	if gotFrac < 0.2 || gotFrac > 0.3 {
		t.Fatalf("test set holds %.2f of positives, want ~0.25", gotFrac)
	}
	// Deterministic: same inputs, same split.
	train2, test2, err := StratifiedSplit(y, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(train, train2) || !reflect.DeepEqual(test, test2) {
		t.Fatal("split not deterministic for a fixed seed")
	}
	// A different seed reshuffles.
	_, test3, err := StratifiedSplit(y, 0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(test, test3) {
		t.Fatal("different seeds produced identical splits")
	}
}

func TestStratifiedSplitErrors(t *testing.T) {
	if _, _, err := StratifiedSplit([]int{0, 1}, 1.0, 1); err == nil {
		t.Fatal("test fraction 1.0 accepted")
	}
	if _, _, err := StratifiedSplit([]int{0, 2}, 0.5, 1); err == nil {
		t.Fatal("non-binary label accepted")
	}
}

// TestStratifiedSplitKeepsTrainNonEmpty: rounding must never move an
// entire multi-member class into the test set.
func TestStratifiedSplitKeepsTrainNonEmpty(t *testing.T) {
	y := []int{1, 1, 0, 0, 0, 0, 0, 0}
	train, _, err := StratifiedSplit(y, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	hasPos := false
	for _, i := range train {
		if y[i] == 1 {
			hasPos = true
		}
	}
	if !hasPos {
		t.Fatal("train set lost every positive at a high test fraction")
	}
}

// TestEvaluateForest cross-checks the batch-kernel evaluator against a
// scalar reimplementation on a real trained forest.
func TestEvaluateForest(t *testing.T) {
	X, y := xorData(600, 41)
	f, err := TrainForest(X, y, ForestConfig{Seed: 41, NumTrees: 10})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := StratifiedSplit(y, 0.3, 41)
	if err != nil {
		t.Fatal(err)
	}
	_ = train
	got, err := EvaluateForest(f, X, y, test, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var want Confusion
	for _, i := range test {
		pred := 0
		if f.PredictProba(X[i]) >= 0.5 {
			pred = 1
		}
		want.Observe(y[i], pred)
	}
	if got != want {
		t.Fatalf("batch eval %+v != scalar eval %+v", got, want)
	}
	if got.Total() != len(test) {
		t.Fatalf("evaluated %d rows, want %d", got.Total(), len(test))
	}
	// nil idx = every row.
	all, err := EvaluateForest(f, X, y, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if all.Total() != len(X) {
		t.Fatalf("nil idx evaluated %d rows, want %d", all.Total(), len(X))
	}
}

func TestEvaluateForestErrors(t *testing.T) {
	X, y := linearlySeparable(50, 43)
	f, err := TrainForest(X, y, ForestConfig{Seed: 43, NumTrees: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateForest(f, X, y[:10], nil, 0.5); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
	if _, err := EvaluateForest(f, X, y, []int{len(X)}, 0.5); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	bad := append(append([][]float64(nil), X...), []float64{1})
	if _, err := EvaluateForest(f, bad, append(y, 0), []int{len(bad) - 1}, 0.5); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestImportancesProperty: across random shapes and configs (both
// column paths, both sentinels), Importances() either sums to 1 or is
// all zero — never a partial normalization, never negative entries.
func TestImportancesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(200)
		d := 1 + rng.Intn(40)
		density := 0.05 + rng.Float64()*0.95
		X, y := sparseMatrix(n, d, density, int64(trial))
		cfg := ForestConfig{
			Seed:     int64(trial),
			NumTrees: 1 + rng.Intn(8),
			MaxDepth: rng.Intn(6) - 1, // -1 (unlimited), 0 (default), 1..4
			MinLeaf:  1 + rng.Intn(4),
		}
		route := []func([][]float64) bool{autoSparse, forceDense, forceSparse}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			cfg.FeatureFrac = Unlimited
		}
		f, err := trainForest(X, y, cfg, route)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		imp := f.Importances()
		if len(imp) != d {
			t.Fatalf("trial %d: %d importances for %d features", trial, len(imp), d)
		}
		sum := 0.0
		allZero := true
		for j, v := range imp {
			if v < 0 {
				t.Fatalf("trial %d: negative importance %v at %d", trial, v, j)
			}
			if v != 0 {
				allZero = false
			}
			sum += v
		}
		if allZero {
			continue // degenerate forest: never split
		}
		if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d (cfg %+v): importances sum to %v, want 1", trial, cfg, sum)
		}
	}
}
