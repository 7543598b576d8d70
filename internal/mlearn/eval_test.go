package mlearn

import (
	"math/rand"
	"testing"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 2}
	if p := c.Precision(); p != 0.8 {
		t.Fatalf("precision = %v", p)
	}
	if r := c.Recall(); r != 0.8 {
		t.Fatalf("recall = %v", r)
	}
	if f := c.F1(); f < 0.8-1e-12 || f > 0.8+1e-12 {
		t.Fatalf("f1 = %v", f)
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Fatal("zero confusion must yield zero metrics, not NaN")
	}
}

// TestImportancesProperty: across random shapes, densities and
// configs, Importances() either sums to 1 or is all zero — never a
// partial normalization, never negative entries.
func TestImportancesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.Intn(200)
		d := 1 + rng.Intn(40)
		density := 0.05 + rng.Float64()*0.95
		X, y := randomMatrix(n, d, density, int64(trial))
		cfg := ForestConfig{
			Seed:     int64(trial),
			NumTrees: 1 + rng.Intn(8),
			MaxDepth: rng.Intn(5), // 0 (default), 1..4
			MinLeaf:  1 + rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			cfg.FeatureFrac = 1
		}
		f, err := TrainForest(X, y, cfg)
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

// randomMatrix builds an n×d matrix with the given nonzero density;
// nonzero values are drawn from a small set (including negatives and
// repeats, so equal-value runs get exercised) and labels correlate
// with a handful of columns so trees actually split.
func randomMatrix(n, d int, density float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	vals := []float64{-2, -0.5, 0.5, 1, 1, 2, 3, 5}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		sum := 0.0
		for j := range row {
			if rng.Float64() < density {
				row[j] = vals[rng.Intn(len(vals))]
				if j%7 == 0 {
					sum += row[j]
				}
			}
		}
		if sum+0.3*rng.NormFloat64() > 0.5 {
			y[i] = 1
		}
		X[i] = row
	}
	return X, y
}
