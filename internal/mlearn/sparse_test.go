package mlearn

import (
	"math/rand"
	"reflect"
	"testing"
)

// sparseMatrix builds an n×d matrix with the given nonzero density;
// nonzero values are drawn from a small set (including negatives and
// repeats, so equal-value runs and the zero block's ordered position
// both get exercised) and labels correlate with a handful of columns
// so trees actually split.
func sparseMatrix(n, d int, density float64, seed int64) ([][]float64, []int) {
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

// forceDense and forceSparse route trainForest to one builder
// regardless of the matrix shape.
func forceDense([][]float64) bool  { return false }
func forceSparse([][]float64) bool { return true }

// TestSparseDenseEquivalence is the sparse path's core contract: for
// every (X, y, cfg), the sparse builder trains a forest byte-identical
// to the dense builder's — same trees, thresholds, probabilities,
// importances. Shapes sweep density (including fully dense, where the
// zero block vanishes), negative values (the zero block sits
// mid-order), feature fractions (shared RNG stream), and the unlimited
// sentinels.
func TestSparseDenseEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		n, d    int
		density float64
		cfg     ForestConfig
	}{
		{"wide-sparse", 300, 64, 0.05, ForestConfig{Seed: 1, NumTrees: 8}},
		{"mid-density", 200, 16, 0.3, ForestConfig{Seed: 2, NumTrees: 6, MaxDepth: 6}},
		{"fully-dense", 150, 8, 1.0, ForestConfig{Seed: 3, NumTrees: 6}},
		{"all-features", 200, 24, 0.1, ForestConfig{Seed: 4, NumTrees: 5, FeatureFrac: Unlimited}},
		{"unlimited-depth", 200, 32, 0.1, ForestConfig{Seed: 5, NumTrees: 5, MaxDepth: Unlimited, MinLeaf: 1}},
		{"min-leaf", 250, 20, 0.15, ForestConfig{Seed: 6, NumTrees: 6, MinLeaf: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := sparseMatrix(tc.n, tc.d, tc.density, tc.cfg.Seed+100)
			fd, err := trainForest(X, y, tc.cfg, forceDense)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := trainForest(X, y, tc.cfg, forceSparse)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fd, fs) {
				t.Fatalf("sparse forest differs from dense (%d vs %d nodes)", fs.NumNodes(), fd.NumNodes())
			}
			if !reflect.DeepEqual(fd.Importances(), fs.Importances()) {
				t.Fatal("sparse importances differ from dense")
			}
		})
	}
}

// TestSparseWorkerInvariance extends the package's determinism
// contract to the sparse path: every worker count produces the same
// forest, and it is the dense path's forest.
func TestSparseWorkerInvariance(t *testing.T) {
	X, y := sparseMatrix(400, 48, 0.08, 31)
	ref, err := trainForest(X, y, ForestConfig{Seed: 31, NumTrees: 10, Workers: 1}, forceSparse)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		f, err := trainForest(X, y, ForestConfig{Seed: 31, NumTrees: 10, Workers: workers}, forceSparse)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, f) {
			t.Fatalf("Workers=%d sparse forest differs from Workers=1", workers)
		}
	}
	fd, err := trainForest(X, y, ForestConfig{Seed: 31, NumTrees: 10, Workers: 1}, forceDense)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, fd) {
		t.Fatal("sparse and dense forests diverge")
	}
}

// TestSparseColsetAt pins the CSC lookup against the dense matrix.
func TestSparseColsetAt(t *testing.T) {
	X, _ := sparseMatrix(120, 17, 0.2, 7)
	sc := newSparseColset(X)
	for i, row := range X {
		for f, want := range row {
			if got := sc.at(f, int32(i)); got != want {
				t.Fatalf("at(%d, %d) = %v, want %v", f, i, got, want)
			}
		}
	}
	nnz := 0
	for f := 0; f < sc.d; f++ {
		if len(sc.rowIdx[f]) != len(sc.vals[f]) {
			t.Fatalf("feature %d: %d rows vs %d vals", f, len(sc.rowIdx[f]), len(sc.vals[f]))
		}
		for k := 1; k < len(sc.rowIdx[f]); k++ {
			if sc.rowIdx[f][k-1] >= sc.rowIdx[f][k] {
				t.Fatalf("feature %d rows not strictly ascending at %d", f, k)
			}
		}
		nnz += len(sc.vals[f])
		for _, v := range sc.vals[f] {
			if v == 0 {
				t.Fatalf("feature %d stores an explicit zero", f)
			}
		}
	}
	if nnz == 0 {
		t.Fatal("matrix generated with no nonzeros — test is vacuous")
	}
}

// TestAutoSparseRouting pins TrainForest's column routing: wide and
// mostly zero routes sparse, everything else stays dense.
func TestAutoSparseRouting(t *testing.T) {
	wide, _ := sparseMatrix(50, 300, 0.05, 1)
	if !autoSparse(wide) {
		t.Fatal("wide sparse matrix not routed to the sparse path")
	}
	narrow, _ := sparseMatrix(50, 16, 0.05, 2)
	if autoSparse(narrow) {
		t.Fatal("narrow matrix routed to the sparse path")
	}
	dense, _ := sparseMatrix(50, 300, 0.9, 3)
	if autoSparse(dense) {
		t.Fatal("dense wide matrix routed to the sparse path")
	}
}
