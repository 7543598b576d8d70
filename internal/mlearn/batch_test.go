package mlearn

import (
	"math"
	"math/rand"
	"testing"
)

// randomBlock builds n random d-dimensional vectors, row-major.
func randomBlock(n, d int, rng *rand.Rand) []float64 {
	xs := make([]float64, n*d)
	for i := range xs {
		xs[i] = rng.Float64() * 1.5
	}
	return xs
}

// withNaNs returns a copy of xs with a NaN in one random feature of
// every row.
func withNaNs(xs []float64, d int, rng *rand.Rand) []float64 {
	out := append([]float64(nil), xs...)
	for off := 0; off < len(out); off += d {
		out[off+rng.Intn(d)] = math.NaN()
	}
	return out
}

// TestBatchMatchesScalar is the block form's exactness contract:
// PredictProbaAtLeastBatch must return the scalar PredictProbaAtLeast
// verdict and probability exactly, across forests, block sizes and
// thresholds, on random rows and on the same rows with a NaN feature
// each. At threshold 0 it walks every tree, so its probabilities must
// also be bit-identical to the scalar PredictProba.
func TestBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	configs := []ForestConfig{
		{Seed: 1, NumTrees: 1},
		{Seed: 2, NumTrees: 15, MaxDepth: 4},
		{Seed: 3, NumTrees: 30},
	}
	for _, cfg := range configs {
		X, y := xorData(400, cfg.Seed)
		f, err := TrainForest(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := f.NumFeatures()
		for _, n := range []int{1, 3, 255, 256, 257, 1000} {
			clean := randomBlock(n, d, rng)
			for _, xs := range [][]float64{clean, withNaNs(clean, d, rng)} {
				probs := make([]float64, n)
				oks := make([]bool, n)
				f.PredictProbaAtLeastBatch(xs, 0, probs, oks)
				for i := 0; i < n; i++ {
					if want := f.PredictProba(xs[i*d : (i+1)*d]); probs[i] != want {
						t.Fatalf("cfg %+v n=%d row %d: batch %v != scalar %v", cfg, n, i, probs[i], want)
					}
				}
				for _, threshold := range []float64{0, 0.3, 0.5, 0.9, 1} {
					f.PredictProbaAtLeastBatch(xs, threshold, probs, oks)
					for i := 0; i < n; i++ {
						wantP, wantOK := f.PredictProbaAtLeast(xs[i*d:(i+1)*d], threshold)
						if probs[i] != wantP || oks[i] != wantOK {
							t.Fatalf("cfg %+v n=%d thr=%v row %d: batch (%v,%v) != scalar (%v,%v)",
								cfg, n, threshold, i, probs[i], oks[i], wantP, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestBatchDimensionMismatch is the regression test for the kernel
// misuse contract: a block that does not hold exactly len(out) rows is
// a caller bug and must panic. (The kernels historically NaN/false-
// filled the whole output instead, which made a mis-sliced block look
// like a model that rejects every candidate.)
func TestBatchDimensionMismatch(t *testing.T) {
	X, y := linearlySeparable(100, 5)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 5})
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: shape mismatch did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("PredictProbaAtLeastBatch threshold 0", func() {
		// 5 floats ≠ 3 rows × 2 features
		f.PredictProbaAtLeastBatch(make([]float64, 5), 0, make([]float64, 3), make([]bool, 3))
	})
	mustPanic("PredictProbaAtLeastBatch", func() {
		f.PredictProbaAtLeastBatch(make([]float64, 5), 0.5, make([]float64, 3), make([]bool, 3))
	})
	mustPanic("PredictProbaAtLeastBatch probs/oks", func() {
		f.PredictProbaAtLeastBatch(make([]float64, 6), 0.5, make([]float64, 3), make([]bool, 2))
	})
}

// TestBatchEmpty: a zero-row block is a no-op, not a panic.
func TestBatchEmpty(t *testing.T) {
	X, y := linearlySeparable(100, 6)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 6})
	f.PredictProbaAtLeastBatch(nil, 0, nil, nil)
	f.PredictProbaAtLeastBatch(nil, 0.5, nil, nil)
}

// BenchmarkPredictBatch compares a per-row PredictProba loop against
// the block form over identical 256-vector blocks, at threshold 0 so
// the block form walks every tree like PredictProba does. Blocks rotate through a
// pool large enough that the branch predictor cannot memorize tree
// paths across iterations — repeating one block every iteration lets
// it, which flatters the scalar walk in a way no real candidate
// stream does.
func BenchmarkPredictBatch(b *testing.B) {
	X, y := xorData(1000, 1)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 1})
	rng := rand.New(rand.NewSource(2))
	const n = 256
	const blocks = 64
	xs := randomBlock(n*blocks, f.NumFeatures(), rng)
	d := f.NumFeatures()
	out := make([]float64, n)
	oks := make([]bool, n)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blk := xs[(i%blocks)*n*d : (i%blocks+1)*n*d]
			for j := 0; j < n; j++ {
				out[j] = f.PredictProba(blk[j*d : (j+1)*d])
			}
		}
		b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "predicts/s")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.PredictProbaAtLeastBatch(xs[(i%blocks)*n*d:(i%blocks+1)*n*d], 0, out, oks)
		}
		b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "predicts/s")
	})
}

func BenchmarkTrain20K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, d := 20000, 16
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		if row[0]+row[3]+row[13]+0.2*rng.NormFloat64() > 1.5 {
			y[i] = 1
		}
		X[i] = row
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-ncpu", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TrainForest(X, y, ForestConfig{Seed: 1, Workers: mode.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
