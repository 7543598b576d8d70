package mlearn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// linearlySeparable builds a 2-feature dataset split by x0 + x1 > 1.
func linearlySeparable(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		if a+b > 1 {
			y[i] = 1
		}
	}
	return X, y
}

// xorData builds the classic XOR pattern a linear model cannot learn
// but trees can.
func xorData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

// predictProba is the forest-averaged probability of class 1 with
// every tree walked: the oracle PredictProbaAtLeast's early exit is
// held to. NaN on a vector of the wrong dimension.
func predictProba(f *Forest, x []float64) float64 {
	if len(x) != f.numFeatures {
		return math.NaN()
	}
	sum := 0.0
	for _, root := range f.roots {
		sum += f.predictTree(root, x)
	}
	return sum / float64(len(f.roots))
}

func accuracy(f *Forest, X [][]float64, y []int) float64 {
	hit := 0
	for i, x := range X {
		pred := 0
		if predictProba(f, x) >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainForest(nil, nil, ForestConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := TrainForest([][]float64{{1}}, []int{2}, ForestConfig{}); err == nil {
		t.Fatal("non-binary label accepted")
	}
	if _, err := TrainForest([][]float64{{1, 2}, {1}}, []int{0, 1}, ForestConfig{}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := TrainForest([][]float64{{1}}, []int{0, 1}, ForestConfig{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestTrainRejectsBadConfig: a config the trainer cannot honour is an
// error, never a panic inside the worker pool or a silently different
// forest (a negative MaxDepth would train stumps).
func TestTrainRejectsBadConfig(t *testing.T) {
	X, y := xorData(50, 1)
	cases := []struct {
		name string
		cfg  ForestConfig
	}{
		{"negative NumTrees", ForestConfig{NumTrees: -2}},
		{"negative MaxDepth", ForestConfig{MaxDepth: -1}},
		{"negative MinLeaf", ForestConfig{MinLeaf: -3}},
		{"FeatureFrac above 1", ForestConfig{FeatureFrac: 1.5}},
		{"negative FeatureFrac", ForestConfig{FeatureFrac: -0.5}},
		{"NaN FeatureFrac", ForestConfig{FeatureFrac: math.NaN()}},
	}
	for _, tc := range cases {
		if _, err := TrainForest(X, y, tc.cfg); err == nil {
			t.Errorf("%s: config %+v accepted", tc.name, tc.cfg)
		}
	}
}

func TestLearnsLinearlySeparable(t *testing.T) {
	X, y := linearlySeparable(600, 1)
	f, err := TrainForest(X, y, ForestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := linearlySeparable(300, 2)
	if acc := accuracy(f, Xt, yt); acc < 0.9 {
		t.Fatalf("test accuracy %.2f < 0.9", acc)
	}
}

func TestLearnsXOR(t *testing.T) {
	X, y := xorData(800, 3)
	f, err := TrainForest(X, y, ForestConfig{Seed: 3, NumTrees: 40})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := xorData(300, 4)
	if acc := accuracy(f, Xt, yt); acc < 0.85 {
		t.Fatalf("XOR accuracy %.2f < 0.85", acc)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := linearlySeparable(200, 5)
	f1, _ := TrainForest(X, y, ForestConfig{Seed: 7})
	f2, _ := TrainForest(X, y, ForestConfig{Seed: 7})
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 50, float64(50-i) / 50}
		if predictProba(f1, x) != predictProba(f2, x) {
			t.Fatal("same seed gave different forests")
		}
	}
	f3, _ := TrainForest(X, y, ForestConfig{Seed: 8})
	diff := false
	for i := 0; i < 50 && !diff; i++ {
		x := []float64{float64(i) / 50, 0.3}
		if predictProba(f1, x) != predictProba(f3, x) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds gave identical forests (suspicious)")
	}
}

func TestPureClassShortcut(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	f, err := TrainForest(X, y, ForestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := predictProba(f, []float64{2}); p != 1 {
		t.Fatalf("pure-positive forest predicts %v", p)
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	X, y := linearlySeparable(100, 9)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 1})
	if p, ok := f.PredictProbaAtLeast([]float64{1}, 0); !math.IsNaN(p) || ok {
		t.Fatalf("dimension mismatch not flagged: p=%v ok=%v", p, ok)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := ForestConfig{}.defaults(16)
	if c.NumTrees != 30 || c.MaxDepth != 12 || c.MinLeaf != 2 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.FeatureFrac != 0.25 { // sqrt(16)/16
		t.Fatalf("feature frac = %v", c.FeatureFrac)
	}
	// Explicit values survive.
	c2 := ForestConfig{NumTrees: 5, MaxDepth: 3, MinLeaf: 10, FeatureFrac: 1}.defaults(4)
	if c2.NumTrees != 5 || c2.MaxDepth != 3 || c2.MinLeaf != 10 || c2.FeatureFrac != 1 {
		t.Fatalf("explicit config clobbered: %+v", c2)
	}
}

// TestZeroConfigBackCompat pins the sentinel change's back-compat
// contract: a zero-value config must keep training the exact forest it
// always did — byte-identical to one trained with every historical
// default written out explicitly.
func TestZeroConfigBackCompat(t *testing.T) {
	X, y := xorData(400, 21)
	zero, err := TrainForest(X, y, ForestConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	d := float64(len(X[0]))
	explicit, err := TrainForest(X, y, ForestConfig{
		Seed: 21, NumTrees: 30, MaxDepth: 12, MinLeaf: 2,
		FeatureFrac: math.Sqrt(d) / d,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, explicit) {
		t.Fatal("zero-value config no longer trains the historical default forest")
	}
}

func TestNumTrees(t *testing.T) {
	X, y := linearlySeparable(100, 11)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 1, NumTrees: 7})
	if len(f.roots) != 7 {
		t.Fatalf("%d trees, want 7", len(f.roots))
	}
}

// Property: probabilities are always within [0, 1].
func TestProbaRangeProperty(t *testing.T) {
	X, y := xorData(300, 13)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 13})
	fn := func(a, b uint8) bool {
		p, _ := f.PredictProbaAtLeast([]float64{float64(a) / 255, float64(b) / 255}, 0)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a forest trained on constant features predicts the base
// rate everywhere.
func TestConstantFeatureProperty(t *testing.T) {
	X := make([][]float64, 100)
	y := make([]int, 100)
	for i := range X {
		X[i] = []float64{1.0}
		if i%4 == 0 {
			y[i] = 1
		}
	}
	f, err := TrainForest(X, y, ForestConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.PredictProbaAtLeast([]float64{1.0}, 0)
	if p < 0.1 || p > 0.45 {
		t.Fatalf("base-rate prediction %v far from 0.25", p)
	}
}

func BenchmarkTrain1K(b *testing.B) {
	X, y := xorData(1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainForest(X, y, ForestConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	X, y := xorData(1000, 1)
	f, _ := TrainForest(X, y, ForestConfig{Seed: 1})
	x := []float64{0.3, 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProbaAtLeast(x, 0)
	}
}

func TestImportancesIdentifyInformativeFeature(t *testing.T) {
	// Feature 0 carries all the signal; feature 1 is noise.
	rng := rand.New(rand.NewSource(21))
	X := make([][]float64, 500)
	y := make([]int, 500)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		if X[i][0] > 0.5 {
			y[i] = 1
		}
	}
	f, err := TrainForest(X, y, ForestConfig{Seed: 21, FeatureFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importances()
	if len(imp) != 2 {
		t.Fatalf("importances = %v", imp)
	}
	if imp[0] < 0.8 {
		t.Errorf("informative feature importance = %.2f, want > 0.8 (noise: %.2f)", imp[0], imp[1])
	}
	sum := imp[0] + imp[1]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("importances sum to %v", sum)
	}
}

func TestImportancesDegenerate(t *testing.T) {
	// A pure-class forest never splits: all-zero importances.
	f, err := TrainForest([][]float64{{1}, {2}}, []int{1, 1}, ForestConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Importances() {
		if v != 0 {
			t.Fatalf("importances = %v, want zeros", f.Importances())
		}
	}
}

func TestPredictProbaAtLeastAgrees(t *testing.T) {
	// The early-exit path must be a pure optimization: above the
	// threshold it returns exactly the full forest average, below it
	// only the accept/reject verdict may be short-circuited.
	X, y := linearlySeparable(400, 7)
	f, err := TrainForest(X, y, ForestConfig{Seed: 7, NumTrees: 15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for _, threshold := range []float64{0, 0.3, 0.5, 0.9} {
		for i := 0; i < 500; i++ {
			x := []float64{rng.Float64() * 1.5, rng.Float64() * 1.5}
			want := predictProba(f, x)
			p, ok := f.PredictProbaAtLeast(x, threshold)
			if ok != (want >= threshold) {
				t.Fatalf("threshold %v, x %v: ok=%v but the full average is %v", threshold, x, ok, want)
			}
			if ok && p != want {
				t.Fatalf("threshold %v, x %v: p=%v, want exact %v", threshold, x, p, want)
			}
		}
	}
	if _, ok := f.PredictProbaAtLeast([]float64{1}, 0.5); ok {
		t.Fatal("dimension mismatch must not report ok")
	}
}

// TestNaNRoutesRight is the NaN-routing regression test. The trainer
// sends a row left when x <= val, so a NaN feature, which fails every
// comparison, goes right at every split, exactly as +Inf does.
// PredictProbaAtLeast must follow that rule across forests and
// thresholds; the -Inf comparison proves the NaN rows reach splits on
// the NaN feature, so the check is not vacuous.
func TestNaNRoutesRight(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cfg := range []ForestConfig{
		{Seed: 1, NumTrees: 1},
		{Seed: 2, NumTrees: 15, MaxDepth: 4},
		{Seed: 3, NumTrees: 30},
	} {
		X, y := xorData(400, cfg.Seed)
		f, err := TrainForest(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := 0; i < 1000; i++ {
			base := make([]float64, f.numFeatures)
			for k := range base {
				base[k] = rng.Float64() * 1.5
			}
			j := rng.Intn(len(base))
			row := func(v float64) []float64 {
				x := append([]float64(nil), base...)
				x[j] = v
				return x
			}
			nan, inf := row(math.NaN()), row(math.Inf(1))
			for _, threshold := range []float64{0, 0.3, 0.5, 0.9, 1} {
				gotP, gotOK := f.PredictProbaAtLeast(nan, threshold)
				wantP, wantOK := f.PredictProbaAtLeast(inf, threshold)
				if gotP != wantP || gotOK != wantOK {
					t.Fatalf("cfg %+v thr=%v row %v: NaN gives (%v,%v), +Inf (%v,%v)",
						cfg, threshold, nan, gotP, gotOK, wantP, wantOK)
				}
			}
			if predictProba(f, nan) != predictProba(f, row(math.Inf(-1))) {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("cfg %+v: no row's prediction depends on which way its NaN goes", cfg)
		}
	}
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
