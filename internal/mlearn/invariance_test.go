package mlearn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestWorkerCountInvariance is the package's determinism contract: the
// forest is a pure function of (X, y, cfg minus Workers). Every worker
// setting must produce byte-identical trees, probabilities and
// importances — tree t's RNG derives from Seed and t, never from
// scheduling, and importance vectors merge in tree order after the
// barrier.
func TestWorkerCountInvariance(t *testing.T) {
	X, y := xorData(500, 17)
	ref, err := TrainForest(X, y, ForestConfig{Seed: 17, NumTrees: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		f, err := TrainForest(X, y, ForestConfig{Seed: 17, NumTrees: 12, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, f) {
			t.Fatalf("Workers=%d forest differs from Workers=1 (trees not byte-identical)", workers)
		}
		if !reflect.DeepEqual(ref.Importances(), f.Importances()) {
			t.Fatalf("Workers=%d importances differ", workers)
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			if predictProba(ref, x) != predictProba(f, x) {
				t.Fatalf("Workers=%d probability differs at %v", workers, x)
			}
		}
	}
}

// TestTreeSeedSpread sanity-checks the splitmix derivation: nearby tree
// indexes and seeds must not collide into identical streams.
func TestTreeSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 4; seed++ {
		for tr := 0; tr < 64; tr++ {
			s := treeSeed(seed, tr)
			if seen[s] {
				t.Fatalf("treeSeed collision at seed=%d tree=%d", seed, tr)
			}
			seen[s] = true
		}
	}
}

// TestSampleFeaturesDrawsDistinct pins the partial Fisher–Yates draw:
// always nFeat distinct in-range features, deterministic per stream.
func TestSampleFeaturesDrawsDistinct(t *testing.T) {
	X, y := xorData(20, 1)
	// Widen to 10 features so subsampling is non-trivial.
	for i := range X {
		row := make([]float64, 10)
		copy(row, X[i])
		for j := 2; j < 10; j++ {
			row[j] = float64(i*j%7) / 7
		}
		X[i] = row
	}
	cs := newColset(X)
	b := getTreeBuilder(cs, y, ForestConfig{}.defaults(10), 3)
	defer putTreeBuilder(b)
	b.rng = rand.New(rand.NewSource(5))
	for f := range b.featPool { // growFrom's per-tree pool reset
		b.featPool[f] = f
	}
	var first [][]int
	for n := 0; n < 100; n++ {
		feats := b.sampleFeatures()
		if len(feats) != 3 {
			t.Fatalf("drew %d features, want 3", len(feats))
		}
		seen := make(map[int]bool)
		for _, f := range feats {
			if f < 0 || f >= 10 {
				t.Fatalf("feature %d out of range", f)
			}
			if seen[f] {
				t.Fatalf("duplicate feature %d in draw %v", f, feats)
			}
			seen[f] = true
		}
		first = append(first, append([]int(nil), feats...))
	}
	// Same stream → same sequence of draws.
	b2 := getTreeBuilder(cs, y, ForestConfig{}.defaults(10), 3)
	defer putTreeBuilder(b2)
	b2.rng = rand.New(rand.NewSource(5))
	for f := range b2.featPool {
		b2.featPool[f] = f
	}
	for n := 0; n < 100; n++ {
		if got := b2.sampleFeatures(); !reflect.DeepEqual(got, first[n]) {
			t.Fatalf("draw %d not reproducible: %v vs %v", n, got, first[n])
		}
	}
}

// TestRejectedSplitAccruesNoImportance is the regression test for the
// Gini-importance inflation bug: a best split whose committed partition
// would violate MinLeaf is abandoned — the node stays a leaf — and must
// accrue no importance. The historical builder accrued before the
// MinLeaf check, so such phantom splits inflated their feature.
func TestRejectedSplitAccruesNoImportance(t *testing.T) {
	// One feature; a single outlier at 0, everything else at 1. The only
	// cut (between 0 and 1) strands one sample on the left, under
	// MinLeaf=2, so the split must be rejected.
	X := [][]float64{{0}, {1}, {1}, {1}, {1}, {1}, {1}, {1}}
	y := []int{1, 0, 0, 0, 0, 0, 0, 0}
	cfg := ForestConfig{MinLeaf: 2, FeatureFrac: 1}.defaults(1)
	cs := newColset(X)
	b := getTreeBuilder(cs, y, cfg, 1)
	defer putTreeBuilder(b)
	counts := make([]int32, len(X))
	for i := range counts {
		counts[i] = 1 // exact sample: no bootstrap randomness
	}
	tr, imp := b.growFrom(counts, 1, rand.New(rand.NewSource(1)))
	if len(tr.feature) != 1 || tr.feature[0] != -1 {
		t.Fatalf("tree grew %d nodes (root feature %d), want a single leaf", len(tr.feature), tr.feature[0])
	}
	if imp[0] != 0 {
		t.Fatalf("rejected split accrued importance %v, want 0", imp[0])
	}

	// Control: the same shape with a committable 4/4 cut must both
	// split and accrue.
	X2 := [][]float64{{0}, {0}, {0}, {0}, {1}, {1}, {1}, {1}}
	y2 := []int{1, 1, 1, 1, 0, 0, 0, 0}
	cs2 := newColset(X2)
	b2 := getTreeBuilder(cs2, y2, cfg, 1)
	defer putTreeBuilder(b2)
	tr2, imp2 := b2.growFrom(counts, 4, rand.New(rand.NewSource(1)))
	if tr2.feature[0] != 0 {
		t.Fatalf("committable split not taken: root feature %d", tr2.feature[0])
	}
	if imp2[0] <= 0 {
		t.Fatalf("committed split accrued importance %v, want > 0", imp2[0])
	}
}

// TestColsetRanks pins the presort: every base order must walk its
// column in non-decreasing value order over all rows.
func TestColsetRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 200)
	for i := range X {
		X[i] = []float64{rng.Float64(), float64(rng.Intn(5)), -rng.Float64()}
	}
	cs := newColset(X)
	for f := 0; f < cs.d; f++ {
		if len(cs.base[f]) != len(X) {
			t.Fatalf("feature %d: %d ranks for %d rows", f, len(cs.base[f]), len(X))
		}
		for k := 1; k < len(cs.base[f]); k++ {
			if cs.cols[f][cs.base[f][k-1]] > cs.cols[f][cs.base[f][k]] {
				t.Fatalf("feature %d not sorted at rank %d", f, k)
			}
		}
	}
}

// pinMatrix builds an n×16 matrix shaped like FP-Stalker's pair vector:
// fifteen random columns and one constant column (index 5), with labels
// driven by three of the random ones.
func pinMatrix(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		row := make([]float64, 16)
		for j := range row {
			row[j] = float64(rng.Intn(8)) / 7
		}
		row[5] = 1
		if row[0]+row[3]+row[13]+0.2*rng.NormFloat64() > 1.5 {
			y[i] = 1
		}
		X[i] = row
	}
	return X, y
}

// forestDigest is SHA-256 over every trained byte of f: the tree roots,
// the nodes' split features, left and right children, split values and
// leaf probabilities (floats by their bits) and the normalized
// importances. Each node field is written as one array, so the byte
// stream is that of a feature/left/right/threshold node layout. A leaf
// has split value 0 and both children at its tree's root.
func forestDigest(f *Forest) string {
	n := len(f.knodes)
	feature, left, right := make([]int32, n), make([]int32, n), make([]int32, n)
	threshold := make([]float64, n)
	for i, nd := range f.knodes {
		feature[i], threshold[i] = nd.feat, nd.val
		left[i], right[i] = int32(uint32(nd.child)), int32(uint32(nd.child>>32))
	}
	h := sha256.New()
	for _, v := range []any{f.roots, feature, left, right} {
		binary.Write(h, binary.LittleEndian, v)
	}
	for _, v := range [][]float64{threshold, f.prob, f.Importances()} {
		for _, x := range v {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForestBytesPinned pins the trained forest byte for byte on three
// dense inputs, at one worker and at NumCPU: the zero config, the
// 16-feature config the linking service trains, and an every-feature
// shallow config. A change to the trainer that moves any split, any
// probability or any RNG draw fails here.
func TestForestBytesPinned(t *testing.T) {
	xorX, xorY := xorData(400, 21)
	pairX, pairY := pinMatrix(600, 9)
	cases := []struct {
		name string
		X    [][]float64
		y    []int
		cfg  ForestConfig
		want string
	}{
		{"xor-zero-config", xorX, xorY, ForestConfig{},
			"3c7efc99bc4bf82f93e2f3967a8b5ef3782becc9a5a3fd24aaa01e60b84fd808"},
		{"pair16-linker", pairX, pairY, ForestConfig{NumTrees: 15, MaxDepth: 8},
			"ac390177aaa0a5cd7cf703ef992a4cc4680ca13a38eb978b661cdbe210e9c816"},
		{"pair16-all-features", pairX, pairY, ForestConfig{FeatureFrac: 1, MinLeaf: 1, MaxDepth: 4},
			"6970d8ce549a3ba8ec3d0933290f3a66958e40233b8ce63a10959e416b64d01b"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 0} {
			cfg := tc.cfg
			cfg.Workers = workers
			f, err := TrainForest(tc.X, tc.y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := forestDigest(f); got != tc.want {
				t.Errorf("%s Workers=%d: forest digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
