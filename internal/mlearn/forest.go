// Package mlearn is a from-scratch random-forest implementation (bagged
// CART trees, Gini impurity, per-split feature subsampling) — the
// learning machinery behind the learning-based FP-Stalker baseline. The
// original used scikit-learn; this reimplementation keeps the same
// algorithm family so the reproduction exhibits both its accuracy
// behaviour and its scalability wall (Figure 10's observation that the
// learning variant cannot keep up at dataset scale).
//
// The trainer is columnar: the training matrix is flattened into
// column-major storage with one presorted index array per feature, and
// every node's best-split search is a rank-ordered O(n) scan per
// candidate feature — no per-node sorts, no per-node allocations (see
// columnar.go). Trees train in parallel on the shared worker pool, each
// from its own splitmix-derived sub-RNG, so the forest is worker-count
// invariant: Workers=1 and Workers=N produce byte-identical trees,
// probabilities and importances. Trained trees live in one packed node
// array (knode) with one walk (predictTree) under the trainer's split
// rule.
//
// Only binary classification with probability output is provided; that
// is all FP-Stalker's "same browser instance?" model needs.
package mlearn

import (
	"fmt"
	"math"
	"math/rand"

	"fpdyn/internal/parallel"
)

// ForestConfig controls training. Zero values select sensible
// defaults (see defaults); negative values, and a FeatureFrac above 1,
// are rejected by TrainForest.
type ForestConfig struct {
	NumTrees int // default 30
	MaxDepth int // default 12
	MinLeaf  int // minimum samples per leaf, default 2
	// FeatureFrac is the fraction of features tried per split: 0
	// selects the default sqrt(d)/d, 1 tries every feature.
	FeatureFrac float64
	Seed        int64
	// Workers caps the tree-training pool: 1 is serial, anything else
	// resolves to GOMAXPROCS. The trained forest is identical for every
	// setting — each tree derives its RNG from Seed and its own index,
	// never from scheduling — so Workers is purely a throughput knob.
	Workers int
}

// defaults fills unset fields.
func (c ForestConfig) defaults(numFeatures int) ForestConfig {
	if c.NumTrees == 0 {
		c.NumTrees = 30
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 2
	}
	if c.FeatureFrac == 0 {
		c.FeatureFrac = math.Sqrt(float64(numFeatures)) / float64(numFeatures)
	}
	return c
}

// Forest is a trained random forest in one flat node array: all trees'
// nodes are packed knodes, each tree occupying one contiguous node
// range rooted at roots[t], with the leaf probabilities in the
// parallel prob array. Each tree is laid out in preorder, so the upper
// levels every walk traverses sit packed at the front of the tree's
// range and stay cache-hot across consecutive predictions.
type Forest struct {
	knodes []knode
	prob   []float64 // leaf probability of class 1, per node
	roots  []int32   // root node index per tree, in tree order

	numFeatures int
	importance  []float64 // accumulated Gini gain per feature
}

// knode is one packed tree node: split value, both children in one
// word (left in the low half, right in the high half — the pair loads
// as soon as the node index is known, before the comparison resolves),
// and the split feature (negative marks a leaf). An interior node
// routes x[feat] <= val to left, else right, both absolute node
// indices — the trainer's partition rule, so NaN goes right. A leaf
// keeps the trainer's zero split value and tree-local child 0, which
// rebases to its tree's root. One knode is 1–2 cache lines and one
// bounds check per walk step.
type knode struct {
	val   float64
	child uint64
	feat  int32
}

// splitmix64 is the SplitMix64 finalizer — the standard way to spread a
// structured seed (here Seed ⊕ treeIndex) into an uncorrelated stream
// seed per tree.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// treeSeed derives tree t's private RNG seed from the forest seed. The
// forest seed is pre-mixed before the tree index is XORed in: a raw
// seed ⊕ t would make (seed=1, t=0) and (seed=0, t=1) share a stream,
// i.e. nearby forest seeds would train overlapping tree sets.
func treeSeed(seed int64, t int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(t)))
}

// TrainForest fits a forest on X (rows = samples) and binary labels y.
// Trees are trained concurrently (cfg.Workers) but the result is a pure
// function of (X, y, cfg minus Workers): tree t draws its bootstrap and
// feature subsets from a sub-RNG seeded by splitmix64(Seed ⊕ t), and
// per-tree importance vectors are merged in tree order after the
// training barrier.
func TrainForest(X [][]float64, y []int, cfg ForestConfig) (*Forest, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("mlearn: bad training set: %d rows, %d labels", len(X), len(y))
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("mlearn: row %d has %d features, want %d", i, len(row), d)
		}
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("mlearn: label %d at row %d; want 0/1", label, i)
		}
	}
	if cfg.NumTrees < 0 || cfg.MaxDepth < 0 || cfg.MinLeaf < 0 || !(cfg.FeatureFrac >= 0 && cfg.FeatureFrac <= 1) {
		return nil, fmt.Errorf("mlearn: bad config %+v: NumTrees, MaxDepth and MinLeaf must be >= 0 and FeatureFrac in [0, 1]", cfg)
	}
	cfg = cfg.defaults(d)
	nFeat := int(math.Max(1, math.Round(cfg.FeatureFrac*float64(d))))

	type treeOut struct {
		tr  tree
		imp []float64
	}
	cs := newColset(X)
	outs := parallel.Map(parallel.Resolve(cfg.Workers), cfg.NumTrees, func(t int) treeOut {
		rng := rand.New(rand.NewSource(treeSeed(cfg.Seed, t)))
		b := getTreeBuilder(cs, y, cfg, nFeat)
		tr, imp := b.train(rng)
		putTreeBuilder(b)
		return treeOut{tr, imp}
	})

	f := &Forest{numFeatures: d, importance: make([]float64, d)}
	total := 0
	for _, o := range outs {
		total += len(o.tr.feature)
	}
	f.knodes = make([]knode, 0, total)
	f.prob = make([]float64, 0, total)
	f.roots = make([]int32, 0, len(outs))
	for _, o := range outs {
		// Rebase the tree's local child indices onto the flat array.
		base := int32(len(f.knodes))
		f.roots = append(f.roots, base)
		for i, feat := range o.tr.feature {
			left, right := uint32(o.tr.left[i]+base), uint32(o.tr.right[i]+base)
			f.knodes = append(f.knodes, knode{
				val:   o.tr.threshold[i],
				child: uint64(left) | uint64(right)<<32,
				feat:  feat,
			})
		}
		f.prob = append(f.prob, o.tr.prob...)
		// Importances merge serially in tree order: float addition is
		// not associative, so a scheduling-dependent order would break
		// worker-count invariance.
		for j, v := range o.imp {
			f.importance[j] += v
		}
	}
	return f, nil
}

// Importances returns the per-feature Gini importance, normalized to
// sum to 1 (all zeros when the forest never split).
func (f *Forest) Importances() []float64 {
	out := make([]float64, len(f.importance))
	total := 0.0
	for _, v := range f.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range f.importance {
		out[i] = v / total
	}
	return out
}

// predictTree walks one tree (by root node index) for a single vector
// and returns its leaf probability. It is the forest's one walk, and
// PredictProbaAtLeast is its one caller. A NaN feature fails the
// trainer's x <= val test, so it goes right.
func (f *Forest) predictTree(root int32, x []float64) float64 {
	knodes := f.knodes // a local, so the walk loop does not reload the slice header
	c := root
	nd := &knodes[c]
	for nd.feat >= 0 {
		if x[nd.feat] <= nd.val {
			c = int32(uint32(nd.child))
		} else {
			c = int32(uint32(nd.child >> 32))
		}
		nd = &knodes[c]
	}
	return f.prob[c]
}

// PredictProbaAtLeast evaluates trees until the forest-averaged
// probability of class 1 either is fully determined or provably cannot
// reach threshold. When the probability clears the threshold it is
// returned exactly (every tree evaluated, the full forest average);
// otherwise ok=false after however many trees settled it — each tree
// emits a probability in [0, 1], so once the partial sum plus the
// remaining tree count falls below threshold·len(trees) no suffix of
// evaluations can recover. Candidate-filtering hot paths that discard
// below-threshold pairs use this to skip most of the ensemble on clear
// rejects; threshold 0 walks every tree and always reports ok. A
// vector of the wrong dimension returns NaN, false.
func (f *Forest) PredictProbaAtLeast(x []float64, threshold float64) (p float64, ok bool) {
	if len(x) != f.numFeatures {
		return math.NaN(), false
	}
	n := len(f.roots)
	need := threshold * float64(n)
	sum := 0.0
	for i, root := range f.roots {
		sum += f.predictTree(root, x)
		if sum+float64(n-1-i) < need {
			return 0, false
		}
	}
	p = sum / float64(n)
	return p, p >= threshold
}
