package mlearn

import (
	"math/rand"
	"sort"
	"sync"
)

// The columnar training core. The old trainer re-sorted every sampled
// feature at every node — O(features · n log n) per node, with a fresh
// (value, label) slice allocated each time. Here the training matrix is
// flattened once per forest into column-major storage plus one argsort
// per feature, and each tree derives its own presorted bootstrap index
// arrays from those base orders in O(d·n). From then on tree growth is
// rank-ordered: a node owns one contiguous range [lo, hi) of every
// per-feature index array, its best-split search is a single O(n) scan
// per candidate feature, and committing a split stably partitions each
// feature's range in place (which preserves sortedness), so no node
// ever sorts or allocates.

// colset is the per-forest columnar view of the training matrix: the
// feature columns plus a base argsort per feature, both computed once
// and shared read-only by every tree builder.
type colset struct {
	n, d int
	cols [][]float64 // cols[f][i] == X[i][f]
	base [][]int32   // base[f]: row indices sorted ascending by cols[f]
}

func newColset(X [][]float64) *colset {
	n, d := len(X), len(X[0])
	cs := &colset{n: n, d: d,
		cols: make([][]float64, d), base: make([][]int32, d)}
	flat := make([]float64, n*d) // one backing array for all columns
	idx := make([]int32, n*d)
	for f := 0; f < d; f++ {
		col := flat[f*n : (f+1)*n : (f+1)*n]
		for i, row := range X {
			col[i] = row[f]
		}
		cs.cols[f] = col
		ord := idx[f*n : (f+1)*n : (f+1)*n]
		for i := range ord {
			ord[i] = int32(i)
		}
		sort.Slice(ord, func(a, b int) bool { return col[ord[a]] < col[ord[b]] })
		cs.base[f] = ord
	}
	return cs
}

// tree is one trained tree in local structure-of-arrays form; child
// indices are tree-local until TrainForest rebases them into the flat
// forest arrays. Leaves have feature == -1.
type tree struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	prob      []float64
}

func (t *tree) addNode() int32 {
	i := int32(len(t.feature))
	t.feature = append(t.feature, -1)
	t.threshold = append(t.threshold, 0)
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	t.prob = append(t.prob, 0)
	return i
}

// treeBuilder grows one tree. All scratch (bootstrap counts, the d
// presorted index arrays, the partition buffer, the feature-draw pool)
// is allocated once and recycled through builderPool, so growing a tree
// performs no per-node allocation beyond the node arrays themselves.
type treeBuilder struct {
	cs    *colset
	y     []int
	cfg   ForestConfig
	nFeat int
	rng   *rand.Rand

	counts   []int32   // bootstrap multiplicity per row
	idx      [][]int32 // idx[f]: sampled rows sorted by feature f, with multiplicity
	idxFlat  []int32   // backing array for idx
	scratch  []int32   // stable-partition spill buffer
	featPool []int     // 0..d-1, permuted in place by sampleFeatures
	imp      []float64 // this tree's Gini-gain accumulator
	tr       tree
}

// builderPool recycles treeBuilder scratch across trees and forests.
// Builders are only reusable for matching (n, d) shapes; mismatches
// fall through to a fresh allocation.
var builderPool sync.Pool

func getTreeBuilder(cs *colset, y []int, cfg ForestConfig, nFeat int) *treeBuilder {
	if v := builderPool.Get(); v != nil {
		b := v.(*treeBuilder)
		if b.cs.n == cs.n && b.cs.d == cs.d {
			b.cs, b.y, b.cfg, b.nFeat = cs, y, cfg, nFeat
			return b
		}
	}
	b := &treeBuilder{cs: cs, y: y, cfg: cfg, nFeat: nFeat,
		counts:   make([]int32, cs.n),
		idx:      make([][]int32, cs.d),
		idxFlat:  make([]int32, cs.n*cs.d),
		scratch:  make([]int32, cs.n),
		featPool: make([]int, cs.d),
		imp:      make([]float64, cs.d),
	}
	for f := 0; f < cs.d; f++ {
		b.idx[f] = b.idxFlat[f*cs.n : (f+1)*cs.n : (f+1)*cs.n]
	}
	return b
}

func putTreeBuilder(b *treeBuilder) {
	b.y = nil
	b.tr = tree{}
	builderPool.Put(b)
}

// train bootstraps a sample from rng and grows the tree, returning it
// with a copy of the per-feature importance gains it accrued.
func (b *treeBuilder) train(rng *rand.Rand) (tree, []float64) {
	n := b.cs.n
	for i := range b.counts {
		b.counts[i] = 0
	}
	pos := 0
	for i := 0; i < n; i++ {
		r := rng.Intn(n)
		b.counts[r]++
		pos += b.y[r]
	}
	return b.growFrom(b.counts, pos, rng)
}

// growFrom grows one tree over the given sample multiset (counts[row] =
// multiplicity, pos = positive labels in the multiset), drawing feature
// subsets from rng. Split out of train so tests can exercise the
// builder on an exact sample without bootstrap randomness.
func (b *treeBuilder) growFrom(counts []int32, pos int, rng *rand.Rand) (tree, []float64) {
	b.rng = rng
	m := 0
	for _, c := range counts {
		m += int(c)
	}
	b.buildIndexes(counts)
	for f := range b.featPool {
		b.featPool[f] = f
	}
	for i := range b.imp {
		b.imp[i] = 0
	}
	b.tr = tree{}
	b.grow(0, m, pos, 0)
	imp := make([]float64, len(b.imp))
	copy(imp, b.imp)
	return b.tr, imp
}

// buildIndexes derives the tree's per-feature presorted sample arrays
// from the forest-level argsorts: walking base[f] in rank order and
// emitting each row counts[row] times yields the bootstrap multiset
// sorted by feature f, in O(n) per feature.
func (b *treeBuilder) buildIndexes(counts []int32) {
	for f := 0; f < b.cs.d; f++ {
		out := b.idx[f][:0]
		for _, row := range b.cs.base[f] {
			for c := counts[row]; c > 0; c-- {
				out = append(out, row)
			}
		}
		b.idx[f] = out
	}
}

// grow builds the subtree over sample range [lo, hi) (pos = positive
// labels inside it) and returns its local node index.
func (b *treeBuilder) grow(lo, hi, pos, depth int) int32 {
	n := hi - lo
	me := b.tr.addNode()
	b.tr.prob[me] = float64(pos) / float64(n)

	if depth >= b.cfg.MaxDepth || n < 2*b.cfg.MinLeaf || pos == 0 || pos == n {
		return me
	}
	feat, thr, nLeft, leftPos, gain, ok := b.bestSplit(lo, hi, pos)
	if !ok {
		return me
	}
	if nLeft < b.cfg.MinLeaf || n-nLeft < b.cfg.MinLeaf {
		// Split rejected: the node stays a leaf and must accrue no
		// importance (accruing before this check was the historical
		// inflation bug).
		return me
	}
	b.imp[feat] += gain * float64(n)
	b.partition(feat, thr, lo, hi)
	mid := lo + nLeft
	l := b.grow(lo, mid, leftPos, depth+1)
	r := b.grow(mid, hi, pos-leftPos, depth+1)
	b.tr.feature[me] = int32(feat)
	b.tr.threshold[me] = thr
	b.tr.left[me] = l
	b.tr.right[me] = r
	return me
}

// sampleFeatures draws nFeat distinct features by partial Fisher–Yates
// over the persistent pool — no d-length permutation allocated per node
// (the old rng.Perm(d)[:nFeat]). The pool's residual order carries over
// between nodes, which is fine: each draw is uniform over the remaining
// elements regardless of the starting permutation, and the sequence is
// a pure function of the tree's RNG stream.
func (b *treeBuilder) sampleFeatures() []int {
	p := b.featPool
	for j := 0; j < b.nFeat; j++ {
		k := j + b.rng.Intn(len(p)-j)
		p[j], p[k] = p[k], p[j]
	}
	return p[:b.nFeat]
}

// bestSplit finds the Gini-optimal (feature, threshold) among a random
// feature subset by scanning each feature's presorted range once:
// O(n) per candidate feature, no sorting, no allocation. It returns the
// chosen split's left-side size and positive count (known exactly from
// the rank scan) so grow can check MinLeaf and seed the children
// without re-counting.
func (b *treeBuilder) bestSplit(lo, hi, pos int) (feature int, threshold float64, nLeft, leftPosOut int, gain float64, ok bool) {
	feats := b.sampleFeatures()
	n := float64(hi - lo)
	p := float64(pos) / n
	parentGini := 2 * p * (1 - p)
	bestGain := 0.0

	for _, f := range feats {
		col := b.cs.cols[f]
		rank := b.idx[f][lo:hi]
		leftPos, leftN := 0, 0
		for k := 0; k < len(rank)-1; k++ {
			leftPos += b.y[rank[k]]
			leftN++
			v := col[rank[k]]
			if v == col[rank[k+1]] {
				continue // cannot split between equal values
			}
			rightPos := pos - leftPos
			rightN := len(rank) - leftN
			pl := float64(leftPos) / float64(leftN)
			pr := float64(rightPos) / float64(rightN)
			gini := (float64(leftN)*2*pl*(1-pl) + float64(rightN)*2*pr*(1-pr)) / n
			if g := parentGini - gini; g > bestGain {
				bestGain = g
				feature = f
				threshold = (v + col[rank[k+1]]) / 2
				nLeft, leftPosOut = leftN, leftPos
				ok = true
			}
		}
	}
	return feature, threshold, nLeft, leftPosOut, bestGain, ok
}

// partition commits a split: every feature's index range [lo, hi) is
// stably partitioned in place by the split predicate, which keeps each
// range sorted by its own feature — the invariant that lets children
// split again without sorting. One spill buffer serves all features.
func (b *treeBuilder) partition(splitFeat int, thr float64, lo, hi int) {
	sc := b.cs.cols[splitFeat]
	for f := 0; f < b.cs.d; f++ {
		s := b.idx[f][lo:hi]
		w, nr := 0, 0
		for _, row := range s {
			if sc[row] <= thr {
				s[w] = row
				w++
			} else {
				b.scratch[nr] = row
				nr++
			}
		}
		copy(s[w:], b.scratch[:nr])
	}
}
