package mlearn

import (
	"math/rand"
	"sort"
	"sync"
)

// The sparse (budgeted) columnar path. The dense builder (columnar.go)
// materializes one presorted rank array per feature per concurrent
// tree builder — O(rows × features) int32 per worker, on top of the
// shared column store and base argsorts. That is the right trade on
// the pair-linking matrix (16 dense features), but it blows up on the
// script-detection workload's wide API-count matrices: thousands of
// mostly-zero columns turn every builder into hundreds of megabytes
// of ranks that are then scanned mostly to walk over zeros.
//
// This builder stores the matrix once as CSC (per-feature row/value
// arrays holding only nonzeros) and keeps per-builder scratch at
// O(rows): a node owns one contiguous range of a single bootstrap row
// array, and each candidate feature's split search gathers that
// node's nonzero values, sorts them, and folds the implicit zero
// block into the scan at its ordered position. Per node per feature
// that costs O(n log n) in the worst case but O(nz log nz) on the
// sparse columns it exists for.
//
// Equivalence contract: the sparse builder grows byte-identical trees
// to the dense builder for every (X, y, cfg). Both consume the same
// RNG stream (same bootstrap draw, drawFeatures), the split search
// evaluates the same boundaries with the same float expressions in
// the same order (gain is a pure function of the sorted
// (value, label) multiset, which both paths agree on), and partition
// preserves the same child multisets. sparse_test.go holds the two
// paths to reflect.DeepEqual across random shapes and configs.

// autoSparseMinFeatures and autoSparseMaxDensity gate TrainForest's
// column routing: the sparse path wins when the matrix is wide
// (per-builder dense scratch is rows × features × 4 bytes × workers)
// and mostly zero (the gather-and-sort cost scales with nonzeros).
const (
	autoSparseMinFeatures = 256
	autoSparseMaxDensity  = 0.25
)

// autoSparse decides TrainForest's column routing for a validated
// matrix: true selects the sparse builder.
func autoSparse(X [][]float64) bool {
	d := len(X[0])
	if d < autoSparseMinFeatures {
		return false
	}
	nnz := 0
	for _, row := range X {
		for _, v := range row {
			if v != 0 {
				nnz++
			}
		}
	}
	return float64(nnz) <= autoSparseMaxDensity*float64(len(X)*d)
}

// sparseColset is the shared read-only CSC view of the training
// matrix: per feature, the rows with nonzero values (ascending) and
// those values. Memory is O(nonzeros), versus the dense colset's
// O(rows × features) columns plus argsorts.
type sparseColset struct {
	n, d   int
	rowIdx [][]int32   // rowIdx[f]: rows with cols[f] != 0, ascending
	vals   [][]float64 // vals[f][k] == X[rowIdx[f][k]][f]
}

func newSparseColset(X [][]float64) *sparseColset {
	n, d := len(X), len(X[0])
	nnz := make([]int, d)
	total := 0
	for _, row := range X {
		for f, v := range row {
			if v != 0 {
				nnz[f]++
				total++
			}
		}
	}
	sc := &sparseColset{n: n, d: d,
		rowIdx: make([][]int32, d), vals: make([][]float64, d)}
	flatRows := make([]int32, total) // one backing array each
	flatVals := make([]float64, total)
	off := 0
	for f := 0; f < d; f++ {
		sc.rowIdx[f] = flatRows[off : off : off+nnz[f]]
		sc.vals[f] = flatVals[off : off : off+nnz[f]]
		off += nnz[f]
	}
	for i, row := range X {
		for f, v := range row {
			if v != 0 {
				sc.rowIdx[f] = append(sc.rowIdx[f], int32(i))
				sc.vals[f] = append(sc.vals[f], v)
			}
		}
	}
	return sc
}

// at returns X[row][f] by binary search over feature f's nonzeros.
func (s *sparseColset) at(f int, row int32) float64 {
	r := s.rowIdx[f]
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid] < row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r) && r[lo] == row {
		return s.vals[f][lo]
	}
	return 0
}

// valLabel is one gathered nonzero sample of a node for one feature.
type valLabel struct {
	v float64
	y int8
}

// valGroup aggregates one distinct value of a node's samples for one
// feature: its sample count and positive-label count.
type valGroup struct {
	v      float64
	n, pos int32
}

// sparseBuilder grows one tree over the CSC matrix. All scratch is
// O(rows) and recycled through sparsePool; nothing scales with the
// feature count except the shared colset and the feature-draw pool.
type sparseBuilder struct {
	sc    *sparseColset
	y     []int
	cfg   ForestConfig
	nFeat int
	rng   *rand.Rand

	counts   []int32    // bootstrap multiplicity per row
	rows     []int32    // bootstrap multiset, partitioned in place
	scratch  []int32    // stable-partition spill buffer
	pairs    []valLabel // per-(node, feature) nonzero gather
	groups   []valGroup // aggregated distinct-value groups
	featPool []int      // 0..d-1, permuted in place by drawFeatures
	imp      []float64  // this tree's Gini-gain accumulator
	tr       tree
}

// sparsePool recycles sparseBuilder scratch across trees and forests,
// mirroring builderPool for the dense path.
var sparsePool sync.Pool

func getSparseBuilder(sc *sparseColset, y []int, cfg ForestConfig, nFeat int) *sparseBuilder {
	if v := sparsePool.Get(); v != nil {
		b := v.(*sparseBuilder)
		if b.sc.n == sc.n && b.sc.d == sc.d {
			b.sc, b.y, b.cfg, b.nFeat = sc, y, cfg, nFeat
			return b
		}
	}
	return &sparseBuilder{sc: sc, y: y, cfg: cfg, nFeat: nFeat,
		counts:   make([]int32, sc.n),
		rows:     make([]int32, 0, sc.n),
		scratch:  make([]int32, sc.n),
		pairs:    make([]valLabel, 0, sc.n),
		groups:   make([]valGroup, 0, 64),
		featPool: make([]int, sc.d),
		imp:      make([]float64, sc.d),
	}
}

func putSparseBuilder(b *sparseBuilder) {
	b.y = nil
	b.tr = tree{}
	sparsePool.Put(b)
}

// train bootstraps a sample from rng and grows the tree — the same
// draw, in the same RNG order, as treeBuilder.train.
func (b *sparseBuilder) train(rng *rand.Rand) (tree, []float64) {
	n := b.sc.n
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

// growFrom grows one tree over the given sample multiset; the sparse
// twin of treeBuilder.growFrom.
func (b *sparseBuilder) growFrom(counts []int32, pos int, rng *rand.Rand) (tree, []float64) {
	b.rng = rng
	rows := b.rows[:0]
	for i, c := range counts {
		for ; c > 0; c-- {
			rows = append(rows, int32(i))
		}
	}
	b.rows = rows
	for f := range b.featPool {
		b.featPool[f] = f
	}
	for i := range b.imp {
		b.imp[i] = 0
	}
	b.tr = tree{}
	b.grow(0, len(rows), pos, 0)
	imp := make([]float64, len(b.imp))
	copy(imp, b.imp)
	return b.tr, imp
}

// grow builds the subtree over sample range [lo, hi) of b.rows; the
// control flow mirrors treeBuilder.grow exactly (same preorder node
// numbering, same stopping rules, same MinLeaf rejection point).
func (b *sparseBuilder) grow(lo, hi, pos, depth int) int32 {
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

// gather collects the node's sample values for feature f as sorted
// distinct-value groups, with the implicit zero block inserted at its
// ordered position (after any negative values). The group sequence is
// exactly the distinct-value boundary structure the dense rank scan
// walks, so both paths evaluate identical candidate thresholds.
func (b *sparseBuilder) gather(f, lo, hi int) []valGroup {
	pairs := b.pairs[:0]
	var zeroN, zeroPos int32
	for _, row := range b.rows[lo:hi] {
		if v := b.sc.at(f, row); v != 0 {
			pairs = append(pairs, valLabel{v, int8(b.y[row])})
		} else {
			zeroN++
			zeroPos += int32(b.y[row])
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	groups := b.groups[:0]
	i := 0
	pendingZero := zeroN > 0
	for i < len(pairs) {
		v := pairs[i].v
		if pendingZero && v > 0 {
			groups = append(groups, valGroup{0, zeroN, zeroPos})
			pendingZero = false
		}
		g := valGroup{v: v}
		for i < len(pairs) && pairs[i].v == v {
			g.n++
			g.pos += int32(pairs[i].y)
			i++
		}
		groups = append(groups, g)
	}
	if pendingZero {
		groups = append(groups, valGroup{0, zeroN, zeroPos})
	}
	b.pairs, b.groups = pairs, groups
	return groups
}

// bestSplit finds the Gini-optimal (feature, threshold) among a
// random feature subset. The gain expression, evaluation order
// (ascending value, strict improvement) and returned left-side counts
// replicate treeBuilder.bestSplit term for term, so the winning split
// — and on ties, the winner's identity — matches the dense path
// bit-for-bit.
func (b *sparseBuilder) bestSplit(lo, hi, pos int) (feature int, threshold float64, nLeft, leftPosOut int, gain float64, ok bool) {
	feats := drawFeatures(b.featPool, b.nFeat, b.rng)
	n := float64(hi - lo)
	p := float64(pos) / n
	parentGini := 2 * p * (1 - p)
	bestGain := 0.0

	for _, f := range feats {
		groups := b.gather(f, lo, hi)
		leftPos, leftN := 0, 0
		for k := 0; k < len(groups)-1; k++ {
			leftPos += int(groups[k].pos)
			leftN += int(groups[k].n)
			rightPos := pos - leftPos
			rightN := (hi - lo) - leftN
			pl := float64(leftPos) / float64(leftN)
			pr := float64(rightPos) / float64(rightN)
			gini := (float64(leftN)*2*pl*(1-pl) + float64(rightN)*2*pr*(1-pr)) / n
			if g := parentGini - gini; g > bestGain {
				bestGain = g
				feature = f
				threshold = (groups[k].v + groups[k+1].v) / 2
				nLeft, leftPosOut = leftN, leftPos
				ok = true
			}
		}
	}
	return feature, threshold, nLeft, leftPosOut, bestGain, ok
}

// partition commits a split: the node's row range is stably
// partitioned in place by the split predicate. Child row *order*
// differs from the dense path (which partitions per-feature rank
// arrays), but each child's sample multiset — the only input to every
// downstream computation here — is identical.
func (b *sparseBuilder) partition(splitFeat int, thr float64, lo, hi int) {
	s := b.rows[lo:hi]
	w, nr := 0, 0
	for _, row := range s {
		if b.sc.at(splitFeat, row) <= thr {
			s[w] = row
			w++
		} else {
			b.scratch[nr] = row
			nr++
		}
	}
	copy(s[w:], b.scratch[:nr])
}
