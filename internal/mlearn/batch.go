package mlearn

import "fmt"

// The batch prediction kernel. The scalar predictors pay a function call
// and a slice-header setup per (vector, tree) — on this model family
// that overhead is comparable to the walk itself, because the linker's
// trees reject most candidates after a handful of splits. The kernel
// here walks each row through the whole ensemble inline over the packed
// knode mirror: a block costs one call total instead of one per
// (row, tree), and each step loads one packed record (threshold, both
// children and the split feature in 1–2 cache lines, a single bounds
// check) instead of indexing four node arrays. The child pick stays a
// branch on purpose: split directions on real data are biased, so the
// predictor mostly guesses right and speculation prefetches the
// dependent node load — measured faster here than a branchless
// shift-select, which serializes the walk into a compare→pick→load
// chain. Rows walk in row-major order so each row's feature values
// stay L1-resident across all of its tree walks, exactly like the
// scalar path (a tree-outer order was measured slower: it trades that
// row locality for node locality the preorder layout already
// provides). The kernel is exact: bit-identical probabilities and
// verdicts to PredictProbaAtLeast, tree-for-tree.

// PredictProbaAtLeastBatch is the block form of PredictProbaAtLeast:
// probs[i], oks[i] are exactly what the scalar call returns for row i
// of xs, including the scalar early exit — a row stops walking trees
// the moment its partial sum can no longer reach threshold·NumTrees
// (probs 0, ok false). probs and oks must have equal length and xs
// must hold exactly len(probs) rows; either mismatch panics — a
// silent NaN/false fill (the historical behaviour) reads as "every
// candidate rejected" and masks the caller bug that produced it.
func (f *Forest) PredictProbaAtLeastBatch(xs []float64, threshold float64, probs []float64, oks []bool) {
	n := len(probs)
	if len(oks) != n {
		panic("mlearn: PredictProbaAtLeastBatch probs/oks length mismatch")
	}
	if len(xs) != n*f.numFeatures {
		panic(fmt.Sprintf("mlearn: PredictProbaAtLeastBatch shape mismatch: %d values is not %d rows × %d features",
			len(xs), n, f.numFeatures))
	}
	d := f.numFeatures
	T := len(f.roots)
	need := threshold * float64(T)
	knodes := f.knodes
	roots := f.roots
	off := 0
	for i := 0; i < n; i++ {
		sum := 0.0
		alive := true
		for t := 0; t < T; t++ {
			c := roots[t]
			nd := &knodes[c]
			for nd.feat >= 0 {
				if xs[off+int(nd.feat)] > nd.val {
					c = int32(uint32(nd.child >> 32))
				} else {
					c = int32(uint32(nd.child))
				}
				nd = &knodes[c]
			}
			sum += f.prob[c]
			if sum+float64(T-1-t) < need {
				alive = false
				break
			}
		}
		if alive {
			p := sum / float64(T) // divide: bit-identical to the scalar path
			probs[i] = p
			oks[i] = p >= threshold
		} else {
			probs[i] = 0
			oks[i] = false
		}
		off += d
	}
}
