package mlearn

import "fmt"

// PredictProbaAtLeastBatch is the block form of PredictProbaAtLeast:
// probs[i], oks[i] are what the scalar call returns for row i of xs,
// because each row is that call. It adds a shape check and no speed:
// probs and oks must have equal length and xs must hold exactly
// len(probs) rows; either mismatch panics — a silent NaN/false fill
// (the historical behaviour) reads as "every candidate rejected" and
// masks the caller bug that produced it.
func (f *Forest) PredictProbaAtLeastBatch(xs []float64, threshold float64, probs []float64, oks []bool) {
	n := len(probs)
	if len(oks) != n {
		panic("mlearn: PredictProbaAtLeastBatch probs/oks length mismatch")
	}
	d := f.numFeatures
	if len(xs) != n*d {
		panic(fmt.Sprintf("mlearn: PredictProbaAtLeastBatch shape mismatch: %d values is not %d rows × %d features",
			len(xs), n, d))
	}
	for i := range probs {
		probs[i], oks[i] = f.PredictProbaAtLeast(xs[i*d:(i+1)*d], threshold)
	}
}
