package mlearn

import (
	"fmt"
	"math/rand"
)

// Shared binary-classification evaluation: confusion counts with the
// derived metrics, a deterministic stratified train/test split, and a
// forest evaluator. Both ML workloads report through this module —
// the pair-linking task (fpstalker.EvalResult embeds Confusion) and
// the script-detection task (cmd/fpscriptdet) — so
// "precision" means the same arithmetic everywhere.

// Confusion is a binary confusion matrix: class 1 is "positive".
type Confusion struct {
	TP int // predicted 1, truth 1
	FP int // predicted 1, truth 0
	TN int // predicted 0, truth 0
	FN int // predicted 0, truth 1
}

// Observe counts one (truth, predicted) outcome.
func (c *Confusion) Observe(truth, predicted int) {
	switch {
	case truth == 1 && predicted == 1:
		c.TP++
	case truth == 1:
		c.FN++
	case predicted == 1:
		c.FP++
	default:
		c.TN++
	}
}

// Total is the number of observed outcomes.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision is TP / (TP + FP), 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN), 0 when no positives exist.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy is the fraction of correct predictions, 0 on no data.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// StratifiedSplit partitions row indices 0..len(y)-1 into a train and
// a test set, drawing testFrac of each class (rounded to nearest, but
// never the whole of a class that has at least two members) so the
// class balance survives the split. The split is a pure function of
// (y, testFrac, seed): each class's indices are shuffled by a seeded
// RNG and both returned sets are in ascending row order.
func StratifiedSplit(y []int, testFrac float64, seed int64) (train, test []int, err error) {
	if testFrac < 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("mlearn: test fraction %v outside [0, 1)", testFrac)
	}
	var class0, class1 []int
	for i, label := range y {
		if label == 1 {
			class1 = append(class1, i)
		} else if label == 0 {
			class0 = append(class0, i)
		} else {
			return nil, nil, fmt.Errorf("mlearn: label %d at row %d; want 0/1", label, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	inTest := make([]bool, len(y))
	// Class order is fixed (0 then 1) so the RNG stream — and hence the
	// split — never depends on input ordering quirks.
	for _, class := range [][]int{class0, class1} {
		idx := append([]int(nil), class...)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		k := int(float64(len(idx))*testFrac + 0.5)
		if k == len(idx) && k > 1 {
			k-- // keep at least one member of a non-trivial class in train
		}
		for _, i := range idx[:k] {
			inTest[i] = true
		}
	}
	for i := range y {
		if inTest[i] {
			test = append(test, i)
		} else {
			train = append(train, i)
		}
	}
	return train, test, nil
}

// evalBlock sizes EvaluateForest's batch-kernel calls — the same
// block shape the serving paths use, so evaluation exercises the
// production predictor rather than a one-row-at-a-time loop.
const evalBlock = 256

// EvaluateForest scores the rows of X selected by idx (every row when
// idx is nil) against labels y under the given probability threshold
// and returns the confusion counts. Predictions run through the batch
// kernel in evalBlock-row blocks; the result is identical to calling
// PredictProba per row.
func EvaluateForest(f *Forest, X [][]float64, y []int, idx []int, threshold float64) (Confusion, error) {
	var c Confusion
	if len(X) != len(y) {
		return c, fmt.Errorf("mlearn: %d rows but %d labels", len(X), len(y))
	}
	if idx == nil {
		idx = make([]int, len(X))
		for i := range idx {
			idx[i] = i
		}
	}
	d := f.NumFeatures()
	xs := make([]float64, 0, evalBlock*d)
	probs := make([]float64, evalBlock)
	for lo := 0; lo < len(idx); lo += evalBlock {
		hi := min(lo+evalBlock, len(idx))
		xs = xs[:0]
		for _, row := range idx[lo:hi] {
			if row < 0 || row >= len(X) {
				return c, fmt.Errorf("mlearn: eval index %d outside %d rows", row, len(X))
			}
			if len(X[row]) != d {
				return c, fmt.Errorf("mlearn: row %d has %d features, want %d", row, len(X[row]), d)
			}
			xs = append(xs, X[row]...)
		}
		out := probs[:hi-lo]
		f.PredictProbaBatch(xs, out)
		for i, p := range out {
			pred := 0
			if p >= threshold {
				pred = 1
			}
			c.Observe(y[idx[lo+i]], pred)
		}
	}
	return c, nil
}
