package mlearn

// Binary-classification evaluation: confusion counts with the derived
// metrics. The pair-linking evaluation reports through it
// (fpstalker.EvalResult embeds Confusion).

// Confusion is a binary confusion matrix: class 1 is "positive".
type Confusion struct {
	TP int // predicted 1, truth 1
	FP int // predicted 1, truth 0
	FN int // predicted 0, truth 1
}

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
