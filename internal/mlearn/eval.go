package mlearn

// Binary-classification evaluation: confusion counts with the derived
// metrics. The pair-linking evaluation reports through it
// (fpstalker.EvalResult embeds Confusion).

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
