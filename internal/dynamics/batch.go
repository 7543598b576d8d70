package dynamics

import "fpdyn/internal/parallel"

// ClassifyAll classifies every dynamics concurrently and returns the
// classifications in input order. The rules only read shared state —
// the immutable image store and the concurrency-safe cached UA parser —
// so the parallel pass is safe, and ordered collection keeps the output
// identical for every worker count.
func (c *Classifier) ClassifyAll(dyns []*Dynamics, workers int) []Classification {
	return parallel.Map(workers, len(dyns), func(i int) Classification {
		return c.Classify(dyns[i])
	})
}
