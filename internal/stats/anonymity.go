// Package stats computes the descriptive analyses of the paper's §3:
// anonymous-set identifiability (Figure 2), per-feature distinct/unique
// value counts for static values and dynamics (Table 1), and the
// population breakdowns of Figures 3–7.
//
// Each analysis is an accumulator fed one record, instance or dynamics
// at a time, so the streamed report can run it over a dataset it never
// holds; the slice entry points are loops over the same accumulators.
package stats

// AnonymityCurve is the Figure 2 series: for each anonymous-set size
// threshold k (1-indexed), the percentage of fingerprints whose
// anonymous set has at most k members.
type AnonymityCurve struct {
	// PctIdentifiable[k-1] is the share (0–100) of fingerprint
	// observations that fall in an anonymous set of size ≤ k.
	PctIdentifiable []float64
}

// anonSet is one fingerprint value's tally: the browser instances
// sharing it and the records carrying it.
type anonSet struct {
	last, instances, records int
}

// AnonymityAccumulator builds the identifiability curve one record at a
// time. The anonymous set of a fingerprint value is the set of browser
// instances sharing it. Records must arrive grouped by instance (each
// instance's records contiguous), so a value's instance count needs
// only the last instance that carried it.
type AnonymityAccumulator struct {
	sets    map[uint64]anonSet
	records int
}

// NewAnonymityAccumulator returns an empty accumulator.
func NewAnonymityAccumulator() *AnonymityAccumulator {
	return &AnonymityAccumulator{sets: make(map[uint64]anonSet)}
}

// Add feeds one record: instance is its browser instance's ordinal
// (any value distinct per instance, never 0) and h its fingerprint
// hash (fingerprint.Hash, with or without IP features).
func (a *AnonymityAccumulator) Add(instance int, h uint64) {
	s := a.sets[h]
	if s.last != instance {
		s.last = instance
		s.instances++
	}
	s.records++
	a.sets[h] = s
	a.records++
}

// Curve returns the identifiability curve up to set size maxK.
func (a *AnonymityAccumulator) Curve(maxK int) AnonymityCurve {
	curve := AnonymityCurve{PctIdentifiable: make([]float64, maxK)}
	if a.records == 0 {
		return curve
	}
	// Count records by their fingerprint's anonymous-set size.
	counts := make([]int, maxK+1)
	for _, s := range a.sets {
		if s.instances <= maxK {
			counts[s.instances] += s.records
		}
	}
	cum := 0
	for k := 1; k <= maxK; k++ {
		cum += counts[k]
		curve.PctIdentifiable[k-1] = 100 * float64(cum) / float64(a.records)
	}
	return curve
}
