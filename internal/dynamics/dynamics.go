// Package dynamics implements the paper's primary contribution: the
// generation of the fingerprint-dynamics dataset (§2.3) and the
// classification of each piece of dynamics into its causes (§3.2.2,
// Table 2) — browser or OS updates, user actions, and environment
// updates, plus their composites.
package dynamics

import (
	"fpdyn/internal/browserid"
	"fpdyn/internal/diff"
	"fpdyn/internal/fingerprint"
)

// Dynamics is one piece of fingerprint dynamics: the delta between two
// consecutive fingerprints of the same browser instance, with the
// records kept for context (the classifier parses user agents and
// consults cookies/timestamps).
type Dynamics struct {
	BrowserID string
	From, To  *fingerprint.Record
	Delta     *diff.Delta
}

// CoreChanged reports whether any non-IP feature changed. IP features
// move whenever the user does and are excluded from the fingerprint
// identity (§3.1), so a pure IP delta is not a fingerprint change.
func (d *Dynamics) CoreChanged() bool {
	for _, fd := range d.Delta.Fields {
		if !fingerprint.Describe(fd.Feature).IsIP {
			return true
		}
	}
	return false
}

// Generate builds the dynamics dataset from ground-truth browser IDs:
// for every instance with more than one visit, the diff between each
// pair of consecutive fingerprints. Unchanged pairs are included with
// empty deltas (Figure 7 needs the stable-visit counts); use Changed to
// filter.
func Generate(gt *browserid.GroundTruth) []*Dynamics {
	total := 0
	for _, recs := range gt.Instances {
		total += max(len(recs)-1, 0)
	}
	out := make([]*Dynamics, 0, total)
	for _, id := range gt.InstanceIDs() {
		recs := gt.Instances[id]
		for i := 1; i < len(recs); i++ {
			out = append(out, &Dynamics{
				BrowserID: id,
				From:      recs[i-1],
				To:        recs[i],
				Delta:     diff.Diff(recs[i-1].FP, recs[i].FP),
			})
		}
	}
	return out
}

// Changed filters to dynamics whose core fingerprint actually changed.
func Changed(dyns []*Dynamics) []*Dynamics {
	out := make([]*Dynamics, 0, len(dyns))
	for _, d := range dyns {
		if d.CoreChanged() {
			out = append(out, d)
		}
	}
	return out
}
