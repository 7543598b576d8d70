package fpstalker

import (
	"fmt"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
)

// EvalResult aggregates a linking evaluation run (the Figure 9/10
// quantities). The confusion counts and the Precision/Recall/F1
// metrics are promoted from mlearn.Confusion, with the
// linking-specific reading: TP = truth in the top-k, FN = truth in
// the DB but missed, FP = candidates that hid or displaced the truth,
// TN = new instance correctly given no candidates.
type EvalResult struct {
	mlearn.Confusion
	Queries int

	DBSize        int           // instances known at the end
	MeanMatchTime time.Duration // mean TopK latency
}

// InstanceID renders the canonical evaluation identity for a true
// instance serial.
func InstanceID(serial int) string { return fmt.Sprintf("i%d", serial) }

// Evaluate replays a labelled record stream against the linker: each
// record is first used as a query (if its instance was seen before, the
// truth must appear in the top-k; if it is new, the linker should
// return nothing), then registered under its true identity. This is
// the FP-Stalker evaluation protocol at the heart of Figure 10.
func Evaluate(l Linker, records []*fingerprint.Record, instances []int, k int) EvalResult {
	var res EvalResult
	seen := make(map[int]bool)
	var totalTime time.Duration
	for i, rec := range records {
		inst := instances[i]
		trueID := InstanceID(inst)

		start := time.Now()
		cands := l.TopK(rec, k)
		totalTime += time.Since(start)
		res.Queries++

		if seen[inst] {
			hit := false
			for _, c := range cands {
				if c.ID == trueID {
					hit = true
					break
				}
			}
			if hit {
				res.TP++
			} else {
				res.FN++
				if len(cands) > 0 {
					res.FP++
				}
			}
		} else {
			if len(cands) == 0 {
				res.TN++
			} else {
				res.FP++
			}
		}

		l.Add(trueID, rec)
		seen[inst] = true
	}
	res.DBSize = l.Len()
	if res.Queries > 0 {
		// Round half-up rather than truncate: integer division would
		// floor a sub-nanosecond remainder to 0 and report a zero mean
		// on fast linkers with many queries.
		n := time.Duration(res.Queries)
		res.MeanMatchTime = (totalTime + n/2) / n
	}
	return res
}

// TimeMatching measures the mean TopK latency of l for the given
// queries — the Figure 9 measurement. Each linker is timed on its
// production path: for LearnLinker that is one early-exit forest
// evaluation per kept candidate pair.
//
// Protocol: one untimed warm-up pass over the full query set (so the
// UA parse memo, the exact-match index buckets and the CPU caches are
// in the state a steady-state server would see), then one timed pass.
// TopK never mutates the database, so both passes hit an identical
// table and the warm-up does not bias the blocked/unblocked
// comparison. The mean is rounded half-up.
func TimeMatching(l Linker, queries []*fingerprint.Record, k int) time.Duration {
	if len(queries) == 0 {
		return 0
	}
	for _, q := range queries { // warm-up, untimed
		l.TopK(q, k)
	}
	start := time.Now()
	for _, q := range queries {
		l.TopK(q, k)
	}
	n := time.Duration(len(queries))
	return (time.Since(start) + n/2) / n
}
