package fpstalker

import (
	"context"
	"fmt"
	"sort"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
)

// RuleLinker is the rule-based FP-Stalker variant: a cascade of
// hand-crafted constraints filters candidates, then the surviving ones
// are ranked by feature similarity.
//
// The rules follow the original paper:
//
//  1. exact match wins immediately, served from a hash index — the
//     paper's Advice 6 caching suggestion;
//  2. the candidate must share browser family, OS family and platform;
//  3. the browser version must not move backwards;
//  4. a small set of user-controlled "must equal" features (cookie and
//     localStorage support) must match — which is exactly why storage
//     toggles produce the paper's Figure 11(b) false negative;
//  5. at most 2 of the rarely-changing features (canvas, fonts, GPU
//     renderer, GPU image) and at most maxDiffs features overall may
//     differ.
//
// Hardware features like CPU cores are deliberately NOT constrained —
// reproducing the Figure 11(c) false positive the paper reports.
//
// Candidate generation runs through the engine's blocking index (rule 2
// is exactly the bucket key) and the surviving set is scored on a
// worker pool; see engine.go. Both are ablatable, and Add/TopK are safe
// for concurrent callers.
type RuleLinker struct {
	// NoBlocking disables the candidate-blocking index so every query
	// scans the whole table — the paper's Figure 9 configuration.
	NoBlocking bool
	// Workers caps the scoring pool: 0 means GOMAXPROCS, 1 is serial.
	Workers int

	eng *engine
}

// maxDiffs is rule 5's overall differing-feature budget.
const maxDiffs = 5

// NewRuleLinker returns an empty rule-based linker.
func NewRuleLinker() *RuleLinker {
	return &RuleLinker{eng: newEngine()}
}

// Len implements Linker.
func (l *RuleLinker) Len() int { return l.eng.size() }

// Add implements Linker: rec becomes the last known fingerprint of id.
func (l *RuleLinker) Add(id string, rec *fingerprint.Record) {
	e := newEntry(id, rec)
	l.eng.mu.Lock()
	l.eng.add(id, e)
	l.eng.mu.Unlock()
}

// Remove implements DynamicLinker: it deletes id's entry from the
// table, the blocking index and the exact-match hash index. It reports
// whether the instance was known. Safe for concurrent use with Add and
// TopK — the eviction path of a long-running linker.
func (l *RuleLinker) Remove(id string) bool {
	l.eng.mu.Lock()
	defer l.eng.mu.Unlock()
	return l.eng.remove(id)
}

// IndexDigest implements DynamicLinker: a canonical digest over the
// entry table, the blocking index and the exact-match hash index.
func (l *RuleLinker) IndexDigest() string {
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	var b []byte
	b = append(b, l.eng.indexDigest()...)
	lines := make([]string, 0, len(l.eng.byHash))
	for h, bucket := range l.eng.byHash {
		lines = append(lines, fmt.Sprintf("hash %016x%s", h, bucketIDs(l.eng, bucket)))
	}
	sort.Strings(lines)
	for _, line := range lines {
		b = append(b, '\n')
		b = append(b, line...)
	}
	return hashutil.SHA1HexBytes(b)
}

// TopK implements Linker.
func (l *RuleLinker) TopK(rec *fingerprint.Record, k int) []Candidate {
	cands, _ := l.TopKCtx(nil, rec, k) // nil ctx: never canceled
	return cands
}

// TopKCtx is TopK with cooperative cancellation: a ctx that expires
// mid-scan stops the scoring workers within cancelSlice candidates and
// returns ctx's error — the deadline-propagation contract fplinkd
// relies on so a timed-out query stops consuming CPU.
func (l *RuleLinker) TopKCtx(ctx context.Context, rec *fingerprint.Record, k int) ([]Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	// One query-side entry per TopK: the UA parse, the ~30 feature keys
	// and the fingerprint hashes are computed once here instead of once
	// per candidate.
	q := newEntry("", rec)
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	// Rule 1: exact match via the index (hash bucket, then the
	// fingerprint.Equal-equivalent check over the stored hashes).
	if idxs := l.eng.byHash[q.fpHash]; len(idxs) > 0 {
		cands := make([]Candidate, 0, len(idxs))
		for _, i := range idxs {
			if l.eng.exactMatch(i, q) {
				cands = append(cands, Candidate{ID: l.eng.tab.ids[i], Score: 1e9})
			}
		}
		if len(cands) > 0 {
			return Rank(cands, k), nil
		}
	}

	cs := l.eng.ruleCandidates(q, l.NoBlocking)
	return l.eng.scoreTopK(ctx, cs, l.Workers, k, func(es []*entry, out []Candidate) []Candidate {
		for _, e := range es {
			if s, ok := l.score(q, e); ok {
				out = append(out, Candidate{ID: e.id, Score: s})
			}
		}
		return out
	})
}

// score applies rules 2–5 and returns the similarity score. It is the
// complete filter: blocking only skips entries score would reject, so
// blocked and full scans rank identically.
func (l *RuleLinker) score(q, e *entry) (float64, bool) {
	// Rule 2: same browser family / OS family / platform.
	if q.ok && e.ok {
		if q.ua.Browser != e.ua.Browser || q.ua.OS != e.ua.OS || q.ua.Mobile != e.ua.Mobile {
			return 0, false
		}
		// Rule 3: version must not decrease.
		if q.ua.BrowserVersion.Compare(e.ua.BrowserVersion) < 0 {
			return 0, false
		}
		if q.ua.OSVersion.Compare(e.ua.OSVersion) < 0 {
			return 0, false
		}
	} else if q.uaStr != e.uaStr {
		// Unparseable agents must match verbatim.
		return 0, false
	}

	// Rule 4: user-controlled storage toggles must be equal.
	if q.cookie != e.cookie || q.localStorage != e.localStorage {
		return 0, false
	}

	// Rule 5: difference budgets, over the precomputed keys.
	total, ok := countKeyDiffsBudget(q.keys, e.keys, maxDiffs, 2)
	if !ok {
		return 0, false
	}

	// Rank by number of identical features; nudge with recency so ties
	// break toward fresher entries.
	score := float64(fingerprint.NumNonIP - total)
	if q.hasTime && e.hasTime && q.hrs > e.hrs {
		age := q.hrs - e.hrs
		score += 1.0 / (1.0 + age/24.0) // ≤ 1 point for recency
	}
	return score, true
}
