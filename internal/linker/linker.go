// Package linker implements the dynamics-aware fingerprint linker the
// paper's advice section sketches but leaves as future work:
//
//   - Advice 5: consider the *semantics* of dynamics — a desktop-site
//     request or a storage toggle is a predictable user action, not a
//     different browser (fixing the Figure 11(a)/(b) false negatives);
//   - Advice 6: cache — an exact-match index and a stable-feature
//     candidate index replace FP-Stalker's linear scan, meeting the
//     100ms real-time-bidding budget at scale;
//   - Advice 7: use feature correlations — a candidate whose delta
//     violates a known coupling (localStorage flipped without its
//     Chrome cookie twin; a GPU API level change without its audio
//     companion) is penalized;
//   - Advice 8: use real-world release timing — around a browser
//     release, version-advance deltas toward the released version are
//     expected and boosted.
//
// The linker satisfies the same fpstalker.Linker interface, so the
// Figure 9/10 harness compares all three implementations directly.
package linker

import (
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// Hybrid is the dynamics-aware linker. Construct with New.
type Hybrid struct {
	entries []*entry
	byID    map[string]int
	byExact map[uint64][]int
	// byStable buckets entries by the narrow stable key (hardware +
	// normalized browser family + device model): the Advice-6 candidate
	// index — a typical query only scans its own small bucket.
	byStable map[uint64][]int
	// byClass buckets by the device-agnostic class key; used only by
	// queries whose identity is in flux (a desktop-request or spoofed
	// UA flagged by the consistency features), which must search across
	// form factors.
	byClass map[uint64][]int
	// byAlias holds only entries currently presenting an inconsistent
	// identity (ConsOS or ConsBrowser false), keyed by class: a normal
	// mobile query checks it to find its own desktop-requested past.
	byAlias map[uint64][]int
}

type entry struct {
	id     string
	rec    *fingerprint.Record
	ua     useragent.UA
	uaOK   bool
	stable uint64
	class  uint64
}

// maxDiffs is the overall differing-feature budget after semantic
// normalization — slightly looser than FP-Stalker's 5, because
// normalization already explains away action-driven diffs.
const maxDiffs = 6

// New returns an empty hybrid linker. Advice-8 timing boosts read the
// bundled real-world release calendar, population.BrowserReleases.
func New() *Hybrid {
	return &Hybrid{
		byID:     make(map[string]int),
		byExact:  make(map[uint64][]int),
		byStable: make(map[uint64][]int),
		byClass:  make(map[uint64][]int),
		byAlias:  make(map[uint64][]int),
	}
}

var _ fpstalker.Linker = (*Hybrid)(nil)

// normalizedUA undoes predictable user actions on the presented UA:
// a desktop-site request maps back to the canonical mobile identity
// class. The stable key uses the browser family after normalization,
// so mobile Chrome and its desktop-requested alias share a bucket.
func normalizedFamily(ua useragent.UA) string {
	// Desktop requests present Chrome-on-Linux or Safari-on-macOS.
	// Bucket those with their mobile twins: the bucket key merges the
	// families that can alias under a desktop request.
	switch {
	case ua.Browser == useragent.Chrome && ua.OS == useragent.Linux:
		return "chrome-class"
	case ua.Browser == useragent.ChromeMobile || ua.Browser == useragent.Samsung:
		return "chrome-class"
	case ua.Browser == useragent.Safari || ua.Browser == useragent.MobileSafari:
		return "safari-class"
	case ua.Browser == useragent.Firefox || ua.Browser == useragent.FirefoxMobile:
		return "firefox-class"
	}
	return ua.Browser
}

// classKey buckets a record by the features that survive every
// dynamics category including identity swaps: GPU vendor/renderer, CPU
// class and the normalized browser family.
func classKey(rec *fingerprint.Record, ua useragent.UA, uaOK bool) uint64 {
	family := "unknown"
	if uaOK {
		family = normalizedFamily(ua)
	}
	return hashutil.HashStrings(
		rec.FP.GPUVendor, rec.FP.GPURenderer, rec.FP.CPUClass, family,
	)
}

// stableKey is the narrow bucket: class plus the device model, which
// never changes within an instance.
func stableKey(rec *fingerprint.Record, ua useragent.UA, uaOK bool) uint64 {
	device := ""
	if uaOK {
		device = ua.Device
	}
	return hashutil.Combine(classKey(rec, ua, uaOK), hashutil.Hash64(device))
}

// inconsistent reports whether the record presents a swapped identity
// (desktop request or spoofed agent), flagged by consistency features.
func inconsistent(rec *fingerprint.Record) bool {
	return !rec.FP.ConsOS || !rec.FP.ConsBrowser
}

// Len implements fpstalker.Linker.
func (h *Hybrid) Len() int { return len(h.entries) }

// Add implements fpstalker.Linker.
func (h *Hybrid) Add(id string, rec *fingerprint.Record) {
	e := &entry{id: id, rec: rec}
	if ua, err := useragent.CachedParse(rec.FP.UserAgent); err == nil {
		e.ua, e.uaOK = ua, true
	}
	e.class = classKey(rec, e.ua, e.uaOK)
	e.stable = hashutil.Combine(e.class, hashutil.Hash64(e.ua.Device))
	if i, ok := h.byID[id]; ok {
		old := h.entries[i]
		h.removeFrom(h.byExact, old.rec.FP.Hash(false), i)
		h.removeFrom(h.byStable, old.stable, i)
		h.removeFrom(h.byClass, old.class, i)
		if inconsistent(old.rec) {
			h.removeFrom(h.byAlias, old.class, i)
		}
		h.entries[i] = e
		h.indexEntry(e, i)
		return
	}
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	h.byID[id] = i
	h.indexEntry(e, i)
}

func (h *Hybrid) indexEntry(e *entry, i int) {
	h.byExact[e.rec.FP.Hash(false)] = append(h.byExact[e.rec.FP.Hash(false)], i)
	h.byStable[e.stable] = append(h.byStable[e.stable], i)
	h.byClass[e.class] = append(h.byClass[e.class], i)
	if inconsistent(e.rec) {
		h.byAlias[e.class] = append(h.byAlias[e.class], i)
	}
}

func (h *Hybrid) removeFrom(m map[uint64][]int, key uint64, i int) {
	s := m[key]
	for k, v := range s {
		if v == i {
			s[k] = s[len(s)-1]
			m[key] = s[:len(s)-1]
			break
		}
	}
	if len(m[key]) == 0 {
		delete(m, key)
	}
}

// TopK implements fpstalker.Linker.
func (h *Hybrid) TopK(rec *fingerprint.Record, k int) []fpstalker.Candidate {
	if k <= 0 {
		return nil
	}
	// Advice 6 fast path: exact re-presentation.
	if idxs := h.byExact[rec.FP.Hash(false)]; len(idxs) > 0 {
		var cands []fpstalker.Candidate
		for _, i := range idxs {
			if h.entries[i].rec.FP.Equal(rec.FP) {
				cands = append(cands, fpstalker.Candidate{ID: h.entries[i].id, Score: 1e9})
			}
		}
		if len(cands) > 0 {
			return fpstalker.Rank(cands, k)
		}
	}

	qUA, qErr := useragent.CachedParse(rec.FP.UserAgent)
	qOK := qErr == nil
	// Candidate generation: the narrow device bucket for consistent
	// queries, widened to the whole class only when the query itself
	// presents a swapped identity; consistent queries additionally
	// check the (tiny) alias set in their class, to find their own
	// desktop-requested or spoofed past self.
	class := classKey(rec, qUA, qOK)
	var bucket []int
	if inconsistent(rec) {
		bucket = h.byClass[class]
	} else {
		bucket = h.byStable[stableKey(rec, qUA, qOK)]
		if alias := h.byAlias[class]; len(alias) > 0 {
			bucket = append(append([]int(nil), bucket...), alias...)
		}
	}
	var cands []fpstalker.Candidate
	seen := make(map[int]bool, len(bucket))
	for _, i := range bucket {
		if seen[i] {
			continue
		}
		seen[i] = true
		e := h.entries[i]
		score, ok := h.score(rec, qUA, qOK, e)
		if ok {
			cands = append(cands, fpstalker.Candidate{ID: e.id, Score: score})
		}
	}
	return fpstalker.Rank(cands, k)
}
