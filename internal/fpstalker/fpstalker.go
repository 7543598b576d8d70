// Package fpstalker reimplements the FP-Stalker baseline (Vastel et
// al., IEEE S&P 2018): linking evolved browser fingerprints to known
// browser instances, in both its rule-based and learning-based
// variants. The paper under reproduction evaluates FP-Stalker at
// dataset scale and finds that both variants degrade badly — matching
// time grows linearly with the database (Figure 9) and F1 falls
// (Figure 10) — and documents characteristic false positives/negatives
// (Figure 11). This package reproduces the algorithms and the
// evaluation harness behind those figures, and adds the blocked,
// parallel matching engine (engine.go) that removes the Figure 9 wall
// while returning identical rankings.
package fpstalker

import (
	"context"
	"slices"
	"sort"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// Candidate is one ranked linking candidate.
type Candidate struct {
	ID    string
	Score float64
}

// Linker is the common interface of both variants.
type Linker interface {
	// TopK returns up to k candidate browser IDs for the query, ranked
	// best first. An empty result means "new browser instance".
	TopK(rec *fingerprint.Record, k int) []Candidate
	// Add registers rec as the latest fingerprint of instance id.
	Add(id string, rec *fingerprint.Record)
	// Len returns the number of known instances.
	Len() int
}

// DynamicLinker extends Linker with the operations a long-running
// service needs: cancellable queries, entry eviction, and a canonical
// index digest for crash-recovery verification. Both variants
// implement it.
type DynamicLinker interface {
	Linker
	// TopKCtx is TopK with cooperative cancellation: a ctx that expires
	// mid-scan aborts the scoring workers within a bounded number of
	// candidates and returns ctx's error. A nil ctx never cancels and
	// adds no overhead.
	TopKCtx(ctx context.Context, rec *fingerprint.Record, k int) ([]Candidate, error)
	// Remove evicts id's entry from the table and every index,
	// reporting whether the instance was known.
	Remove(id string) bool
	// IndexDigest returns a canonical hash of the entry table and the
	// blocking index — equal digests mean identical rankings for every
	// query.
	IndexDigest() string
}

// entry is the scorers' working shape: the last known fingerprint of
// one instance, reduced to the preparsed fields scoring consults on
// every comparison — the structured UA, the canonical feature keys,
// and the handful of scalars the rules read. Precomputing these at
// Add time is what keeps per-candidate scoring at integer compares —
// re-deriving them per pair (two regex parses plus ~30 Value.Key
// builds, several of which hash whole font lists) is O(candidates)
// redundant work per query, the dominant term of the paper's Figure 9
// wall.
//
// Entries no longer retain the *fingerprint.Record. Stored instances
// live as rows of the interned SoA table (store.go); the scoring loops
// materialize entry views from rows via soa.fillView, whose slices and
// UA alias the intern pools. Query-side and training-side entries are
// built standalone by newEntry/newPairEntry. Everything a scorer ever
// read off the record is carried here: the raw UA string, the storage
// toggles, the timestamp (as Unix nanoseconds), and the fingerprint
// hashes the exact-match index compares.
type entry struct {
	id    string
	uaStr string // verbatim UserAgent (unparseable-agent rule, raw index)
	ua    *useragent.UA
	keys  []uint64 // hashed non-IP feature keys, in Schema order

	// hrs is the record time as fractional hours since the Unix epoch
	// (0 when the time is the zero value): the recency nudge runs per
	// accepted candidate, and float arithmetic there is far cheaper
	// than time.Time comparisons. timeNS is the same instant in Unix
	// nanoseconds — the pair model's time-gap feature and the index
	// digest both consume it.
	hrs    float64
	timeNS int64

	// fpHash is FP.Hash(false) — the digest/exact-index bucket key.
	// eqHash (FP.Hash(true)) and fontsHash (order-independent font
	// multiset hash) are the pair fingerprint.Equal compares, so the
	// exact-match rule needs no record.
	fpHash    uint64
	eqHash    uint64
	fontsHash uint64

	// Sorted, deduplicated element hashes of the set features the pair
	// model computes Jaccard similarities over. Precomputing them turns
	// the per-pair Jaccard into an allocation-free merge walk instead
	// of building two maps per candidate.
	fonts, plugins, langs []uint64

	ok           bool // ua parsed
	cookie       bool // CookieEnabled (rule 4, pair storage feature)
	localStorage bool // LocalStorage (rule 4, pair storage feature)
	hasTime      bool // record time non-zero
}

func newEntry(id string, rec *fingerprint.Record) *entry {
	fp := rec.FP
	e := &entry{
		id:    id,
		uaStr: fp.UserAgent,
		keys:  featureKeys(fp),
		// UnixNano of the zero time is an out-of-range constant, but a
		// deterministic one: the digest prints it verbatim (as the
		// record-carrying layout did) and every arithmetic use is gated
		// on hasTime.
		timeNS:       rec.Time.UnixNano(),
		fpHash:       fp.Hash(false),
		eqHash:       fp.Hash(true),
		fontsHash:    hashutil.HashSet(fp.Fonts),
		cookie:       fp.CookieEnabled,
		localStorage: fp.LocalStorage,
	}
	if !rec.Time.IsZero() {
		e.hrs = float64(e.timeNS) / float64(time.Hour)
		e.hasTime = true
	}
	if ua, err := useragent.CachedParse(fp.UserAgent); err == nil {
		e.ua, e.ok = &ua, true
	}
	return e
}

// newPairEntry is newEntry plus the sorted set-feature hashes the pair
// model's Jaccard features consume. The rule-based linker never needs
// them, so only the learning paths pay for building them.
func newPairEntry(id string, rec *fingerprint.Record) *entry {
	e := newEntry(id, rec)
	e.fonts = sortedHashSet(rec.FP.Fonts)
	e.plugins = sortedHashSet(rec.FP.Plugins)
	e.langs = sortedHashSet(rec.FP.Languages)
	return e
}

// sortedHashSet hashes each element and returns the sorted unique
// hashes — the merge-friendly set representation jaccardSorted walks.
func sortedHashSet(ss []string) []uint64 {
	if len(ss) == 0 {
		return nil
	}
	hs := make([]uint64, len(ss))
	for i, s := range ss {
		hs[i] = hashutil.Hash64(s)
	}
	slices.Sort(hs)
	out := hs[:1]
	for _, h := range hs[1:] {
		if h != out[len(out)-1] {
			out = append(out, h)
		}
	}
	return out
}

// nonIPSchema lists the non-IP feature descriptors in Schema order;
// rareAt marks the positions of the rarely-changing set (canvas,
// fonts, GPU renderer, GPU images).
var nonIPSchema, rareAt = func() ([]fingerprint.ID, []bool) {
	ids := make([]fingerprint.ID, 0, fingerprint.NumNonIP)
	rare := make([]bool, 0, fingerprint.NumNonIP)
	for _, d := range fingerprint.Schema {
		if d.IsIP {
			continue
		}
		ids = append(ids, d.ID)
		switch d.ID {
		case fingerprint.FeatCanvas, fingerprint.FeatFontList,
			fingerprint.FeatGPURenderer, fingerprint.FeatGPUImage:
			rare = append(rare, true)
		default:
			rare = append(rare, false)
		}
	}
	return ids, rare
}()

// Positions of the individually-compared features inside a keys
// vector. The pair model's equality features read these instead of the
// record fields: the schema's Value() canonicalization is injective
// for each (Timezone renders as the decimal offset, the rest are the
// verbatim strings), so key equality matches field equality up to the
// same ~2^-64 hash-collision odds featureKeys documents.
var keyIdxTimezone, keyIdxCanvas, keyIdxGPURenderer, keyIdxAudio,
	keyIdxScreen, keyIdxGPUImage = func() (tz, cv, gr, au, sc, gi int) {
	for i, id := range nonIPSchema {
		switch id {
		case fingerprint.FeatTimezone:
			tz = i
		case fingerprint.FeatCanvas:
			cv = i
		case fingerprint.FeatGPURenderer:
			gr = i
		case fingerprint.FeatAudio:
			au = i
		case fingerprint.FeatScreenResolution:
			sc = i
		case fingerprint.FeatGPUImage:
			gi = i
		}
	}
	return
}()

// featureKeys precomputes a 64-bit hash of the canonical key of every
// non-IP schema feature, in Schema order. Fixed-width hashes make the
// per-pair comparison ~30 integer equality checks instead of string
// compares over font-list digests; a hash collision misreading one
// differing feature as equal happens with probability ~2^-64 per pair,
// far below the noise floor of the similarity scores it feeds.
func featureKeys(fp *fingerprint.Fingerprint) []uint64 {
	keys := make([]uint64, len(nonIPSchema))
	for i, id := range nonIPSchema {
		v := fp.Value(id)
		if v.Kind == fingerprint.KindSet {
			keys[i] = hashutil.HashSet(v.Set)
		} else {
			keys[i] = hashutil.Hash64(v.Str)
		}
	}
	return keys
}

// countKeyDiffs counts differing non-IP features between two
// precomputed key slices, and separately the differing members of the
// rarely-changing set.
func countKeyDiffs(a, b []uint64) (total, rare int) {
	b = b[:len(a)] // keys always share the schema length; hoist the bounds check
	for i := range a {
		if a[i] != b[i] {
			total++
			if rareAt[i] {
				rare++
			}
		}
	}
	return total, rare
}

// countKeyDiffsBudget is countKeyDiffs with the rule-based linker's
// budgets applied inline: it bails at the first feature that exceeds
// either cap, so clearly-different same-bucket entries are rejected
// without scanning the whole schema. ok=false means over budget.
func countKeyDiffsBudget(a, b []uint64, maxTotal, maxRare int) (total int, ok bool) {
	b = b[:len(a)] // keys always share the schema length; hoist the bounds check
	rare := 0
	for i := range a {
		if a[i] != b[i] {
			total++
			if total > maxTotal {
				return 0, false
			}
			if rareAt[i] {
				rare++
				if rare > maxRare {
					return 0, false
				}
			}
		}
	}
	return total, true
}

// rankBefore is the total order of candidate rankings: score
// descending, then ID ascending. IDs are unique, so the order is
// strict — serial, parallel and blocked runs all rank identically.
func rankBefore(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// Rank returns the leading k of cands best-first — score descending,
// then ID ascending (rankBefore) — as a fresh slice, leaving cands
// free for reuse. It is the one ranking order of every linker. For
// large accepted sets it selects instead of sorting: one insertion
// pass through a k-sized ordered buffer under the same total order,
// so the result is identical to sort-then-truncate.
func Rank(cands []Candidate, k int) []Candidate {
	if len(cands) == 0 || k <= 0 {
		return nil
	}
	if len(cands) <= k {
		out := append(make([]Candidate, 0, len(cands)), cands...)
		sort.Slice(out, func(i, j int) bool { return rankBefore(out[i], out[j]) })
		return out
	}
	best := make([]Candidate, 0, k+1)
	for _, c := range cands {
		if len(best) == k && !rankBefore(c, best[k-1]) {
			continue
		}
		best = append(best, c)
		for i := len(best) - 1; i > 0 && rankBefore(best[i], best[i-1]); i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}
