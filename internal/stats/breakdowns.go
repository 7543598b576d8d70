package stats

import (
	"sort"
	"time"

	"fpdyn/internal/fingerprint"
)

// Histogram maps a small-integer bucket to a count.
type Histogram map[int]int

// Total returns the histogram's mass. Callers reading several shares
// (report loops iterate every bucket) compute it once and use ShareOf,
// instead of letting Share re-sum the map per bucket — O(n) total
// rather than O(n²).
func (h Histogram) Total() int {
	total := 0
	for _, c := range h {
		total += c
	}
	return total
}

// ShareOf returns the fraction (0–1) of mass at bucket k against a
// precomputed Total — the cached-sum path for per-bucket loops.
func (h Histogram) ShareOf(k, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(h[k]) / float64(total)
}

// Share returns the fraction (0–1) of mass at bucket k. It re-sums the
// histogram; inside loops prefer Total + ShareOf.
func (h Histogram) Share(k int) float64 {
	return h.ShareOf(k, h.Total())
}

// VisitBucket is one time bucket of Figure 4.
type VisitBucket struct {
	Start     time.Time
	FirstTime int
	Returning int
}

// VisitAccumulator buckets visits into fixed windows aligned to
// multiples of the bucket length, splitting first-time from returning
// browser instances (Figure 4). Visits may arrive in any order.
type VisitAccumulator struct {
	bucket  time.Duration
	buckets map[int64]*VisitBucket
}

// NewVisitAccumulator returns an empty accumulator over windows of the
// given length.
func NewVisitAccumulator(bucket time.Duration) *VisitAccumulator {
	return &VisitAccumulator{bucket: bucket, buckets: map[int64]*VisitBucket{}}
}

// Add counts one visit at t; first marks its instance's first visit.
func (a *VisitAccumulator) Add(t time.Time, first bool) {
	start := t.Truncate(a.bucket)
	b := a.buckets[start.UnixNano()]
	if b == nil {
		b = &VisitBucket{Start: start}
		a.buckets[start.UnixNano()] = b
	}
	if first {
		b.FirstTime++
	} else {
		b.Returning++
	}
}

// Series returns the non-empty buckets in time order.
func (a *VisitAccumulator) Series() []VisitBucket {
	out := make([]VisitBucket, 0, len(a.buckets))
	for _, b := range a.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TypeBreakdown counts browser instances by browser family and OS
// family (Figures 5 and 6). The zero value is an empty breakdown.
type TypeBreakdown struct {
	ByBrowser, ByOS map[string]int
}

// Add counts one instance by its first record.
func (t *TypeBreakdown) Add(first *fingerprint.Record) {
	if t.ByBrowser == nil {
		t.ByBrowser, t.ByOS = map[string]int{}, map[string]int{}
	}
	t.ByBrowser[first.Browser]++
	t.ByOS[first.OS]++
}

// StabilityCell keys the Figure 7 matrix: instances with a given visit
// count and dynamics (changed-fingerprint) count.
type StabilityCell struct {
	Visits   int
	Dynamics int
}

// StabilityBreakdown is the Figure 7 matrix: instance counts per
// (visits, core-changing consecutive pairs) cell.
type StabilityBreakdown map[StabilityCell]int

// Add counts one instance with the given visit count and number of
// consecutive-visit pairs that changed the core fingerprint. maxVisits
// caps both axes (larger counts clamp into the tail bucket, matching
// the figure).
func (s StabilityBreakdown) Add(visits, changes, maxVisits int) {
	s[StabilityCell{min(visits, maxVisits), min(changes, maxVisits)}]++
}

// StableShareAtVisits returns the fraction of instances with exactly v
// visits whose fingerprint never changed — the paper: about half at
// 3–4 visits, decreasing to about one third.
func StableShareAtVisits(cells map[StabilityCell]int, v int) float64 {
	total, stable := 0, 0
	for cell, n := range cells {
		if cell.Visits == v {
			total += n
			if cell.Dynamics == 0 {
				stable += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(stable) / float64(total)
}
