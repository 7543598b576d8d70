package stats

import (
	"math"
	"sort"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
)

// The paper's conclusion poses the uniqueness/linkability trade-off as
// future work: uniqueness (feature entropy) determines *to what
// extent* a tool can track a browser instance, linkability (feature
// stability) determines *for how long*. This file quantifies both per
// feature so a fingerprinting tool can choose its feature set along
// the frontier.

// TradeoffAccumulator gathers both axes of the trade-off: feature
// values over one fingerprint per browser instance (each instance's
// first record, so loyal visitors are not over-weighted) and feature
// moves over the changed dynamics.
type TradeoffAccumulator struct {
	values      []map[string]int // per feature: value key → instances
	instances   int
	changeCount []int // per feature: changed dynamics moving it
	changed     int
}

// NewTradeoffAccumulator returns an empty accumulator.
func NewTradeoffAccumulator() *TradeoffAccumulator {
	a := &TradeoffAccumulator{
		values:      make([]map[string]int, fingerprint.NumFeatures),
		changeCount: make([]int, fingerprint.NumFeatures),
	}
	for i := range a.values {
		a.values[i] = map[string]int{}
	}
	return a
}

// AddFirst counts one instance's first fingerprint.
func (a *TradeoffAccumulator) AddFirst(fp *fingerprint.Fingerprint) {
	a.instances++
	for _, desc := range fingerprint.Schema {
		a.values[desc.ID][fp.Value(desc.ID).Key()]++
	}
}

// AddChanged counts one dynamics; those without a core change are
// skipped.
func (a *TradeoffAccumulator) AddChanged(d *dynamics.Dynamics) {
	if !d.CoreChanged() {
		return
	}
	a.changed++
	for _, id := range d.Delta.FeatureIDs() {
		a.changeCount[id]++
	}
}

// entropy returns the Shannon entropy in bits of each feature over the
// instances' first fingerprints.
func (a *TradeoffAccumulator) entropy() map[fingerprint.ID]float64 {
	out := make(map[fingerprint.ID]float64, fingerprint.NumFeatures)
	n := float64(a.instances)
	if n == 0 {
		return out
	}
	for _, desc := range fingerprint.Schema {
		counts := a.values[desc.ID]
		// Sum in sorted-key order: float addition is not associative,
		// and map order would make the low bits vary run to run.
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h := 0.0
		for _, k := range keys {
			p := float64(counts[k]) / n
			h -= p * math.Log2(p)
		}
		out[desc.ID] = h
	}
	return out
}

// TradeoffRow scores one feature on both axes.
type TradeoffRow struct {
	Name string
	// EntropyBits is the uniqueness axis.
	EntropyBits float64
	// InstabilityPct is the share (0–100) of changed dynamics in which
	// this feature moved — the inverse linkability axis.
	InstabilityPct float64
	// Utility is the frontier score: entropy discounted by instability.
	// A feature you cannot re-recognize next week contributes little to
	// long-term tracking however unique it is today.
	Utility float64
}

// Rows returns the trade-off table sorted by descending utility.
func (a *TradeoffAccumulator) Rows() []TradeoffRow {
	entropy := a.entropy()
	rows := make([]TradeoffRow, 0, fingerprint.NumFeatures)
	for _, desc := range fingerprint.Schema {
		instab := 0.0
		if a.changed > 0 {
			instab = 100 * float64(a.changeCount[desc.ID]) / float64(a.changed)
		}
		row := TradeoffRow{
			Name:           desc.Name,
			EntropyBits:    entropy[desc.ID],
			InstabilityPct: instab,
		}
		// Discount: a feature changing in share s of dynamics keeps
		// (1-s)^k of its value over k expected changes; use k=4 as the
		// study-window scale.
		keep := math.Pow(1-instab/100, 4)
		row.Utility = row.EntropyBits * keep
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Utility != rows[j].Utility {
			return rows[i].Utility > rows[j].Utility
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
