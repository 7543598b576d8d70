package stats

import (
	"strings"

	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
)

// FeatureRow is one Table 1 row: distinct and unique value counts for a
// feature (or feature group), for static values and for dynamics.
// "Distinct" counts all values ever observed; "Unique" counts values
// observed exactly once.
type FeatureRow struct {
	Name    string
	IsGroup bool

	Distinct, Unique       int
	DynDistinct, DynUnique int
}

// FeatureAccumulator gathers the Table 1 counts one record and one
// dynamics at a time; the order of either does not matter.
type FeatureAccumulator struct {
	perFeature  []map[string]int
	groups      map[string]map[uint64]int
	overallCore map[uint64]int
	overallAll  map[uint64]int

	dynFeature     []map[string]int
	dynGroups      map[string]map[string]int
	dynOverallCore map[string]int
	dynOverallAll  map[string]int
}

// NewFeatureAccumulator returns an empty accumulator.
func NewFeatureAccumulator() *FeatureAccumulator {
	a := &FeatureAccumulator{
		perFeature:     make([]map[string]int, fingerprint.NumFeatures),
		groups:         map[string]map[uint64]int{},
		overallCore:    map[uint64]int{},
		overallAll:     map[uint64]int{},
		dynFeature:     make([]map[string]int, fingerprint.NumFeatures),
		dynGroups:      map[string]map[string]int{},
		dynOverallCore: map[string]int{},
		dynOverallAll:  map[string]int{},
	}
	for i := range a.perFeature {
		a.perFeature[i] = make(map[string]int)
		a.dynFeature[i] = make(map[string]int)
	}
	return a
}

// AddRecord counts one fingerprint's static values.
func (a *FeatureAccumulator) AddRecord(fp *fingerprint.Fingerprint) {
	groupKeys := map[string]uint64{}
	for _, d := range fingerprint.Schema {
		key := fp.Value(d.ID).Key()
		a.perFeature[d.ID][key]++
		groupKeys[d.Group] = hashutil.Combine(groupKeys[d.Group], hashutil.Hash64(key))
	}
	for g, h := range groupKeys {
		if a.groups[g] == nil {
			a.groups[g] = make(map[uint64]int)
		}
		a.groups[g][h]++
	}
	a.overallCore[fp.Hash(false)]++
	a.overallAll[fp.Hash(true)]++
}

// AddDelta counts one dynamics' delta key per changed feature; empty
// deltas are skipped.
func (a *FeatureAccumulator) AddDelta(delta *diff.Delta) {
	if delta.Empty() {
		return
	}
	groupParts := map[string][]string{}
	var coreParts, allParts []string
	for i := range delta.Fields {
		fd := &delta.Fields[i]
		desc := fingerprint.Describe(fd.Feature)
		key := fd.Key()
		a.dynFeature[fd.Feature][key]++
		groupParts[desc.Group] = append(groupParts[desc.Group], key)
		allParts = append(allParts, key)
		if !desc.IsIP {
			coreParts = append(coreParts, key)
		}
	}
	for g, parts := range groupParts {
		if a.dynGroups[g] == nil {
			a.dynGroups[g] = make(map[string]int)
		}
		a.dynGroups[g][strings.Join(parts, ";")]++
	}
	if len(coreParts) > 0 {
		a.dynOverallCore[strings.Join(coreParts, ";")]++
	}
	if len(allParts) > 0 {
		a.dynOverallAll[strings.Join(allParts, ";")]++
	}
}

// Rows returns Table 1: one row per schema feature, one aggregated row
// per feature group (the distinct combination of the group's
// features), and the two overall rows (excluding and including IP
// features).
func (a *FeatureAccumulator) Rows() []FeatureRow {
	distinctUnique := func(m map[string]int) (int, int) {
		u := 0
		for _, c := range m {
			if c == 1 {
				u++
			}
		}
		return len(m), u
	}
	distinctUnique64 := func(m map[uint64]int) (int, int) {
		u := 0
		for _, c := range m {
			if c == 1 {
				u++
			}
		}
		return len(m), u
	}

	var rows []FeatureRow
	lastGroup := ""
	for _, d := range fingerprint.Schema {
		if d.Group != lastGroup {
			lastGroup = d.Group
			gr := FeatureRow{Name: d.Group, IsGroup: true}
			gr.Distinct, gr.Unique = distinctUnique64(a.groups[d.Group])
			gr.DynDistinct, gr.DynUnique = distinctUnique(a.dynGroups[d.Group])
			rows = append(rows, gr)
		}
		r := FeatureRow{Name: d.Name}
		r.Distinct, r.Unique = distinctUnique(a.perFeature[d.ID])
		r.DynDistinct, r.DynUnique = distinctUnique(a.dynFeature[d.ID])
		rows = append(rows, r)
	}

	core := FeatureRow{Name: "Overall (excluding IP)", IsGroup: true}
	core.Distinct, core.Unique = distinctUnique64(a.overallCore)
	core.DynDistinct, core.DynUnique = distinctUnique(a.dynOverallCore)
	rows = append(rows, core)

	all := FeatureRow{Name: "Overall", IsGroup: true}
	all.Distinct, all.Unique = distinctUnique64(a.overallAll)
	all.DynDistinct, all.DynUnique = distinctUnique(a.dynOverallAll)
	rows = append(rows, all)
	return rows
}

// CompressionAccumulator quantifies the §2.3 design argument for
// storing dynamics as deltas rather than fingerprint pairs: the number
// of distinct (from, to) fingerprint-hash pairs versus the number of
// distinct delta keys. A ratio above 1 means the diff representation
// collapsed identical updates across instances.
type CompressionAccumulator struct {
	pairs  map[[2]uint64]bool
	deltas map[string]bool
}

// NewCompressionAccumulator returns an empty accumulator.
func NewCompressionAccumulator() *CompressionAccumulator {
	return &CompressionAccumulator{pairs: map[[2]uint64]bool{}, deltas: map[string]bool{}}
}

// Add feeds one dynamics; empty deltas are skipped.
func (a *CompressionAccumulator) Add(d *dynamics.Dynamics) {
	if d.Delta.Empty() {
		return
	}
	a.pairs[[2]uint64{d.From.FP.Hash(true), d.To.FP.Hash(true)}] = true
	a.deltas[coreDeltaKey(d.Delta)] = true
}

// Result returns the distinct pair and delta counts and their ratio.
func (a *CompressionAccumulator) Result() (pairs, deltas int, ratio float64) {
	pairs, deltas = len(a.pairs), len(a.deltas)
	if deltas > 0 {
		ratio = float64(pairs) / float64(deltas)
	}
	return pairs, deltas, ratio
}

// coreDeltaKey is the delta key over non-IP fields only (IP churn would
// otherwise dominate the pair/delta comparison).
func coreDeltaKey(d *diff.Delta) string {
	var parts []string
	for i := range d.Fields {
		if fingerprint.Describe(d.Fields[i].Feature).IsIP {
			continue
		}
		parts = append(parts, d.Fields[i].Key())
	}
	return strings.Join(parts, ";")
}
