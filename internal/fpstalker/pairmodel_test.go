package fpstalker

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// PairVector builds the similarity feature vector for a (known, query)
// fingerprint pair — per-feature equality indicators, Jaccard
// similarities for set features, version movement, and the time gap —
// the same flavour of features the original FP-Stalker model uses.
// User agents are parsed through the memoizing CachedParse; callers
// that already hold parsed UAs and precomputed feature keys (the
// linker's entries) use pairVectorEntries directly.
func PairVector(known, query *fingerprint.Record) []float64 {
	return pairVectorEntries(newPairEntry("", known), newPairEntry("", query))
}

// pairVectorEntries is PairVector with both sides already preprocessed
// — the cached path the matching engine threads its per-entry UAs and
// feature keys through, so scoring N candidates costs zero re-parses
// and zero key rebuilds.
func pairVectorEntries(known, query *entry) []float64 {
	return appendPairVector(make([]float64, 0, NumPairFeatures), known, query)
}

func TestJaccardDeduplicates(t *testing.T) {
	cases := []struct {
		name string
		a, b []string
		want float64
	}{
		{"both empty", nil, nil, 1},
		{"identical", []string{"Arial", "Calibri"}, []string{"Arial", "Calibri"}, 1},
		{"duplicated b, equal sets", []string{"Arial", "Calibri"}, []string{"Arial", "Arial", "Calibri", "Calibri"}, 1},
		{"duplicated a, equal sets", []string{"Arial", "Arial", "Calibri"}, []string{"Arial", "Calibri"}, 1},
		{"duplicates on both, partial overlap", []string{"x", "y", "y"}, []string{"y", "z", "z"}, 1.0 / 3.0},
		{"disjoint with duplicates", []string{"a", "a"}, []string{"b", "b", "b"}, 0},
		{"one side empty", []string{"a"}, nil, 0},
	}
	// The production path: the string lists become sorted unique hash
	// sets, and the merge walk compares those.
	jaccard := func(a, b []string) float64 { return jaccardSorted(sortedHashSet(a), sortedHashSet(b)) }
	for _, tc := range cases {
		if got := jaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: jaccard = %v, want %v", tc.name, got, tc.want)
		}
		// Jaccard is symmetric; the old implementation wasn't under
		// duplication (it could even exceed 1).
		if got := jaccard(tc.b, tc.a); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s (swapped): jaccard = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPairVectorBoundedUnderDuplicatedFonts(t *testing.T) {
	a := chromeRecord(useragent.V(63), tBase)
	b := chromeRecord(useragent.V(63), tBase.Add(time.Hour))
	a.FP.Fonts = []string{"Arial", "Calibri"}
	b.FP.Fonts = []string{"Arial", "Arial", "Calibri", "Calibri"}
	v := PairVector(a, b)
	if v[5] != 1 { // font Jaccard: the sets are equal
		t.Errorf("font Jaccard under duplication = %v, want 1", v[5])
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Errorf("feature %d (%s) = %v outside [0,1]", i, PairFeatureNames[i], x)
		}
	}
}

// streamRecord gives each instance a distinct stable fingerprint so
// pairs are unambiguous.
func streamRecord(inst int, visit int) *fingerprint.Record {
	rec := chromeRecord(useragent.V(63), tBase.Add(time.Duration(visit)*time.Hour))
	rec.FP.TimezoneOffset = inst * 15
	rec.FP.CanvasHash = InstanceID(inst)
	return rec
}

// TestNegativeSamplingNeverSameInstance: the satellite bugfix — a
// negative draw must never pair a record with its own instance, even
// when the pool is dominated by that instance's records.
func TestNegativeSamplingNeverSameInstance(t *testing.T) {
	// Instance 0 floods the pool; instance 1 contributes exactly one
	// record, the only legal negative.
	var records []*fingerprint.Record
	var instances []int
	for v := 0; v < 12; v++ {
		records = append(records, streamRecord(0, v))
		instances = append(instances, 0)
	}
	records = append(records, streamRecord(1, 12))
	instances = append(instances, 1)
	for v := 13; v < 20; v++ {
		records = append(records, streamRecord(0, v))
		instances = append(instances, 0)
	}

	for seed := int64(0); seed < 20; seed++ {
		for _, s := range samplePairSpecs(instances, rand.New(rand.NewSource(seed))) {
			known, query := instances[s.known], instances[s.query]
			if s.label == 0 && known == query {
				t.Fatalf("seed %d: same-instance pair (inst %d) labelled negative", seed, known)
			}
			if s.label == 1 && known != query {
				t.Fatalf("seed %d: cross-instance pair (%d vs %d) labelled positive", seed, known, query)
			}
		}
	}
}

// TestNegativeSamplingYieldsTwoPerPositive: with a pool rich in other
// instances, the bounded retry must recover both negatives instead of
// silently emitting fewer.
func TestNegativeSamplingYieldsTwoPerPositive(t *testing.T) {
	var records []*fingerprint.Record
	var instances []int
	// Ten single-visit instances seed the pool...
	for inst := 1; inst <= 10; inst++ {
		records = append(records, streamRecord(inst, inst))
		instances = append(instances, inst)
	}
	// ...then instance 0 visits repeatedly, yielding positives.
	for v := 11; v < 17; v++ {
		records = append(records, streamRecord(0, v))
		instances = append(instances, 0)
	}
	pairs := pairTrainingSet(records, instances, rand.New(rand.NewSource(5)), 1)
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.label == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 {
		t.Fatal("no positives produced")
	}
	if neg != 2*pos {
		t.Fatalf("got %d negatives for %d positives, want exactly 2 per positive", neg, pos)
	}
}
