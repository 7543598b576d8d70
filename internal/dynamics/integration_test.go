package dynamics

import (
	"fmt"
	"strings"
	"testing"

	"fpdyn/internal/browserid"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
)

// categoryOf maps a simulator ground-truth event to the classifier
// category it should produce.
func categoryOf(ev population.EventType) Category {
	switch {
	case ev == population.EvBrowserUpdate:
		return CatBrowserUpdate
	case ev == population.EvOSUpdate:
		return CatOSUpdate
	case strings.HasPrefix(string(ev), "ua-"):
		return CatUserAction
	default:
		return CatEnvironment
	}
}

// TestClassifierAgainstSimulatorTruth generates a world, regroups
// records by true instance, classifies every changed pair, and checks
// the predicted categories against the simulator's cause labels.
func TestClassifierAgainstSimulatorTruth(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(600))
	cl := Classifier{Images: MapImages(ds.CanvasImages)}

	// Regroup by true instance, tracking the truth per "to" record.
	groups := make(map[string][]*fingerprint.Record)
	truthFor := make(map[*fingerprint.Record][]population.EventType)
	for i, r := range ds.Records {
		id := fmt.Sprintf("inst-%d", ds.TrueInstance[i])
		groups[id] = append(groups[id], r)
		truthFor[r] = ds.Truth[i]
	}
	dyns := Changed(Generate(&browserid.GroundTruth{Instances: groups}))
	if len(dyns) == 0 {
		t.Fatal("no dynamics generated")
	}

	catHits := map[Category]int{}
	catTotal := map[Category]int{}
	exact, total := 0, 0
	for _, d := range dyns {
		truth := truthFor[d.To]
		if len(truth) == 0 {
			continue
		}
		want := map[Category]bool{}
		for _, ev := range truth {
			want[categoryOf(ev)] = true
		}
		got := map[Category]bool{}
		for _, cat := range cl.Classify(d).Categories() {
			got[cat] = true
		}
		total++
		match := len(want) == len(got)
		for cat := range want {
			catTotal[cat]++
			if got[cat] {
				catHits[cat]++
			} else {
				match = false
			}
		}
		if match {
			exact++
		}
	}
	if total == 0 {
		t.Fatal("no labelled dynamics")
	}
	exactRate := float64(exact) / float64(total)
	t.Logf("exact category-set match: %.1f%% over %d dynamics", exactRate*100, total)
	for cat, n := range catTotal {
		t.Logf("  %-20s recall %.1f%% (%d cases)", cat, 100*float64(catHits[cat])/float64(n), n)
	}
	if exactRate < 0.70 {
		t.Errorf("exact match rate %.2f below 0.70", exactRate)
	}
	for _, cat := range []Category{CatBrowserUpdate, CatOSUpdate, CatUserAction} {
		if catTotal[cat] == 0 {
			continue
		}
		if recall := float64(catHits[cat]) / float64(catTotal[cat]); recall < 0.80 {
			t.Errorf("%s recall %.2f below 0.80", cat, recall)
		}
	}
}

// TestGenerateFromGroundTruth runs the paper's actual pipeline: build
// browser IDs from raw records, then generate the dynamics dataset.
func TestGenerateFromGroundTruth(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(300))
	gt := browserid.Build(ds.Records)
	dyns := Generate(gt)
	changed := Changed(dyns)
	if len(changed) == 0 {
		t.Fatal("no changed dynamics")
	}
	if len(changed) >= len(dyns) {
		t.Fatal("every visit changed the fingerprint; stability is expected")
	}
	// Browser IDs must be close to true instances in count.
	ratio := float64(gt.NumInstances()) / float64(ds.NumInstances)
	if ratio < 0.9 || ratio > 1.15 {
		t.Errorf("browser IDs %d vs true instances %d (ratio %.2f)", gt.NumInstances(), ds.NumInstances, ratio)
	}
}

// TestAnalyzeShapeMatchesTable2 checks the headline shape of Table 2 on
// a simulated world: user actions are the largest pure category, the
// instance share with changes is substantial, and composites exist.
func TestAnalyzeShapeMatchesTable2(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(800))
	gt := browserid.Build(ds.Records)
	cl := Classifier{Images: MapImages(ds.CanvasImages)}
	b := Analyze(Generate(gt), &cl, gt.NumInstances())

	if b.TotalChanged == 0 {
		t.Fatal("no changes")
	}
	ua := b.PureCategory[CatUserAction]
	bu := b.PureCategory[CatBrowserUpdate]
	if ua <= bu {
		t.Errorf("user actions (%d) should exceed browser updates (%d)", ua, bu)
	}
	if len(b.Combo) == 0 {
		t.Error("no composite changes observed")
	}
	share := b.PctInstances(b.InstancesWithChange)
	t.Logf("instances with ≥1 change: %.1f%% (paper: 62.3%% of multi-visit-weighted population)", share)
	if b.Unclassified > b.TotalChanged/10 {
		t.Errorf("unclassified rate too high: %d of %d", b.Unclassified, b.TotalChanged)
	}
	t.Logf("pure: %v", b.PureCategory)
	t.Logf("combos: %v", b.Combo)
	t.Logf("causes: %d distinct", len(b.CauseChanges))
}
