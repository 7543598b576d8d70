package scriptsim

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"fpdyn/internal/mlearn"
)

// TestGoldenDigest pins the corpus per seed: any change to the
// generator's RNG consumption, the vocabulary, or the featurizer is a
// corpus change and must update these digests deliberately.
func TestGoldenDigest(t *testing.T) {
	cases := []struct {
		cfg    Config
		digest string
	}{
		{Config{Seed: 1}, "538838afc53f8f47049fe4a7d8fd3b5540aef23e"},
		{Config{Seed: 42}, "a48f2a52b27f355ffcdeffadf821ee254aa5466b"},
		{Config{Scripts: 300, Seed: 7}, "ebb63bb041353913fffbcfde4ace4b17a2027f72"},
	}
	for _, tc := range cases {
		m := Featurize(Simulate(tc.cfg))
		if got := m.Digest(); got != tc.digest {
			t.Errorf("cfg %+v: digest %s, want %s", tc.cfg, got, tc.digest)
		}
	}
}

// TestWorkerInvariance: the corpus is a pure function of Config minus
// Workers — any pool size, including serial, yields identical traces.
func TestWorkerInvariance(t *testing.T) {
	ref := Simulate(Config{Scripts: 400, Seed: 9, Workers: 1})
	for _, workers := range []int{2, 3, 8, 0} {
		got := Simulate(Config{Scripts: 400, Seed: 9, Workers: workers})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Workers=%d corpus differs from Workers=1", workers)
		}
	}
}

func TestSimulateShape(t *testing.T) {
	traces := Simulate(Config{Scripts: 1000, FPFrac: 0.3, Seed: 3})
	if len(traces) != 1000 {
		t.Fatalf("got %d traces, want 1000", len(traces))
	}
	nFP := 0
	names := make(map[string]bool)
	for i, tr := range traces {
		if tr.Fingerprinting {
			nFP++
		}
		if names[tr.Script] {
			t.Fatalf("duplicate script name %q", tr.Script)
		}
		names[tr.Script] = true
		if len(tr.Calls) == 0 {
			t.Fatalf("trace %d has no calls", i)
		}
		if !sort.SliceIsSorted(tr.Calls, func(a, b int) bool { return tr.Calls[a].API < tr.Calls[b].API }) {
			t.Fatalf("trace %d calls not sorted by API", i)
		}
		for _, c := range tr.Calls {
			if c.API == "" || c.Count <= 0 {
				t.Fatalf("trace %d emits invalid call %+v", i, c)
			}
		}
	}
	if nFP != 300 {
		t.Fatalf("got %d fingerprinting scripts, want 300", nFP)
	}
}

// TestFingerprintersSweepWider: on average, fingerprinting traces touch
// far more of the fingerprint-surface vocabulary than benign ones — the
// separation the detector learns.
func TestFingerprintersSweepWider(t *testing.T) {
	traces := Simulate(Config{Scripts: 600, Seed: 11})
	isSurface := func(api string) bool {
		return strings.Contains(api, "getParameter:") ||
			strings.Contains(api, "measureText:") ||
			strings.HasPrefix(api, "Navigator.") ||
			strings.HasPrefix(api, "PluginArray.")
	}
	var fpSum, beSum, fpN, beN float64
	for _, tr := range traces {
		n := 0.0
		for _, c := range tr.Calls {
			if isSurface(c.API) {
				n++
			}
		}
		if tr.Fingerprinting {
			fpSum += n
			fpN++
		} else {
			beSum += n
			beN++
		}
	}
	fpMean, beMean := fpSum/fpN, beSum/beN
	if fpMean < 2*beMean {
		t.Fatalf("fingerprinting scripts touch %.1f surface APIs vs benign %.1f — classes not separated", fpMean, beMean)
	}
}

// TestFeaturize pins the matrix layout and the malformed-input policy.
func TestFeaturize(t *testing.T) {
	traces := []Trace{
		{Script: "a.js", Fingerprinting: true, Calls: []Call{
			{API: "B.b", Count: 2}, {API: "A.a", Count: 1},
			{API: "A.a", Count: 3},  // duplicate: aggregates
			{API: "", Count: 5},     // empty name: dropped
			{API: "C.c", Count: 0},  // zero count: dropped
			{API: "D.d", Count: -2}, // negative: dropped
		}},
		{Script: "b.js", Calls: nil}, // empty trace: all-zero row
	}
	m := Featurize(traces)
	if !reflect.DeepEqual(m.APIs, []string{"A.a", "B.b"}) {
		t.Fatalf("APIs = %v", m.APIs)
	}
	if !reflect.DeepEqual(m.X, [][]float64{{4, 2}, {0, 0}}) {
		t.Fatalf("X = %v", m.X)
	}
	if !reflect.DeepEqual(m.Y, []int{1, 0}) {
		t.Fatalf("Y = %v", m.Y)
	}
	if !reflect.DeepEqual(m.Scripts, []string{"a.js", "b.js"}) {
		t.Fatalf("Scripts = %v", m.Scripts)
	}
	empty := Featurize(nil)
	if len(empty.APIs) != 0 || len(empty.X) != 0 || empty.Density() != 0 {
		t.Fatal("nil corpus must featurize to an empty matrix")
	}
}

// TestEndToEndQuality trains the detector on a featurized corpus and
// checks it lands in the regime the hard negatives were tuned for:
// high precision, imperfect recall (partial fingerprinters), both well
// above chance. Uses the sparse column path — the matrix this package
// exists to produce is that path's target shape.
func TestEndToEndQuality(t *testing.T) {
	m := Featurize(Simulate(Config{Scripts: 1200, Seed: 17}))
	if len(m.APIs) < 500 {
		t.Fatalf("vocabulary only %d APIs — corpus not wide", len(m.APIs))
	}
	if d := m.Density(); d > 0.25 {
		t.Fatalf("density %.3f — corpus not sparse", d)
	}
	train, test, err := mlearn.StratifiedSplit(m.Y, 0.3, 17)
	if err != nil {
		t.Fatal(err)
	}
	Xtr := make([][]float64, len(train))
	ytr := make([]int, len(train))
	for i, r := range train {
		Xtr[i], ytr[i] = m.X[r], m.Y[r]
	}
	f, err := mlearn.TrainForest(Xtr, ytr, mlearn.ForestConfig{
		Seed: 17, NumTrees: 15, MaxDepth: mlearn.Unlimited,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := mlearn.EvaluateForest(f, m.X, m.Y, test, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.Precision(); p < 0.9 {
		t.Fatalf("precision %.3f < 0.9 (confusion %+v)", p, c)
	}
	if r := c.Recall(); r < 0.8 {
		t.Fatalf("recall %.3f < 0.8 (confusion %+v)", r, c)
	}
	if f1 := c.F1(); f1 < 0.88 {
		t.Fatalf("F1 %.3f < 0.88 (confusion %+v)", f1, c)
	}
}
