package fpstalker

import (
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/population"
	"fpdyn/internal/useragent"
)

func chromeRecord(version useragent.Version, t time.Time) *fingerprint.Record {
	ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: version, OS: useragent.Windows, OSVersion: useragent.V(10)}
	return &fingerprint.Record{
		Time: t, UserID: "u", Cookie: "c",
		Browser: useragent.Chrome, OS: useragent.Windows,
		FP: &fingerprint.Fingerprint{
			UserAgent: ua.String(),
			Accept:    "text/html", Encoding: "gzip, deflate, br", Language: "en-US,en;q=0.9",
			HeaderList:    []string{"Host", "User-Agent"},
			Plugins:       []string{"Chrome PDF Plugin"},
			CookieEnabled: true, WebGL: true, LocalStorage: true,
			TimezoneOffset: 60,
			Languages:      []string{"en-US"},
			Fonts:          []string{"Arial", "Calibri"},
			CanvasHash:     "c1",
			GPUVendor:      "NVIDIA Corporation", GPURenderer: "GeForce GTX 970",
			GPUType:  "ANGLE (Direct3D11)",
			CPUCores: 4, CPUClass: "x86",
			AudioInfo: "channels:2;rate:44100", ScreenResolution: "1920x1080",
			ColorDepth: 24, PixelRatio: "1",
			ConsLanguage: true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
			GPUImageHash: "g1",
		},
	}
}

var tBase = time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)

func TestRuleExactMatch(t *testing.T) {
	l := NewRuleLinker()
	rec := chromeRecord(useragent.V(63, 0, 3239, 132), tBase)
	l.Add("a", rec)
	got := l.TopK(chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(time.Hour)), 3)
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("TopK = %v", got)
	}
}

func TestRuleLinksAcrossUpdate(t *testing.T) {
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63, 0, 3239, 132), tBase))
	// Updated Chrome with a changed canvas: still the same instance.
	q := chromeRecord(useragent.V(64, 0, 3282, 140), tBase.Add(72*time.Hour))
	q.FP.CanvasHash = "c2"
	got := l.TopK(q, 3)
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("TopK = %v, want [a]", got)
	}
}

func TestRuleRejectsDowngrade(t *testing.T) {
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(64, 0, 3282, 140), tBase))
	got := l.TopK(chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(time.Hour)), 3)
	if len(got) != 0 {
		t.Fatalf("downgrade linked: %v", got)
	}
}

func TestRuleRejectsDifferentFamily(t *testing.T) {
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63), tBase))
	q := chromeRecord(useragent.V(63), tBase.Add(time.Hour))
	ff := useragent.UA{Browser: useragent.Firefox, BrowserVersion: useragent.V(58), OS: useragent.Windows, OSVersion: useragent.V(10)}
	q.FP.UserAgent = ff.String()
	if got := l.TopK(q, 3); len(got) != 0 {
		t.Fatalf("cross-family linked: %v", got)
	}
}

func TestRuleFigure11bStorageFalseNegative(t *testing.T) {
	// Figure 11(b): disabling cookies+localStorage breaks the rule-based
	// link even though it is the same instance.
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63, 0, 3239, 132), tBase))
	q := chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(time.Hour))
	q.FP.CookieEnabled = false
	q.FP.LocalStorage = false
	if got := l.TopK(q, 10); len(got) != 0 {
		t.Fatalf("storage toggle should break the link (paper FN), got %v", got)
	}
}

func TestRuleFigure11aDesktopRequestFalseNegative(t *testing.T) {
	// Figure 11(a): a desktop page on a mobile device changes the UA
	// wholesale; FP-Stalker fails to link.
	l := NewRuleLinker()
	mob := chromeRecord(useragent.V(77, 0, 3865, 92), tBase)
	mUA := useragent.UA{Browser: useragent.ChromeMobile, BrowserVersion: useragent.V(77, 0, 3865, 92), OS: useragent.Android, OSVersion: useragent.V(9), Device: "SM-N960U", Mobile: true}
	mob.FP.UserAgent = mUA.String()
	l.Add("a", mob)
	q := chromeRecord(useragent.V(77, 0, 3865, 92), tBase.Add(time.Hour))
	q.FP.UserAgent = mUA.RequestDesktop().String()
	if got := l.TopK(q, 10); len(got) != 0 {
		t.Fatalf("desktop request should defeat the rules (paper FN), got %v", got)
	}
}

func TestRuleFigure11cCPUCoresFalsePositive(t *testing.T) {
	// Figure 11(c): two different instances identical except CPU cores
	// get linked — the rules do not constrain hardware counts.
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63, 0, 3239, 132), tBase))
	q := chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(time.Hour))
	q.FP.CPUCores = 2
	got := l.TopK(q, 10)
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("CPU-core difference should still link (paper FP), got %v", got)
	}
}

func TestRuleFigure11dDeviceModelFalsePositive(t *testing.T) {
	// Figure 11(d): Samsung J330 vs G920, otherwise identical → linked.
	l := NewRuleLinker()
	a := chromeRecord(useragent.V(6, 2), tBase)
	aUA := useragent.UA{Browser: useragent.Samsung, BrowserVersion: useragent.V(6, 2), OS: useragent.Android, OSVersion: useragent.V(7, 0), Device: "SM-J330F", Mobile: true}
	a.FP.UserAgent = aUA.String()
	l.Add("a", a)
	q := chromeRecord(useragent.V(6, 2), tBase.Add(time.Hour))
	bUA := aUA
	bUA.Device = "SM-G920F"
	q.FP.UserAgent = bUA.String()
	got := l.TopK(q, 10)
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("device-model difference should still link (paper FP), got %v", got)
	}
}

func TestRuleTooManyDiffsRejected(t *testing.T) {
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63), tBase))
	q := chromeRecord(useragent.V(63), tBase.Add(time.Hour))
	q.FP.CanvasHash = "cX"
	q.FP.GPUImageHash = "gX"
	q.FP.Fonts = []string{"Wingdings"}
	if got := l.TopK(q, 10); len(got) != 0 {
		t.Fatalf("3 rare diffs should be rejected, got %v", got)
	}
}

func TestRuleAddReplacesLastFingerprint(t *testing.T) {
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63, 0, 3239, 132), tBase))
	l.Add("a", chromeRecord(useragent.V(64, 0, 3282, 140), tBase.Add(time.Hour)))
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	// Old version no longer exact-matches; new one does.
	got := l.TopK(chromeRecord(useragent.V(64, 0, 3282, 140), tBase.Add(2*time.Hour)), 1)
	if len(got) != 1 || got[0].Score < 1e8 {
		t.Fatalf("new fingerprint should exact match: %v", got)
	}
}

func TestRuleTopKRespectsK(t *testing.T) {
	l := NewRuleLinker()
	for i := 0; i < 20; i++ {
		r := chromeRecord(useragent.V(63), tBase)
		r.FP.TimezoneOffset = i * 15 // small per-instance variation
		l.Add(InstanceID(i), r)
	}
	q := chromeRecord(useragent.V(63), tBase.Add(time.Hour))
	if got := l.TopK(q, 5); len(got) > 5 {
		t.Fatalf("TopK returned %d > 5", len(got))
	}
	if got := l.TopK(q, 0); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}
}

// trainWorld simulates a world and returns its stream.
func trainWorld(t testing.TB, users int, seed int64) ([]*fingerprint.Record, []int) {
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	ds := population.Simulate(cfg)
	return ds.Records, ds.TrueInstance
}

func TestEvaluateRuleBasedOnSimulatedWorld(t *testing.T) {
	records, instances := trainWorld(t, 400, 11)
	res := Evaluate(NewRuleLinker(), records, instances, 10)
	if res.Queries != len(records) {
		t.Fatalf("queries = %d", res.Queries)
	}
	t.Logf("rule-based: P=%.3f R=%.3f F1=%.3f (TP=%d FP=%d FN=%d) mean=%v",
		res.Precision(), res.Recall(), res.F1(), res.TP, res.FP, res.FN, res.MeanMatchTime)
	if res.F1() < 0.60 {
		t.Errorf("rule-based F1 %.3f unexpectedly low", res.F1())
	}
	if res.F1() > 0.995 {
		t.Errorf("rule-based F1 %.3f suspiciously perfect; the paper documents FPs/FNs", res.F1())
	}
	if res.MeanMatchTime <= 0 {
		t.Errorf("MeanMatchTime = %v; the rounded mean must stay non-zero", res.MeanMatchTime)
	}
}

func TestEvaluateLearningBasedOnSimulatedWorld(t *testing.T) {
	trainRecs, trainInst := trainWorld(t, 300, 21)
	f, err := TrainPairModel(trainRecs, trainInst, mlearn.ForestConfig{Seed: 5, NumTrees: 15, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	testRecs, testInst := trainWorld(t, 250, 22)
	res := Evaluate(NewLearnLinker(f), testRecs, testInst, 10)
	t.Logf("learning-based: P=%.3f R=%.3f F1=%.3f (TP=%d FP=%d FN=%d) mean=%v",
		res.Precision(), res.Recall(), res.F1(), res.TP, res.FP, res.FN, res.MeanMatchTime)
	if res.F1() < 0.5 {
		t.Errorf("learning-based F1 %.3f too low", res.F1())
	}
}

func TestMatchingTimeGrowsWithDB(t *testing.T) {
	// Figure 9's core claim: matching time grows roughly linearly in
	// the database size for non-exact queries. The claim is about the
	// paper's linear scan, so pin the ablation configuration — the
	// blocked/parallel engine exists precisely to break this growth
	// (BenchmarkTopKBlocked / BenchmarkTopKParallel measure that).
	records, instances := trainWorld(t, 1500, 31)
	small := NewRuleLinker()
	small.NoBlocking = true
	small.Workers = 1
	big := NewRuleLinker()
	big.NoBlocking = true
	big.Workers = 1
	n := 0
	for i, rec := range records {
		if n < 500 {
			small.Add(InstanceID(instances[i]), rec)
		}
		big.Add(InstanceID(instances[i]), rec)
		n++
	}
	if big.Len() < 3*small.Len()/2 {
		t.Skip("world too small for a meaningful scaling comparison")
	}
	// Non-exact query: a fresh fingerprint variant.
	q := chromeRecord(useragent.V(65, 0, 3325, 146), tBase)
	q.FP.CanvasHash = "unseen"
	queries := make([]*fingerprint.Record, 50)
	for i := range queries {
		cp := *q
		fp := q.FP.Clone()
		fp.TimezoneOffset = i
		cp.FP = fp
		queries[i] = &cp
	}
	tSmall := TimeMatching(small, queries, 10)
	tBig := TimeMatching(big, queries, 10)
	t.Logf("db=%d: %v/query; db=%d: %v/query", small.Len(), tSmall, big.Len(), tBig)
	if tBig <= tSmall {
		t.Errorf("matching time did not grow with DB size: %v vs %v", tSmall, tBig)
	}
}

func TestExactIndexAblation(t *testing.T) {
	// Advice 6: caching (the exact-match index) speeds up matching.
	// Measured against the paper's linear-scan configuration — with the
	// blocking index on, exact queries already only face their own
	// bucket and the margin disappears into noise. Exact queries
	// re-present known fingerprints and are answered from the index;
	// the same fingerprints with one feature moved miss it and take the
	// full scan.
	records, instances := trainWorld(t, 800, 41)
	l := NewRuleLinker()
	l.NoBlocking = true
	l.Workers = 1
	for i, rec := range records {
		l.Add(InstanceID(instances[i]), rec)
	}
	queries := records[:100]
	moved := make([]*fingerprint.Record, len(queries))
	for i, q := range queries {
		cp := *q
		cp.FP = q.FP.Clone()
		cp.FP.TimezoneOffset = 1000 + i
		moved[i] = &cp
	}
	// The two phases alternate over several rounds and each side keeps
	// its fastest round, so a burst of load on the host during one
	// phase cannot decide the comparison.
	var tIdx, tScan time.Duration
	for round := 0; round < 5; round++ {
		if d := TimeMatching(l, queries, 10); round == 0 || d < tIdx {
			tIdx = d
		}
		if d := TimeMatching(l, moved, 10); round == 0 || d < tScan {
			tScan = d
		}
	}
	t.Logf("indexed=%v/query scan=%v/query (fastest of 5 alternating rounds)", tIdx, tScan)
	if tIdx >= tScan {
		t.Errorf("exact index brought no speedup: %v vs %v", tIdx, tScan)
	}
}

func TestPairVectorShape(t *testing.T) {
	a := chromeRecord(useragent.V(63), tBase)
	b := chromeRecord(useragent.V(64), tBase.Add(time.Hour))
	v := PairVector(a, b)
	if len(v) != NumPairFeatures {
		t.Fatalf("vector length %d, want %d", len(v), NumPairFeatures)
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Errorf("feature %d = %v outside [0,1]", i, x)
		}
	}
	// Identical pair should look maximally similar on equality features.
	same := PairVector(a, a)
	if same[3] != 1 || same[5] != 1 {
		t.Errorf("self-pair vector = %v", same)
	}
}

func TestTrainPairModelErrors(t *testing.T) {
	if _, err := TrainPairModel(nil, []int{1}, mlearn.ForestConfig{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	r := chromeRecord(useragent.V(63), tBase)
	if _, err := TrainPairModel([]*fingerprint.Record{r}, []int{0}, mlearn.ForestConfig{}); err == nil {
		t.Fatal("single-visit stream should produce no pairs and error")
	}
}

func BenchmarkRuleMatch10K(b *testing.B) {
	records, instances := trainWorld(b, 3000, 51)
	l := NewRuleLinker()
	for i, rec := range records {
		l.Add(InstanceID(instances[i]), rec)
	}
	q := chromeRecord(useragent.V(65, 0, 3325, 146), tBase)
	q.FP.CanvasHash = "unseen"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.TopK(q, 10)
	}
}
