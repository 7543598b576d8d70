package correlate

import (
	"testing"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
	"fpdyn/internal/useragent"
)

var corWorld *population.Dataset
var corGT *browserid.GroundTruth

func world(t testing.TB) (*population.Dataset, *browserid.GroundTruth) {
	if corWorld == nil {
		cfg := population.DefaultConfig(2000)
		cfg.Seed = 23
		corWorld = population.Simulate(cfg)
		corGT = browserid.Build(corWorld.Records)
	}
	return corWorld, corGT
}

// craftDyn builds a dynamics record with the given feature mutations.
func craftDyn(id string, mutate func(*fingerprint.Fingerprint)) *dynamics.Dynamics {
	from := &fingerprint.Record{FP: &fingerprint.Fingerprint{
		CookieEnabled: true, LocalStorage: true, AudioInfo: "rate:44100",
		GPUType: "ANGLE (Direct3D9Ex)", TimezoneOffset: 60,
	}}
	to := &fingerprint.Record{FP: from.FP.Clone()}
	mutate(to.FP)
	return &dynamics.Dynamics{BrowserID: id, From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
}

func TestImplicitFindsCookieStorageCoupling(t *testing.T) {
	var dyns []*dynamics.Dynamics
	// 10 dynamics where cookie+localStorage flip together.
	for i := 0; i < 10; i++ {
		dyns = append(dyns, craftDyn("a", func(fp *fingerprint.Fingerprint) {
			fp.CookieEnabled = false
			fp.LocalStorage = false
		}))
	}
	// Background noise: timezone changes.
	for i := 0; i < 30; i++ {
		dyns = append(dyns, craftDyn("b", func(fp *fingerprint.Fingerprint) {
			fp.TimezoneOffset = 120
		}))
	}
	acc := NewImplicitAccumulator()
	for _, d := range dyns {
		acc.Add(d)
	}
	cors := acc.Correlations(3)
	if len(cors) == 0 {
		t.Fatal("no correlations found")
	}
	top := cors[0]
	pair := map[fingerprint.ID]bool{top.A: true, top.B: true}
	if !pair[fingerprint.FeatCookie] || !pair[fingerprint.FeatLocalStorage] {
		t.Fatalf("top correlation = %s, want cookie↔localStorage", top.Label())
	}
	if top.Lift <= 1 {
		t.Fatalf("lift = %v, want > 1", top.Lift)
	}
}

func TestImplicitMinTogether(t *testing.T) {
	acc := NewImplicitAccumulator()
	acc.Add(craftDyn("a", func(fp *fingerprint.Fingerprint) {
		fp.CookieEnabled = false
		fp.LocalStorage = false
	}))
	if cors := acc.Correlations(2); len(cors) != 0 {
		t.Fatalf("minTogether ignored: %v", cors)
	}
}

func TestImplicitOnWorldFindsKnownCouplings(t *testing.T) {
	_, gt := world(t)
	cors := worldImplicit(gt).Correlations(2)
	if len(cors) == 0 {
		t.Fatal("no correlations mined")
	}
	for _, c := range cors[:minInt(15, len(cors))] {
		t.Logf("%-50s together=%d lift=%.1f", c.Label(), c.Together, c.Lift)
	}
	// When the Chrome checkbox coupling occurs at this scale, it must
	// carry positive lift; its absence is a sampling artifact.
	for _, c := range cors {
		if c.Label() == "Cookie Support ↔ localStorage Support" {
			if c.Lift <= 1 {
				t.Errorf("cookie↔localStorage lift = %.2f, want > 1", c.Lift)
			}
			return
		}
	}
	t.Skip("cookie↔localStorage coupling not sampled in this world")
}

func TestGPUAudioCouplingOnWorld(t *testing.T) {
	// Insight 3 example 3: the DirectX driver update changes GPU type
	// and audio sample rate together.
	_, gt := world(t)
	cors := worldImplicit(gt).Correlations(2)
	for _, c := range cors {
		pair := map[fingerprint.ID]bool{c.A: true, c.B: true}
		if pair[fingerprint.FeatGPUType] && pair[fingerprint.FeatAudio] {
			if c.Lift <= 1 {
				t.Errorf("GPU↔audio lift = %v, want > 1", c.Lift)
			}
			return
		}
	}
	t.Skip("no GPU-driver update landed between visits in this world")
}

func TestUpdateCorrelationsCrafted(t *testing.T) {
	from := &fingerprint.Record{FP: &fingerprint.Fingerprint{
		UserAgent:  useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(63, 0, 3239, 84), OS: useragent.Windows, OSVersion: useragent.V(10)}.String(),
		CanvasHash: "old", Fonts: []string{"Arial"},
	}}
	to := &fingerprint.Record{FP: &fingerprint.Fingerprint{
		UserAgent:  useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(64, 0, 3282, 140), OS: useragent.Windows, OSVersion: useragent.V(10)}.String(),
		CanvasHash: "new", Fonts: []string{"Arial", "Bahnschrift"},
	}}
	d := &dynamics.Dynamics{BrowserID: "x", From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
	acc := NewUpdateAccumulator(&dynamics.Classifier{})
	acc.Add(d)
	rows := acc.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r.Update != "Chrome 63→64" || r.Platform != useragent.Windows {
			t.Fatalf("row = %+v", r)
		}
	}
}

func TestUpdateCorrelationsOnWorld(t *testing.T) {
	ds, gt := world(t)
	acc := NewUpdateAccumulator(&dynamics.Classifier{Images: dynamics.MapImages(ds.CanvasImages)})
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		acc.Add(d)
	}
	rows := acc.Rows()
	if len(rows) == 0 {
		t.Fatal("no update correlations")
	}
	for _, r := range rows[:minInt(12, len(rows))] {
		t.Logf("%-24s %-10s %-32s ×%d", r.Update, r.Platform, r.Feature, r.Count)
	}
	// Canvas changes must be among the correlated features (Table 3:
	// canvas is the most common correlation).
	hasCanvas := false
	for _, r := range rows {
		if len(r.Feature) > 0 && r.Feature[0] == 'C' {
			hasCanvas = true
			break
		}
	}
	if !hasCanvas {
		t.Error("no canvas correlations found")
	}
}

func TestAdoptionSeriesFollowsRelease(t *testing.T) {
	ds, gt := world(t)
	week := 7 * 24 * time.Hour

	// Chrome 64 released 2018-01-24: adoption must be zero before the
	// release and show a peak after it.
	acc := NewAdoptionAccumulator(useragent.Chrome, 64, ds.Cfg.Start, ds.Cfg.End, week)
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		acc.Add(d)
	}
	series := acc.Series(gt.NumInstances())
	release := time.Date(2018, 1, 24, 0, 0, 0, 0, time.UTC)
	totalBefore, totalAfter := 0, 0
	for _, p := range series {
		if p.Start.Add(week).Before(release) {
			totalBefore += p.Count
		} else {
			totalAfter += p.Count
		}
	}
	t.Logf("Chrome 64 adoption: before=%d after=%d", totalBefore, totalAfter)
	if totalBefore != 0 {
		t.Errorf("%d adoptions before the release date", totalBefore)
	}
	if totalAfter == 0 {
		t.Error("no adoptions after the release")
	}
	if _, ok := PeakAfter(series, release); !ok {
		t.Error("no adoption peak found")
	}
}

func TestAdoptionSeriesEmptyFamily(t *testing.T) {
	_, gt := world(t)
	acc := NewAdoptionAccumulator("Netscape", 4, corWorld.Cfg.Start, corWorld.Cfg.End, 7*24*time.Hour)
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		acc.Add(d)
	}
	series := acc.Series(gt.NumInstances())
	for _, p := range series {
		if p.Count != 0 {
			t.Fatal("phantom adoptions for unknown family")
		}
	}
}

// worldImplicit feeds every changed dynamics of gt to an
// ImplicitAccumulator.
func worldImplicit(gt *browserid.GroundTruth) *ImplicitAccumulator {
	acc := NewImplicitAccumulator()
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		acc.Add(d)
	}
	return acc
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkImplicit(b *testing.B) {
	_, gt := world(b)
	dyns := dynamics.Changed(dynamics.Generate(gt))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewImplicitAccumulator()
		for _, d := range dyns {
			acc.Add(d)
		}
		acc.Correlations(3)
	}
}

// TestUpdateCorrelationsTieOrder: rows equal in count, update and
// feature must still come out in one order (by platform), not in map
// order.
func TestUpdateCorrelationsTieOrder(t *testing.T) {
	var dyns []*dynamics.Dynamics
	for _, os := range []string{useragent.Windows, useragent.Linux, useragent.MacOSX} {
		from := &fingerprint.Record{FP: &fingerprint.Fingerprint{
			UserAgent: useragent.UA{Browser: useragent.Firefox, BrowserVersion: useragent.V(58), OS: os, OSVersion: useragent.V(10)}.String(),
			Fonts:     []string{"Arial"},
		}}
		to := &fingerprint.Record{FP: &fingerprint.Fingerprint{
			UserAgent: useragent.UA{Browser: useragent.Firefox, BrowserVersion: useragent.V(59), OS: os, OSVersion: useragent.V(10)}.String(),
			Fonts:     []string{"Arial", "Bahnschrift"},
		}}
		dyns = append(dyns, &dynamics.Dynamics{BrowserID: os, From: from, To: to, Delta: diff.Diff(from.FP, to.FP)})
	}
	for i := 0; i < 20; i++ {
		acc := NewUpdateAccumulator(&dynamics.Classifier{})
		for _, d := range dyns {
			acc.Add(d)
		}
		rows := acc.Rows()
		if len(rows) != 3 {
			t.Fatalf("rows = %v", rows)
		}
		for k := 1; k < len(rows); k++ {
			if rows[k-1].Platform >= rows[k].Platform {
				t.Fatalf("run %d: rows not ordered by platform: %+v", i, rows)
			}
		}
	}
}
