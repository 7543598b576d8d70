package stats

import (
	"sort"
	"testing"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
	"fpdyn/internal/useragent"
)

var statsWorld *population.Dataset
var statsGT *browserid.GroundTruth

func world(t testing.TB) (*population.Dataset, *browserid.GroundTruth) {
	if statsWorld == nil {
		statsWorld = population.Simulate(population.DefaultConfig(700))
		statsGT = browserid.Build(statsWorld.Records)
	}
	return statsWorld, statsGT
}

// anonymityCurve feeds an AnonymityAccumulator the way the report's
// Figure 2 fold does: each browser instance's records contiguous under
// the instance's own ordinal, keeping only the records keep accepts
// (nil keeps all).
func anonymityCurve(gt *browserid.GroundTruth, keep func(*fingerprint.Record) bool, includeIP bool, maxK int) AnonymityCurve {
	ids := make([]string, 0, len(gt.Instances))
	for id := range gt.Instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	acc := NewAnonymityAccumulator()
	for ord, id := range ids {
		for _, r := range gt.Instances[id] {
			if keep == nil || keep(r) {
				acc.Add(ord+1, r.FP.Hash(includeIP))
			}
		}
	}
	return acc.Curve(maxK)
}

func TestAnonymityCurveMonotonic(t *testing.T) {
	_, gt := world(t)
	curve := anonymityCurve(gt, nil, true, 10)
	if len(curve.PctIdentifiable) != 10 {
		t.Fatalf("curve length %d", len(curve.PctIdentifiable))
	}
	for k := 1; k < 10; k++ {
		if curve.PctIdentifiable[k] < curve.PctIdentifiable[k-1] {
			t.Fatalf("curve not monotone at k=%d: %v", k, curve.PctIdentifiable)
		}
	}
	if curve.PctIdentifiable[9] < 50 {
		t.Errorf("identifiable share at k=10 is %.1f%%, expected majority (paper: >90%%)",
			curve.PctIdentifiable[9])
	}
	t.Logf("Figure 2 curve: %v", curve.PctIdentifiable)
}

func TestAnonymityIPIncreasesIdentifiability(t *testing.T) {
	_, gt := world(t)
	withIP := anonymityCurve(gt, nil, true, 5)
	without := anonymityCurve(gt, nil, false, 5)
	if withIP.PctIdentifiable[0] < without.PctIdentifiable[0] {
		t.Errorf("IP features reduced identifiability: %v vs %v",
			withIP.PctIdentifiable[0], without.PctIdentifiable[0])
	}
}

func TestAnonymityEmpty(t *testing.T) {
	curve := NewAnonymityAccumulator().Curve(3)
	if len(curve.PctIdentifiable) != 3 {
		t.Fatalf("curve length %d", len(curve.PctIdentifiable))
	}
	for _, v := range curve.PctIdentifiable {
		if v != 0 {
			t.Fatal("empty input must give a zero curve")
		}
	}
}

func TestMobileFirefoxMostIdentifiable(t *testing.T) {
	// Figure 2's observation: on mobile, Firefox users are more
	// identifiable than default-browser users, because installing a
	// non-default browser is itself identifying.
	ds, gt := world(t)
	browser := func(name string) func(*fingerprint.Record) bool {
		return func(r *fingerprint.Record) bool { return r.Browser == name }
	}
	count := func(keep func(*fingerprint.Record) bool) int {
		n := 0
		for _, r := range ds.Records {
			if keep(r) {
				n++
			}
		}
		return n
	}
	isFF, isSafari := browser(useragent.FirefoxMobile), browser(useragent.MobileSafari)
	if count(isFF) < 30 || count(isSafari) < 30 {
		t.Skip("not enough mobile records at this scale")
	}
	ff := anonymityCurve(gt, isFF, true, 5)
	saf := anonymityCurve(gt, isSafari, true, 5)
	t.Logf("Firefox Mobile k=5: %.1f%%; Mobile Safari k=5: %.1f%%",
		ff.PctIdentifiable[4], saf.PctIdentifiable[4])
	if ff.PctIdentifiable[4] < saf.PctIdentifiable[4] {
		t.Errorf("Firefox Mobile should be more identifiable than Mobile Safari")
	}
}

func TestFeatureTableShape(t *testing.T) {
	ds, gt := world(t)
	acc := NewFeatureAccumulator()
	for _, r := range ds.Records {
		acc.AddRecord(r.FP)
	}
	for _, d := range dynamics.Generate(gt) {
		acc.AddDelta(d.Delta)
	}
	rows := acc.Rows()

	byName := map[string]FeatureRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Structural checks.
	if len(rows) != int(fingerprint.NumFeatures)+7+2 { // features + 7 groups + 2 overall
		t.Fatalf("rows = %d", len(rows))
	}
	// The font list must be the most fingerprintable OS feature
	// (Table 1's headline finding).
	fonts := byName["Font List"]
	if fonts.Distinct == 0 {
		t.Fatal("no font list values")
	}
	ua := byName["User-agent"]
	if ua.Distinct == 0 || ua.DynDistinct == 0 {
		t.Fatalf("user agent row empty: %+v", ua)
	}
	// Fonts: static-rich but dynamics-stable (dynamics << static).
	if fonts.DynDistinct >= fonts.Distinct {
		t.Errorf("font dynamics (%d) should be far fewer than static values (%d)",
			fonts.DynDistinct, fonts.Distinct)
	}
	// Binary features have at most 2 distinct values and no uniques at scale.
	cookie := byName["Cookie Support"]
	if cookie.Distinct > 2 {
		t.Errorf("cookie support distinct = %d", cookie.Distinct)
	}
	// Timezone: more dynamics than statics is the paper's signature of
	// user-driven bidirectional churn; at least comparable here.
	tz := byName["Timezone"]
	t.Logf("timezone: static %d / dyn %d", tz.Distinct, tz.DynDistinct)
	// Overall rows exist and core ≤ all.
	core, all := byName["Overall (excluding IP)"], byName["Overall"]
	if core.Distinct == 0 || all.Distinct < core.Distinct {
		t.Errorf("overall rows wrong: core=%+v all=%+v", core, all)
	}
}

func TestDeltaCompression(t *testing.T) {
	_, gt := world(t)
	acc := NewCompressionAccumulator()
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		acc.Add(d)
	}
	pairs, deltas, ratio := acc.Result()
	if pairs == 0 || deltas == 0 {
		t.Fatal("no dynamics to compare")
	}
	t.Logf("pairs=%d deltas=%d compression=%.2fx", pairs, deltas, ratio)
	if ratio < 1 {
		t.Errorf("delta keys should never outnumber pairs: %.2f", ratio)
	}
}

func TestUserBrowserCookieHistograms(t *testing.T) {
	_, gt := world(t)
	users, cookies := gt.Accumulate().IdentifierCounts()
	perUser, perBrowser := Histogram(users), Histogram(cookies)
	userTotal, browserTotal := perUser.Total(), perBrowser.Total()
	if perUser.ShareOf(1, userTotal) < 0.6 {
		t.Errorf("single-browser users = %.2f, paper ~0.86", perUser.ShareOf(1, userTotal))
	}
	multi := 1 - perBrowser.ShareOf(0, browserTotal) - perBrowser.ShareOf(1, browserTotal)
	t.Logf("users with 1 browser: %.2f; instances with >1 cookie: %.2f", perUser.ShareOf(1, userTotal), multi)
	if multi < 0.1 {
		t.Errorf("cookie clearing share %.2f too low (paper ~0.32)", multi)
	}
}

func TestVisitSeries(t *testing.T) {
	ds, gt := world(t)
	acc := NewVisitAccumulator(7 * 24 * time.Hour)
	seen := map[string]bool{}
	for i, r := range ds.Records {
		acc.Add(r.Time, !seen[gt.IDs[i]])
		seen[gt.IDs[i]] = true
	}
	series := acc.Series()
	if len(series) < 10 {
		t.Fatalf("only %d weekly buckets over 8 months", len(series))
	}
	totFirst, totRet := 0, 0
	for _, b := range series {
		totFirst += b.FirstTime
		totRet += b.Returning
	}
	if totFirst+totRet != len(ds.Records) {
		t.Fatalf("bucket totals %d != records %d", totFirst+totRet, len(ds.Records))
	}
	if totFirst != gt.NumInstances() {
		t.Fatalf("first-time visits %d != instances %d", totFirst, gt.NumInstances())
	}
	// Returning visitors form a substantial share (paper: ~half later on).
	if totRet == 0 {
		t.Fatal("no returning visits")
	}
}

func TestTypeBreakdown(t *testing.T) {
	_, gt := world(t)
	var types TypeBreakdown
	for _, recs := range gt.Instances {
		types.Add(recs[0])
	}
	byBrowser, byOS := types.ByBrowser, types.ByOS
	if byOS[useragent.Windows] == 0 {
		t.Fatal("no Windows instances")
	}
	// Figure 6: Windows is the most common OS.
	for os, n := range byOS {
		if os != useragent.Windows && n > byOS[useragent.Windows] {
			t.Errorf("%s (%d) outnumbers Windows (%d)", os, n, byOS[useragent.Windows])
		}
	}
	if len(byBrowser) < 5 {
		t.Errorf("only %d browser families: %v", len(byBrowser), byBrowser)
	}
	t.Logf("browsers: %v", byBrowser)
	t.Logf("OS: %v", byOS)
}

func TestStabilityBreakdown(t *testing.T) {
	_, gt := world(t)
	changes := map[string]int{}
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		changes[d.BrowserID]++
	}
	cells := StabilityBreakdown{}
	for id, recs := range gt.Instances {
		cells.Add(len(recs), changes[id], 15)
	}
	total := 0
	for _, n := range cells {
		total += n
	}
	if total != gt.NumInstances() {
		t.Fatalf("cells total %d != instances %d", total, gt.NumInstances())
	}
	// Dynamics count can never exceed visits-1.
	for cell, n := range cells {
		if cell.Dynamics >= cell.Visits && cell.Visits < 15 && n > 0 {
			t.Fatalf("impossible cell %+v (count %d)", cell, n)
		}
	}
	share3 := StableShareAtVisits(cells, 3)
	share8 := StableShareAtVisits(cells, 8)
	t.Logf("stable share at 3 visits: %.2f; at 8 visits: %.2f (paper: ~0.5 → ~0.33)", share3, share8)
	if share3 != 0 && share8 > share3 {
		t.Errorf("stability should not increase with visit count: %v → %v", share3, share8)
	}
}

func TestHistogramShareEmpty(t *testing.T) {
	var h Histogram = map[int]int{}
	if h.ShareOf(1, h.Total()) != 0 {
		t.Fatal("empty histogram share must be 0")
	}
}

func BenchmarkFeatureTable(b *testing.B) {
	ds, gt := world(b)
	dyns := dynamics.Generate(gt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewFeatureAccumulator()
		for _, r := range ds.Records {
			acc.AddRecord(r.FP)
		}
		for _, d := range dyns {
			acc.AddDelta(d.Delta)
		}
		acc.Rows()
	}
}

// TestHistogramTotalShare pins the cached-sum contract: ShareOf is a
// bucket's mass over the hoisted Total, and the zero-mass edge returns
// 0.
func TestHistogramTotalShare(t *testing.T) {
	h := Histogram{1: 6, 2: 3, 5: 1}
	if got := h.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	total := h.Total()
	for k, want := range map[int]float64{0: 0, 1: 0.6, 2: 0.3, 3: 0, 5: 0.1} {
		if got := h.ShareOf(k, total); got != want {
			t.Errorf("bucket %d: ShareOf = %v, want %v", k, got, want)
		}
	}
	var empty Histogram
	if empty.Total() != 0 || empty.ShareOf(3, empty.Total()) != 0 {
		t.Error("empty histogram must report zero total and shares")
	}
}
