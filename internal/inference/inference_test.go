package inference

import (
	"testing"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/diff"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/geoip"
	"fpdyn/internal/population"
)

var infWorld *population.Dataset
var infGT *browserid.GroundTruth

func world(t testing.TB) (*population.Dataset, *browserid.GroundTruth) {
	if infWorld == nil {
		cfg := population.DefaultConfig(1500)
		cfg.Seed = 17
		infWorld = population.Simulate(cfg)
		infGT = browserid.Build(infWorld.Records)
	}
	return infWorld, infGT
}

func TestEmojiLeaksOnWorld(t *testing.T) {
	ds, gt := world(t)
	cl := &dynamics.Classifier{Images: dynamics.MapImages(ds.CanvasImages)}
	var rep EmojiLeakReport
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		rep.Add(d, cl.Classify(d))
	}
	t.Logf("emoji leaks: total=%d per-family=%v", rep.Total, rep.LeakingDynamics)
	if rep.Total == 0 {
		t.Skip("no emoji leaks at this scale/seed")
	}
	for fam, n := range rep.LeakingInstances {
		if n > rep.LeakingDynamics[fam] {
			t.Errorf("%s: more instances (%d) than dynamics (%d)", fam, n, rep.LeakingDynamics[fam])
		}
	}
}

func TestSoftwareFromFontsCrafted(t *testing.T) {
	mk := func(id string, added []string) *dynamics.Dynamics {
		from := &fingerprint.Record{FP: &fingerprint.Fingerprint{Fonts: []string{"Arial"}}}
		to := &fingerprint.Record{FP: &fingerprint.Fingerprint{Fonts: fingerprint.AddFonts([]string{"Arial"}, added)}}
		return &dynamics.Dynamics{BrowserID: id, From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
	}
	var rep SoftwareReport
	for _, d := range []*dynamics.Dynamics{
		mk("b1", []string{fontdb.MTExtra}),
		mk("b2", fontdb.OfficeDetect),
		mk("b3", fontdb.LibreOffice),
		mk("b4", fontdb.Adobe),
		mk("b5", fontdb.WPS),
		mk("b6", []string{"Random Font"}),
	} {
		rep.AddDynamics(d)
	}
	rep.AddLatest(&fingerprint.Fingerprint{Fonts: fingerprint.AddFonts([]string{"Arial"}, fontdb.OfficeDetect)})
	rep.AddLatest(&fingerprint.Fingerprint{Fonts: []string{"Arial"}})
	if rep.OfficeUpdateInstances != 1 {
		t.Errorf("office updates = %d, want 1", rep.OfficeUpdateInstances)
	}
	if rep.OfficeInstallDynamics != 1 {
		t.Errorf("office installs = %d, want 1", rep.OfficeInstallDynamics)
	}
	if rep.LibreInstances != 1 || rep.AdobeInstances != 1 || rep.WPSInstances != 1 {
		t.Errorf("libre/adobe/wps = %d/%d/%d, want 1 each", rep.LibreInstances, rep.AdobeInstances, rep.WPSInstances)
	}
	if rep.OfficeInstalledInstances != 1 {
		t.Errorf("static office installs = %d, want 1", rep.OfficeInstalledInstances)
	}
}

func TestSoftwareFromFontsOnWorld(t *testing.T) {
	_, gt := world(t)
	var rep SoftwareReport
	for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
		rep.AddDynamics(d)
	}
	for _, recs := range gt.Instances {
		rep.AddLatest(recs[len(recs)-1].FP)
	}
	t.Logf("software report: %+v", rep)
	if rep.OfficeInstalledInstances == 0 {
		t.Error("no Office installations detected statically; 35% of Windows devices have Office")
	}
}

func TestGPUInference(t *testing.T) {
	ds, _ := world(t)
	acc := NewGPUAccumulator()
	for _, r := range ds.Records {
		acc.Add(r)
	}
	rep := acc.Report(ds.GPUImageInfo)
	if rep.DistinctImages == 0 {
		t.Fatal("no GPU images")
	}
	t.Logf("GPU inference: distinct=%d unique=%.2f ≤3=%.2f vendors=%v",
		rep.DistinctImages, rep.UniqueShare, rep.WithinThreeShare, rep.VendorAccuracy)
	if rep.WithinThreeShare < rep.UniqueShare {
		t.Fatal("within-three share cannot be below unique share")
	}
	// Insight 1.3's asymmetry: dedicated GPUs (NVIDIA) infer better
	// than integrated ones (Intel).
	nv, hasNV := rep.VendorAccuracy["NVIDIA Corporation"]
	intel, hasIntel := rep.VendorAccuracy["Intel Inc."]
	if hasNV && hasIntel && nv < intel {
		t.Errorf("NVIDIA accuracy (%.2f) should exceed Intel (%.2f)", nv, intel)
	}
}

func TestGPUInferenceEmpty(t *testing.T) {
	rep := NewGPUAccumulator().Report(nil)
	if rep.DistinctImages != 0 || rep.UniqueShare != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}

// Velocity runs a VelocityAccumulator over every instance's
// consecutive visit pairs, as the report does per partition.
func Velocity(instances map[string][]*fingerprint.Record, geo *geoip.DB) VelocityReport {
	a := NewVelocityAccumulator(geo)
	for id, recs := range instances {
		for i := 1; i < len(recs); i++ {
			a.Add(id, recs[i-1], recs[i])
		}
	}
	return a.Report()
}

func TestVelocityCrafted(t *testing.T) {
	geo := geoip.New(0)
	t0 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(city string, at time.Time) *fingerprint.Record {
		return &fingerprint.Record{Time: at, FP: &fingerprint.Fingerprint{IPCity: city}}
	}
	instances := map[string][]*fingerprint.Record{
		// The paper's case study: Kaluga → Lagos a day later (plane-
		// plausible), then back two hours later (impossible → VPN).
		"vpn-user": {
			mk("Kaluga", t0),
			mk("Lagos", t0.Add(24*time.Hour)),
			mk("Kaluga", t0.Add(26*time.Hour)),
		},
		// An ordinary commuter.
		"commuter": {
			mk("Berlin", t0),
			mk("Munich", t0.Add(6*time.Hour)),
		},
	}
	rep := Velocity(instances, geo)
	if rep.Pairs != 3 {
		t.Fatalf("pairs = %d, want 3", rep.Pairs)
	}
	if len(rep.VPNInstances) != 1 || rep.VPNInstances[0] != "vpn-user" {
		t.Fatalf("VPN instances = %v", rep.VPNInstances)
	}
	// Kaluga→Lagos over 24h is plane-speed (~270 km/h → Mid); the
	// two-hour return is impossible; Berlin→Munich over 6h is slow.
	if rep.Impossible != 1 || rep.Slow != 1 || rep.Mid != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Cases[0].SpeedKmh <= geoip.VPNThresholdKmh {
		t.Fatalf("case speed = %v", rep.Cases[0].SpeedKmh)
	}
}

func TestVelocityOnWorld(t *testing.T) {
	ds, gt := world(t)
	rep := Velocity(gt.Instances, ds.Geo)
	t.Logf("velocity: pairs=%d slow=%d mid=%d impossible=%d vpn-instances=%d",
		rep.Pairs, rep.Slow, rep.Mid, rep.Impossible, len(rep.VPNInstances))
	if rep.Pairs == 0 {
		t.Fatal("no movement pairs")
	}
	// The paper: most movement is slow; impossible hops exist (VPN
	// users are simulated at 0.5%).
	if rep.Slow == 0 {
		t.Error("no slow movements")
	}
	if len(rep.VPNInstances) == 0 {
		t.Skip("no VPN users sampled at this scale")
	}
}

func TestVelocitySkipsUnknownCities(t *testing.T) {
	geo := geoip.New(0)
	t0 := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	instances := map[string][]*fingerprint.Record{
		"x": {
			{Time: t0, FP: &fingerprint.Fingerprint{IPCity: "Nowhere"}},
			{Time: t0.Add(time.Hour), FP: &fingerprint.Fingerprint{IPCity: "Berlin"}},
		},
	}
	if rep := Velocity(instances, geo); rep.Pairs != 0 {
		t.Fatalf("unknown city counted: %+v", rep)
	}
}

func BenchmarkVelocity(b *testing.B) {
	ds, gt := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Velocity(gt.Instances, ds.Geo)
	}
}
