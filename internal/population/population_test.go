package population

import (
	"strings"
	"testing"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/diff"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// smallWorld memoizes a default 800-user dataset across tests.
var smallWorld *Dataset

func world(t testing.TB) *Dataset {
	if smallWorld == nil {
		smallWorld = Simulate(DefaultConfig(800))
	}
	return smallWorld
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(DefaultConfig(50))
	b := Simulate(DefaultConfig(50))
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].FP.Hash(true) != b.Records[i].FP.Hash(true) {
			t.Fatalf("record %d differs between identical-seed runs", i)
		}
		if !a.Records[i].Time.Equal(b.Records[i].Time) {
			t.Fatalf("record %d time differs", i)
		}
	}
}

func TestSimulateSeedSensitivity(t *testing.T) {
	cfg := DefaultConfig(50)
	a := Simulate(cfg)
	cfg.Seed = 2
	b := Simulate(cfg)
	if len(a.Records) == len(b.Records) {
		same := true
		for i := range a.Records {
			if a.Records[i].FP.Hash(true) != b.Records[i].FP.Hash(true) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical datasets")
		}
	}
}

func TestRecordsTimeOrdered(t *testing.T) {
	ds := world(t)
	for i := 1; i < len(ds.Records); i++ {
		if ds.Records[i].Time.Before(ds.Records[i-1].Time) {
			t.Fatalf("records out of order at %d", i)
		}
	}
}

func TestRecordsWithinWindow(t *testing.T) {
	ds := world(t)
	for i, r := range ds.Records {
		if r.Time.Before(ds.Cfg.Start) || r.Time.After(ds.Cfg.End.Add(24*time.Hour)) {
			t.Fatalf("record %d at %v outside window", i, r.Time)
		}
	}
}

func TestParallelArraysConsistent(t *testing.T) {
	ds := world(t)
	if len(ds.TrueInstance) != len(ds.Records) || len(ds.Truth) != len(ds.Records) || len(ds.VisitIndex) != len(ds.Records) {
		t.Fatal("parallel arrays have inconsistent lengths")
	}
	// First visits have no truth labels.
	for i := range ds.Records {
		if ds.VisitIndex[i] == 0 && len(ds.Truth[i]) != 0 {
			t.Fatalf("first visit %d carries truth labels %v", i, ds.Truth[i])
		}
	}
}

func TestUAsAllParseable(t *testing.T) {
	ds := world(t)
	for i, r := range ds.Records {
		if _, err := useragent.Parse(r.FP.UserAgent); err != nil {
			t.Fatalf("record %d UA unparseable: %v", i, err)
		}
	}
}

func TestVisitDistribution(t *testing.T) {
	ds := world(t)
	visits := map[int]int{}
	for i := range ds.Records {
		if ds.VisitIndex[i]+1 > visits[ds.TrueInstance[i]] {
			visits[ds.TrueInstance[i]] = ds.VisitIndex[i] + 1
		}
	}
	multi := 0
	for _, v := range visits {
		if v > 1 {
			multi++
		}
	}
	share := float64(multi) / float64(len(visits))
	// Paper: ~50% of instances visit more than once.
	if share < 0.3 || share > 0.75 {
		t.Errorf("multi-visit share = %.2f, want roughly 0.5", share)
	}
}

func TestCookieClearingShareCalibration(t *testing.T) {
	ds := world(t)
	gt := browserid.Build(ds.Records)
	share := gt.Accumulate().CookieClearingShare()
	// Paper: ~32% of instances have more than one cookie.
	if share < 0.12 || share > 0.55 {
		t.Errorf("cookie clearing share = %.2f, want roughly 0.32", share)
	}
}

func TestMultiBrowserUsers(t *testing.T) {
	ds := world(t)
	gt := browserid.Build(ds.Records)
	share := gt.Accumulate().MultiBrowserUserShare()
	// Paper: ~14% of users have multiple devices (plus second browsers).
	if share < 0.05 || share > 0.35 {
		t.Errorf("multi-browser user share = %.2f, want roughly 0.15", share)
	}
}

func TestDynamicsExist(t *testing.T) {
	ds := world(t)
	changed := 0
	labelled := 0
	for i := range ds.Records {
		if len(ds.Truth[i]) > 0 {
			labelled++
		}
	}
	// Group consecutive records per instance and count real deltas.
	last := map[int]*fingerprint.Fingerprint{}
	for i, r := range ds.Records {
		inst := ds.TrueInstance[i]
		if prev, ok := last[inst]; ok {
			if !diffEmpty(prev, r.FP) {
				changed++
			}
		}
		last[inst] = r.FP
	}
	if labelled == 0 {
		t.Fatal("no truth labels generated at all")
	}
	if changed == 0 {
		t.Fatal("no fingerprint ever changed")
	}
}

func diffEmpty(a, b *fingerprint.Fingerprint) bool {
	return diff.Diff(a, b).Empty()
}

// Truth labels and actual deltas must agree: whenever a core
// (non-IP) feature changed, there should be a truth label, and the
// converse should hold for most records (transitions like travel with
// equal timezone can yield IP-only changes).
func TestTruthLabelsMatchDeltas(t *testing.T) {
	ds := world(t)
	last := map[int]int{} // instance -> record index
	mismatchedNoLabel := 0
	total := 0
	for i := range ds.Records {
		inst := ds.TrueInstance[i]
		if j, ok := last[inst]; ok {
			d := diff.Diff(ds.Records[j].FP, ds.Records[i].FP)
			coreChanged := false
			for _, fd := range d.Fields {
				if !fingerprint.Describe(fd.Feature).IsIP {
					coreChanged = true
					break
				}
			}
			total++
			if coreChanged && len(ds.Truth[i]) == 0 {
				mismatchedNoLabel++
			}
		}
		last[inst] = i
	}
	if total == 0 {
		t.Fatal("no consecutive visit pairs")
	}
	if rate := float64(mismatchedNoLabel) / float64(total); rate > 0.02 {
		t.Errorf("%.1f%% of changed pairs lack truth labels", rate*100)
	}
}

func TestBrowserUpdatesHappen(t *testing.T) {
	ds := world(t)
	counts := map[EventType]int{}
	for _, labels := range ds.Truth {
		for _, l := range labels {
			counts[l]++
		}
	}
	for _, ev := range []EventType{EvBrowserUpdate, EvOSUpdate, EvTimezoneChange, EvPrivateMode} {
		if counts[ev] == 0 {
			t.Errorf("no %s events in an 800-user world", ev)
		}
	}
	t.Logf("event counts: %v", counts)
}

// samsungLeakSeeds are the 3,000-user worlds TestSamsungEmojiLeak
// searches.
var samsungLeakSeeds = []int64{7, 8, 9}

func TestSamsungEmojiLeak(t *testing.T) {
	// Somewhere in a large world there must be a Chrome Mobile instance
	// whose canvas changed due to a co-installed Samsung update: an
	// env-emoji truth label on a Chrome record. The leak is rare (zero
	// to a few per 3,000 users), so every world in the list is checked.
	found := false
	for _, seed := range samsungLeakSeeds {
		ds := Simulate(func() Config { c := DefaultConfig(3000); c.Seed = seed; return c }())
		labelled, verified := false, false
		last := map[int]int{}
		for i := range ds.Records {
			inst := ds.TrueInstance[i]
			for _, l := range ds.Truth[i] {
				if l == EvEmojiUpdate && ds.Records[i].Browser == useragent.ChromeMobile {
					labelled = true
					// When present, the canvas must actually have changed.
					if j, ok := last[inst]; ok && ds.Records[j].FP.CanvasHash != ds.Records[i].FP.CanvasHash {
						verified = true
					}
				}
			}
			last[inst] = i
		}
		if labelled && !verified {
			t.Errorf("seed %d: emoji-update label present but canvas hash never changed", seed)
		}
		found = found || labelled
	}
	if !found {
		t.Skip("no Samsung-emoji leak in these worlds; acceptable at small scale")
	}
}

func TestCanvasImagesRegistered(t *testing.T) {
	ds := world(t)
	for i, r := range ds.Records {
		if _, ok := ds.CanvasImages[r.FP.CanvasHash]; !ok {
			t.Fatalf("record %d canvas hash not in image store", i)
		}
		if _, ok := ds.CanvasImages[r.FP.GPUImageHash]; !ok {
			t.Fatalf("record %d GPU image hash not in image store", i)
		}
		if _, ok := ds.GPUImageInfo[r.FP.GPUImageHash]; !ok {
			t.Fatalf("record %d GPU image info missing", i)
		}
	}
}

func TestStableFeaturesAreStable(t *testing.T) {
	// Within one instance, hardware features never change (they define
	// the browser ID) except via the documented GPU-driver quirks that
	// alter only GPUType, never vendor/renderer/cores.
	ds := world(t)
	last := map[int]*fingerprint.Fingerprint{}
	for i, r := range ds.Records {
		inst := ds.TrueInstance[i]
		if prev, ok := last[inst]; ok {
			if prev.GPUVendor != r.FP.GPUVendor || prev.GPURenderer != r.FP.GPURenderer {
				t.Fatalf("instance %d changed GPU vendor/renderer", inst)
			}
			if prev.CPUCores != r.FP.CPUCores || prev.CPUClass != r.FP.CPUClass {
				t.Fatalf("instance %d changed CPU", inst)
			}
		}
		last[inst] = r.FP
	}
}

func TestFingerprintEntropy(t *testing.T) {
	// Fingerprints must be diverse enough to be identifying: among
	// first-visit fingerprints, a large majority should be unique.
	ds := world(t)
	seen := map[uint64]int{}
	n := 0
	for i, r := range ds.Records {
		if ds.VisitIndex[i] == 0 {
			seen[r.FP.Hash(false)]++
			n++
		}
	}
	unique := 0
	for _, c := range seen {
		if c == 1 {
			unique++
		}
	}
	if share := float64(unique) / float64(n); share < 0.55 {
		t.Errorf("unique first-visit fingerprint share = %.2f, want > 0.55", share)
	}
}

func TestEventCategoryMixRoughlyCalibrated(t *testing.T) {
	ds := world(t)
	var browser, os, action, env int
	for _, labels := range ds.Truth {
		for _, l := range labels {
			switch {
			case l == EvBrowserUpdate:
				browser++
			case l == EvOSUpdate:
				os++
			case strings.HasPrefix(string(l), "ua-"):
				action++
			case strings.HasPrefix(string(l), "env-"):
				env++
			}
		}
	}
	total := browser + os + action + env
	if total == 0 {
		t.Fatal("no events")
	}
	t.Logf("mix: browser=%.1f%% os=%.1f%% action=%.1f%% env=%.1f%%",
		100*float64(browser)/float64(total), 100*float64(os)/float64(total),
		100*float64(action)/float64(total), 100*float64(env)/float64(total))
	// Table 2 magnitudes: user actions are the largest single category;
	// browser updates exceed OS updates.
	if action <= browser {
		t.Errorf("user actions (%d) should outnumber browser updates (%d)", action, browser)
	}
	if browser <= os/2 {
		t.Errorf("browser updates (%d) should be at least comparable to OS updates (%d)", browser, os)
	}
}

func BenchmarkSimulate1K(b *testing.B) {
	cfg := DefaultConfig(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		Simulate(cfg)
	}
}

// TestScaledScreen: a zoom divides both sides of the base resolution,
// rounding each; zoom 1 and an unparseable base pass through unchanged.
func TestScaledScreen(t *testing.T) {
	for _, c := range []struct {
		base string
		zoom float64
		want string
	}{
		{"1920x1080", 1, "1920x1080"},
		{"1920x1080", 1.25, "1536x864"},
		{"1366x768", 1.1, "1242x698"},
		{"1366x768", 0.9, "1518x853"},
		{"unknown", 1.25, "unknown"},
		{"0x0", 1.25, "0x0"},
	} {
		if got := scaledScreen(c.base, c.zoom); got != c.want {
			t.Errorf("scaledScreen(%q, %v) = %q, want %q", c.base, c.zoom, got, c.want)
		}
	}
}
