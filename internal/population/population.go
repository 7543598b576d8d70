// Package population is the synthetic-world substrate of the
// reproduction: it stands in for the paper's NDA-gated raw dataset
// (7.2M fingerprints from a real European website) by simulating users,
// devices and browser instances over the same deployment window, with
// the same generative causes of fingerprint dynamics — the real
// browser/OS release calendar with per-release side effects, software
// installs, travel, user actions and cookie-clearing behaviours —
// calibrated to the category mix of the paper's Table 2 and the
// marginal distributions of Figures 3–7.
//
// Everything downstream (collection, ground truth, diffing,
// classification, linking, statistics) consumes only the emitted visit
// records, so the substitution preserves every code path the paper's
// analyses exercise. The simulator additionally retains what a real
// deployment cannot: the true instance identity of every record and the
// true cause labels of every change, which is what lets the test suite
// verify the classifier and linker against ground truth.
package population

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/geoip"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// Dataset is a generated raw dataset plus the simulator's ground truth.
type Dataset struct {
	Cfg     Config
	Records []*fingerprint.Record // global time order

	// TrueInstance[i] is the true browser-instance serial of Records[i]
	// (linking ground truth for the FP-Stalker evaluation).
	TrueInstance []int
	// VisitIndex[i] is the per-instance visit ordinal of Records[i].
	VisitIndex []int
	// Truth[i] lists the causes applied since the instance's previous
	// visit (empty for first visits and unchanged fingerprints).
	Truth [][]EventType

	// CanvasImages is the server-side dedup value store: full content
	// for every canvas/GPU image hash, enabling offline pixel diffs.
	CanvasImages map[string]*canvas.Image
	// GPUImageInfo maps each GPU image hash to the true GPU that
	// rendered it (ground truth for the Insight 1.3 inference).
	GPUImageInfo map[string]canvas.GPUInfo

	Geo          *geoip.DB
	NumInstances int

	// renders is the render memo of the run that produced the Dataset;
	// the result and every shard Dataset of one run share it.
	renders *renderMemo
}

// Simulate generates a dataset under the given configuration. The
// output is fully deterministic in cfg.Seed: each user draws from its
// own userSeed sub-RNG, so the whole population simulates as one
// batch (sharded.go) on a pool of cfg.Workers goroutines and merges
// into one global time order — the same Dataset at every worker count,
// and the same record sequence SimulateSpill streams.
func Simulate(cfg Config) *Dataset {
	ds := &Dataset{
		Cfg:          cfg,
		CanvasImages: make(map[string]*canvas.Image),
		GPUImageInfo: make(map[string]canvas.GPUInfo),
		Geo:          geoip.New(cfg.Cities),
		renders:      new(renderMemo),
	}
	shards, numInstances := simulateBatch(cfg, ds.Geo, ds.renders, 0, cfg.Users, 0)
	items := mergeBatch(shards, ds.CanvasImages, ds.GPUImageInfo)
	ds.NumInstances = numInstances
	ds.Records = make([]*fingerprint.Record, len(items))
	ds.TrueInstance = make([]int, len(items))
	ds.VisitIndex = make([]int, len(items))
	ds.Truth = make([][]EventType, len(items))
	for i, it := range items {
		ds.Records[i], ds.TrueInstance[i] = it.Rec, it.Instance
		ds.VisitIndex[i], ds.Truth[i] = it.VisitIndex, it.Truth
	}
	return ds
}

// buildUser creates one user's devices and browser instances and
// schedules their device-level changes. Instance serials are
// user-local, counted from 0; simulateBatch renumbers them into the
// global numbering. All randomness is drawn from rng, the user's own
// sub-stream.
func buildUser(rng *rand.Rand, cfg Config, geo *geoip.DB, u int) ([]*instance, []*device) {
	userID := userHash(cfg.Seed, u)
	var instances []*instance
	var devices []*device
	nDevices := 1
	if rng.Float64() < cfg.MultiDeviceShare {
		nDevices = 2
	}
	var firstDev *device
	var firstFamily string
	for d := 0; d < nDevices; d++ {
		var dv *device
		if d == 1 && firstDev != nil && rng.Float64() < 0.03 {
			// The paper's §2.3.3 false-positive scenario: two machines
			// with exactly the same configuration (a computer lab).
			// Identical stable features merge them into one browser ID,
			// and their cookies interleave.
			dv = cloneDevice(firstDev)
		} else {
			dv = newDevice(rng, cfg, geo)
		}
		devices = append(devices, dv)
		nBrowsers := 1
		if rng.Float64() < cfg.SecondBrowserShare {
			nBrowsers = 2
		}
		used := map[string]bool{}
		var devInstances []*instance
		for b := 0; b < nBrowsers; b++ {
			family := pickBrowser(rng, dv.platform)
			if dv.isClone && b == 0 && firstFamily != "" {
				family = firstFamily // the lab clone runs the same browser
			}
			for used[family] && len(used) < len(dv.platform.browser) {
				family = pickBrowser(rng, dv.platform)
			}
			used[family] = true
			in := newInstance(rng, cfg, len(instances), userID, dv, family)
			instances = append(instances, in)
			devInstances = append(devInstances, in)
			if family == useragent.Samsung {
				dv.hasSamsung = true
			}
		}
		scheduleDevice(rng, cfg, dv, devInstances)
		if d == 0 {
			firstDev = dv
			if len(devInstances) > 0 {
				firstFamily = devInstances[0].family
			}
		}
	}
	return instances, devices
}

// simulateVisits runs the visit loop over the given instances in
// time order, appending records and ground truth to out. The
// instances' serials must be contiguous starting at
// instances[0].serial (true for a user's shard). Randomness comes from
// per-instance RNG streams keyed by the global instance serial, so
// visit behaviour is independent of how the population was
// partitioned into simulateVisits calls.
func simulateVisits(cfg Config, instances []*instance, out *Dataset) {
	if len(instances) == 0 {
		return
	}
	base := instances[0].serial

	// The shard's visit timeline.
	type visitRef struct {
		in *instance
		k  int
		t  time.Time
	}
	var timeline []visitRef
	for _, in := range instances {
		for k, t := range in.visits {
			timeline = append(timeline, visitRef{in, k, t})
		}
	}
	sort.Slice(timeline, func(i, j int) bool {
		if !timeline[i].t.Equal(timeline[j].t) {
			return timeline[i].t.Before(timeline[j].t)
		}
		return timeline[i].in.serial < timeline[j].in.serial
	})

	// Per-instance RNG streams keep visit behaviour independent of the
	// global interleaving.
	instRNG := make([]*rand.Rand, len(instances))
	for i := range instances {
		instRNG[i] = rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(base+i)))
	}
	prevVisit := make([]time.Time, len(instances))
	// pending carries the truth labels of visits whose records were
	// lost to the simulated outage, so the next recorded visit's delta
	// stays explained.
	pending := make([][]EventType, len(instances))
	// recordedOnce tracks whether an instance has a record in the
	// output yet: the first *recorded* visit carries no labels (there
	// is no earlier record to diff against).
	recordedOnce := make([]bool, len(instances))

	for _, vr := range timeline {
		in, now := vr.in, vr.t
		li := in.serial - base
		r := instRNG[li]
		in.dev.applyUntil(now)

		var labels []EventType
		first := vr.k == 0
		from := prevVisit[li]
		if first {
			from = now
		}
		labels = append(labels, in.advance(from, now)...)
		if !first {
			for _, ch := range in.dev.changesBetween(from, now) {
				if ch.except == in.serial {
					continue
				}
				labels = append(labels, ch.kind)
			}
		}
		vs, actionLabels := in.visitActions(r, out)
		labels = append(labels, actionLabels...)
		cookie := in.updateCookie(r, now, vs.private)

		rec := in.render(now, vs, out)
		rec.Cookie = cookie
		if in.userID2 != "" && r.Float64() < 0.4 {
			rec.UserID = in.userID2
		}
		if cfg.SimulateDeployment {
			day := int(now.Sub(cfg.Start) / (24 * time.Hour))
			if day >= OutageStartDay && day < OutageEndDay && r.Float64() < 0.5 {
				// The collection server was partially down: this visit's
				// record is lost. Per-instance state still advanced, and
				// the causes carry over to the next recorded visit.
				if !first {
					pending[li] = append(pending[li], labels...)
				}
				prevVisit[li] = now
				in.visited++
				in.lastVisit = now
				continue
			}
			if day < HotPatchHeaderListDay {
				rec.FP.HeaderList = nil // not collected yet
			}
			if day < HotPatchAcceptDay {
				rec.FP.Accept = "*/*" // the pre-patch collection bug
			}
		}
		if carried := pending[li]; len(carried) > 0 && !first {
			labels = append(carried, labels...)
			pending[li] = nil
		}

		if !recordedOnce[li] {
			labels = nil
			recordedOnce[li] = true
		}
		out.Records = append(out.Records, rec)
		out.TrueInstance = append(out.TrueInstance, in.serial)
		out.VisitIndex = append(out.VisitIndex, vr.k)
		out.Truth = append(out.Truth, dedupLabels(labels))

		prevVisit[li] = now
		in.visited++
		in.lastVisit = now
	}
}

func dedupLabels(labels []EventType) []EventType {
	if len(labels) < 2 {
		return labels
	}
	seen := make(map[EventType]bool, len(labels))
	out := labels[:0]
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func userHash(seed int64, u int) string {
	return "u" + itoa(int(seed%997)) + "-" + itoa(u)
}

// expDuration draws an exponential duration with the given mean.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// newDevice creates a device with sampled hardware and environment.
func newDevice(rng *rand.Rand, cfg Config, geo *geoip.DB) *device {
	p := pickPlatform(rng)
	dv := &device{
		platform: p,
		// City population is heavily skewed: most of a European site's
		// users come from a handful of large cities. The cube bias puts
		// roughly half the users in the seed (big-city) prefix.
		homeCity: int(float64(cfg.Cities) * math.Pow(rng.Float64(), 3.0)),
	}
	dv.curCity = dv.homeCity
	// Language follows the home country, with a minority of expats.
	if rng.Float64() < 0.85 {
		country := geo.CityAt(dv.homeCity).Country
		dv.langIdx = int(hashutil.Hash64(country) % uint64(len(languagePool)))
	} else {
		dv.langIdx = rng.Intn(len(languagePool))
	}

	switch p.os {
	case useragent.Windows:
		if rng.Float64() < 0.75 {
			dv.osVer = useragent.V(10)
		} else if rng.Float64() < 0.7 {
			dv.osVer = useragent.V(7)
		} else {
			dv.osVer = useragent.V(8, 1)
		}
		dv.gpu = gpuPool[rng.Intn(len(gpuPool))]
		dv.cores = []int{2, 4, 4, 4, 8, 8, 16}[rng.Intn(7)]
		dv.cpuClass = "x86"
		dv.screen = desktopResolutions[rng.Intn(len(desktopResolutions))]
		dv.colorDepth = 24
		dv.basePR = []float64{1, 1, 1, 1.25, 1.5}[rng.Intn(5)]
		dv.directX = 11
		if rng.Float64() < 0.15 {
			dv.directX = 9
		}
		dv.baseFonts = sampleFonts(rng, p.os)
		dv.office = rng.Float64() < 0.35
		dv.adobe = rng.Float64() < 0.15
		dv.wps = rng.Float64() < 0.02
		if dv.osVer.Major == 7 {
			dv.win7Old = rng.Float64() < 0.4 // never applied the 2014 emoji update
			if !dv.win7Old {
				dv.emojiMajor = 1
			}
		} else {
			dv.emojiMajor = 2
		}
	case useragent.MacOSX:
		dv.osVer = useragent.V(10, 13, 1)
		if rng.Float64() < 0.3 {
			dv.osVer = useragent.V(10, 12, 6)
		}
		dv.gpu = canvas.GPUInfo{Vendor: "Intel Inc.", Renderer: "Intel Iris Pro OpenGL Engine"}
		if rng.Float64() < 0.3 {
			dv.gpu = canvas.GPUInfo{Vendor: "AMD", Renderer: "AMD Radeon Pro 560"}
		}
		dv.cores = []int{4, 4, 8}[rng.Intn(3)]
		dv.cpuClass = "x86"
		dv.screen = []string{"1440x900", "2560x1600", "1680x1050", "2880x1800"}[rng.Intn(4)]
		dv.colorDepth = 24
		dv.basePR = []float64{1, 2, 2}[rng.Intn(3)]
		dv.baseFonts = sampleFonts(rng, p.os)
		dv.adobe = rng.Float64() < 0.2
		dv.office = rng.Float64() < 0.25
		dv.emojiMajor = 3
	case useragent.Linux:
		dv.osVer = useragent.V(0)
		dv.gpu = gpuPool[rng.Intn(len(gpuPool))]
		dv.cores = []int{2, 4, 8, 16}[rng.Intn(4)]
		dv.cpuClass = "x86"
		dv.screen = desktopResolutions[rng.Intn(len(desktopResolutions))]
		dv.colorDepth = 24
		dv.basePR = 1
		dv.baseFonts = sampleFonts(rng, p.os)
		dv.libre = rng.Float64() < 0.5
		dv.emojiMajor = 4
	case useragent.IOS:
		dv.osVer = []useragent.Version{
			useragent.V(11, 1, 2), useragent.V(11, 0, 3), useragent.V(10, 3, 3),
		}[rng.Intn(3)]
		prof := pickProfile(rng, iosProfiles)
		dv.model, dv.screen, dv.basePR, dv.cores, dv.gpu =
			prof.model, prof.screen, prof.dpr, prof.cores, prof.gpu
		dv.cpuClass = "ARM"
		dv.colorDepth = 32
		dv.baseFonts = sampleFonts(rng, p.os)
		dv.emojiMajor = 5
	case useragent.Android:
		dv.osVer = []useragent.Version{
			useragent.V(7, 0), useragent.V(7, 1, 1), useragent.V(6, 0, 1), useragent.V(8, 0, 0),
		}[rng.Intn(4)]
		prof := pickProfile(rng, androidProfiles)
		dv.model, dv.screen, dv.basePR, dv.cores, dv.gpu =
			prof.model, prof.screen, prof.dpr, prof.cores, prof.gpu
		dv.cpuClass = "ARM"
		dv.colorDepth = 32
		dv.baseFonts = sampleFonts(rng, p.os)
		dv.emojiMajor = 6
	}
	dv.audioChans = 2
	dv.audioRate = 44100
	if !p.mobile {
		// Audio hardware varies on desktops only; phones of one model
		// share the same audio stack.
		if rng.Float64() < 0.25 {
			dv.audioRate = 48000
		}
		if rng.Float64() < 0.05 {
			dv.audioChans = 6
		}
	}
	return dv
}

// sampleFonts returns the OS base fonts plus a per-device subset of the
// optional pool (Windows only) — the principal entropy source behind
// the font list's fingerprintability.
func sampleFonts(rng *rand.Rand, os string) []string {
	switch os {
	case useragent.Windows:
		fonts := append([]string(nil), fontdb.BaseWindows...)
		for _, f := range fontdb.OptionalWindows {
			if rng.Float64() < 0.5 {
				fonts = append(fonts, f)
			}
		}
		sort.Strings(fonts)
		return fonts
	case useragent.MacOSX:
		return append([]string(nil), fontdb.BaseMac...)
	case useragent.Linux:
		return append([]string(nil), fontdb.BaseLinux...)
	case useragent.IOS:
		return append([]string(nil), fontdb.BaseIOS...)
	case useragent.Android:
		return append([]string(nil), fontdb.BaseAndroid...)
	}
	return nil
}

// newInstance creates a browser instance on a device.
func newInstance(rng *rand.Rand, cfg Config, serial int, userID string, dv *device, family string) *instance {
	in := &instance{
		serial:  serial,
		userID:  userID,
		dev:     dv,
		family:  family,
		version: initialVersion(rng, family),
		zoom:    1.0,
	}
	in.neverUpdate = rng.Float64() < cfg.NeverUpdateShare
	lag := expDuration(rng, time.Duration(cfg.MeanUpdateLagDays*float64(24*time.Hour)))
	if family == useragent.Safari {
		lag = time.Duration(float64(lag) * cfg.SafariLagFactor)
	}
	in.updateLag = lag

	in.traveler = rng.Float64() < 0.15
	in.privateProne = rng.Float64() < 0.10
	in.zoomProne = rng.Float64() < 0.06
	in.flashToggler = rng.Float64() < 0.03
	in.langFaker = rng.Float64() < 0.025
	in.resFaker = rng.Float64() < 0.012
	in.desktopRequester = dv.platform.mobile && rng.Float64() < 0.04
	in.uaFaker = rng.Float64() < 0.01
	in.pluginInstaller = !dv.platform.mobile && rng.Float64() < 0.02
	in.lsToggler = rng.Float64() < 0.015
	in.cookieToggler = rng.Float64() < 0.008
	in.vpnUser = rng.Float64() < 0.01
	in.manualClearer = rng.Float64() < 0.18
	if rng.Float64() < 0.01 {
		in.userID2 = userID + "-shared"
	}
	in.itp = (family == useragent.Safari || family == useragent.MobileSafari) && rng.Float64() < 0.6
	in.dxQuirky = dv.platform.os == useragent.Windows && rng.Float64() < 0.10
	in.flashOn = !dv.platform.mobile && rng.Float64() < 0.25

	// Visit schedule: first visit biased toward the (busier) holiday
	// months at the start of the window, then a geometric return process.
	window := cfg.End.Sub(cfg.Start)
	first := cfg.Start.Add(time.Duration(math.Pow(rng.Float64(), 1.5) * float64(window)))
	in.visits = append(in.visits, first)
	t := first
	for len(in.visits) < cfg.MaxVisits && rng.Float64() < cfg.ReturnProb {
		if in.vpnUser && rng.Float64() < 0.5 {
			// VPN users hop on and off the proxy within hours — the
			// short-gap revisits behind the paper's impossible-travel
			// detection (Insight 1.4).
			t = t.Add(1*time.Hour + expDuration(rng, 3*time.Hour))
		} else {
			t = t.Add(6*time.Hour + expDuration(rng, 9*24*time.Hour))
		}
		if t.After(cfg.End) {
			break
		}
		in.visits = append(in.visits, t)
	}
	return in
}

// scheduleDevice precomputes every device-level change for the window:
// OS update adoptions, software installs/updates, driver and
// environment churn. Samsung device-emoji effects are scheduled here so
// co-installed browsers observe them at the right wall-clock time.
func scheduleDevice(rng *rand.Rand, cfg Config, dv *device, devInstances []*instance) {
	add := func(at time.Time, kind EventType, except int, apply func(*device)) {
		if at.Before(cfg.Start) || at.After(cfg.End) {
			// Changes before the window fold into initial state.
			if at.Before(cfg.Start) {
				apply(dv)
			}
			return
		}
		dv.schedule = append(dv.schedule, devChange{at: at, kind: kind, apply: apply, except: except})
	}

	// OS updates.
	osNever := map[string]float64{
		useragent.IOS: 0.35, useragent.Android: 0.75,
		useragent.MacOSX: 0.50, useragent.Windows: 1.0, useragent.Linux: 1.0,
	}[dv.platform.os]
	if rng.Float64() >= osNever {
		meanLag := map[string]time.Duration{
			useragent.IOS: 18 * 24 * time.Hour, useragent.Android: 60 * 24 * time.Hour,
			useragent.MacOSX: 35 * 24 * time.Hour,
		}[dv.platform.os]
		lag := expDuration(rng, meanLag)
		for _, rel := range releasesFor(OSReleases, dv.platform.os) {
			rel := rel
			if rel.V.Compare(dv.osVer) <= 0 {
				continue
			}
			add(rel.Date.Add(lag), EvOSUpdate, -1, func(d *device) {
				if rel.V.Compare(d.osVer) <= 0 {
					return
				}
				d.osVer = rel.V
				if rel.TextDetail {
					d.textEngine++
				}
				if rel.TextWidth {
					d.textWidth++
				}
				if rel.EmojiType {
					d.emojiMajor++
				}
				if rel.EmojiRender {
					d.emojiMinor++
				}
			})
		}
	}

	// A few Windows 7/8.1 holdouts take the free Windows 10 upgrade —
	// the only Windows OS change visible in a user agent (NT 6.x →
	// 10.0), and the paper's small Windows row under OS updates.
	if dv.platform.os == useragent.Windows && dv.osVer.Major < 10 && rng.Float64() < 0.03 {
		add(randomTime(rng, cfg), EvOSUpdate, -1, func(d *device) {
			d.osVer = useragent.V(10)
			d.textEngine++ // new font rasterizer
			d.emojiMajor++ // Windows 10 emoji set
		})
	}

	// Software installs/updates (Insight 1.2 signatures).
	if dv.platform.os == useragent.Windows || dv.platform.os == useragent.MacOSX {
		if dv.office && rng.Float64() < 0.6 {
			at := d(2018, 1, 9).Add(expDuration(rng, 30*24*time.Hour))
			add(at, EvOfficeUpdate, -1, func(d *device) { d.officeUpd = true })
		}
		if !dv.office && rng.Float64() < 0.03 {
			at := randomTime(rng, cfg)
			add(at, EvOfficeInstall, -1, func(d *device) { d.office = true; d.officeUpd = true })
		}
		if !dv.adobe && rng.Float64() < 0.05 {
			add(randomTime(rng, cfg), EvAdobeInstall, -1, func(d *device) { d.adobe = true })
		}
		if !dv.wps && rng.Float64() < 0.01 {
			add(randomTime(rng, cfg), EvWPSInstall, -1, func(d *device) {
				d.wps = true
				d.emojiMinor++ // WPS slightly recolors the emoji rendering
			})
		}
	}
	if dv.platform.os == useragent.Linux && !dv.libre && rng.Float64() < 0.10 {
		add(randomTime(rng, cfg), EvLibreInstall, -1, func(d *device) { d.libre = true })
	}

	// The Windows 7 April-2014 emoji update, applied very late by a few
	// stragglers (Insight 1.1 case 2).
	if dv.win7Old && rng.Float64() < 0.002 {
		add(randomTime(rng, cfg), EvEmojiUpdate, -1, func(d *device) { d.emojiMajor++; d.win7Old = false })
	}

	// Samsung Internet updates change the device emoji pack, observable
	// from co-installed browsers (Insight 1.1 case 1). The Samsung
	// instance itself reports the same moment as a browser update, so it
	// is excluded from the env label via `except`.
	for _, in := range devInstances {
		if in.family != useragent.Samsung || in.neverUpdate {
			continue
		}
		for _, rel := range releasesFor(BrowserReleases, useragent.Samsung) {
			rel := rel
			if !rel.DeviceEmoji || rel.V.Compare(in.version) <= 0 {
				continue
			}
			add(rel.Date.Add(in.updateLag), EvEmojiUpdate, in.serial, func(d *device) {
				if rel.EmojiType {
					d.emojiMajor++
				}
				if rel.EmojiRender {
					d.emojiMinor++
				}
			})
		}
	}

	// Audio driver churn.
	if rng.Float64() < 0.16 {
		add(randomTime(rng, cfg), EvAudioChange, -1, func(d *device) {
			if d.audioRate == 44100 {
				d.audioRate = 48000
			} else {
				d.audioRate = 44100
			}
		})
	}
	// GPU driver update on Windows: DirectX level changes and, because
	// Chrome manages the audio card through DirectX, the audio sample
	// rate moves with it (Insight 3 example 3).
	if dv.platform.os == useragent.Windows && rng.Float64() < 0.09 {
		add(randomTime(rng, cfg), EvGPUDriver, -1, func(d *device) {
			d.driverGen++
			if d.directX == 9 {
				d.directX = 11
				if d.audioRate == 44100 {
					d.audioRate = 48000
				}
			}
		})
	}
	if rng.Float64() < 0.03 {
		lang := []string{"ja-JP", "zh-CN", "ar-SA", "ko-KR"}[rng.Intn(4)]
		add(randomTime(rng, cfg), EvSystemLanguage, -1, func(d *device) {
			d.extraLangs = append(d.extraLangs, lang)
		})
	}
	if rng.Float64() < 0.05 {
		add(randomTime(rng, cfg), EvHeaderLanguage, -1, func(d *device) {
			d.headerLangExtra = "en;q=0.6"
		})
	}
	if rng.Float64() < 0.005 {
		add(randomTime(rng, cfg), EvColorDepth, -1, func(d *device) {
			if d.colorDepth == 24 {
				d.colorDepth = 30
			} else {
				d.colorDepth = 24
			}
		})
	}

	sort.Slice(dv.schedule, func(i, j int) bool { return dv.schedule[i].at.Before(dv.schedule[j].at) })
}

func randomTime(rng *rand.Rand, cfg Config) time.Time {
	return cfg.Start.Add(time.Duration(rng.Float64() * float64(cfg.End.Sub(cfg.Start))))
}
