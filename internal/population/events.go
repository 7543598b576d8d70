package population

import (
	"math/rand"
	"time"

	"fpdyn/internal/useragent"
)

// EventType labels a ground-truth cause the simulator applied between
// two visits of an instance. The dynamics classifier is evaluated
// against these labels. Prefixes group them into the paper's three
// top-level categories.
type EventType string

const (
	EvBrowserUpdate EventType = "browser-update"
	EvOSUpdate      EventType = "os-update"

	EvTimezoneChange EventType = "ua-timezone"
	EvPrivateMode    EventType = "ua-private"
	EvZoom           EventType = "ua-zoom"
	EvFlashToggle    EventType = "ua-flash"
	EvFakeLanguages  EventType = "ua-fake-lang"
	EvFakeResolution EventType = "ua-fake-res"
	EvMonitorSwitch  EventType = "ua-monitor"
	EvDesktopRequest EventType = "ua-desktop-request"
	EvFakeUA         EventType = "ua-fake-agent"
	EvInstallPlugin  EventType = "ua-plugin"
	EvToggleStorage  EventType = "ua-localstorage"
	EvToggleCookie   EventType = "ua-cookie"

	EvOfficeUpdate   EventType = "env-office-update"
	EvOfficeInstall  EventType = "env-office-install"
	EvAdobeInstall   EventType = "env-adobe"
	EvLibreInstall   EventType = "env-libre"
	EvWPSInstall     EventType = "env-wps"
	EvEmojiUpdate    EventType = "env-emoji"
	EvAudioChange    EventType = "env-audio"
	EvGPUDriver      EventType = "env-gpu-driver"
	EvSystemLanguage EventType = "env-syslang"
	EvHeaderLanguage EventType = "env-header-lang"
	EvColorDepth     EventType = "env-colordepth"
)

// advance applies all instance-level background changes scheduled in
// (from, to]: browser release adoptions and their canvas/plugin side
// effects, plus the Firefox DirectX quirk. It returns the ground-truth
// labels.
func (in *instance) advance(from, to time.Time) []EventType {
	var labels []EventType
	if !in.neverUpdate {
		lag := in.updateLag
		for {
			rel, ok := latestAdoptable(BrowserReleases, in.family, in.version, to, lag)
			if !ok {
				break
			}
			// Only count it as an observed update if adoption happened
			// after the previous visit; earlier adoptions are part of the
			// first-seen state.
			adoptedAt := rel.Date.Add(lag)
			in.version = rel.V
			if rel.TextDetail {
				in.textEngineGen++
			}
			if rel.TextWidth {
				in.textWidthGen++
			}
			if rel.EmojiRender {
				in.emojiRenderGen++
			}
			if rel.EmojiType && !rel.DeviceEmoji {
				in.emojiRenderGen += 3
			}
			// Device-level emoji effects (Samsung, Insight 1.1) are
			// handled by the device schedule so co-installed browsers see
			// them; skip here to avoid double-application.
			if adoptedAt.After(from) {
				labels = append(labels, EvBrowserUpdate)
			}
			// The Firefox 57–60 DirectX fallback (Insight 3 example 2).
			if in.dxQuirky && in.family == useragent.Firefox {
				switch in.version.Major {
				case 58, 59:
					in.dxOverride = 9
				case 60, 61:
					in.dxOverride = 0
				}
			}
		}
	}
	return labels
}

// visitActions rolls the per-visit user actions for an instance. It
// mutates persistent toggles, returns the transient visit state and the
// ground-truth labels. Propensity gating means the same instances act
// repeatedly — the paper's observed gap between 13.4% of instances and
// 31% of dynamics.
func (in *instance) visitActions(rng *rand.Rand, ds *Dataset) (visitState, []EventType) {
	vs := visitState{vpnCity: -1}
	var labels []EventType
	dv := in.dev

	if in.traveler && in.visited > 0 && rng.Float64() < 0.30 {
		// Travel to another city (or home): timezone and IP both move.
		var dest int
		if dv.curCity != dv.homeCity && rng.Float64() < 0.6 {
			dest = dv.homeCity
		} else {
			dest = rng.Intn(ds.Geo.Len())
		}
		if dest != dv.curCity {
			oldTZ := tzOffsetFor(ds.Geo.CityAt(dv.curCity))
			dv.curCity = dest
			if tzOffsetFor(ds.Geo.CityAt(dest)) != oldTZ {
				labels = append(labels, EvTimezoneChange)
			}
		}
	}
	if in.vpnUser && rng.Float64() < 0.35 {
		// Public VPN exits sit far from the user (the paper observes no
		// 150–2,000 km/h band at all for this reason).
		vs.vpnCity = ds.Geo.FarFrom(dv.curCity, 5000, rng.Intn(ds.Geo.Len()))
	}
	if in.privateProne && rng.Float64() < 0.35 {
		vs.private = true
	}
	if vs.private != in.prevPrivate {
		labels = append(labels, EvPrivateMode)
	}
	in.prevPrivate = vs.private
	if in.zoomProne && rng.Float64() < 0.30 {
		levels := []float64{1.0, 0.8, 1.1, 1.25, 1.5}
		nz := levels[rng.Intn(len(levels))]
		if nz != in.zoom {
			in.zoom = nz
			labels = append(labels, EvZoom)
		}
	}
	if in.flashToggler && !dv.platform.mobile && rng.Float64() < 0.25 {
		in.flashOn = !in.flashOn
		labels = append(labels, EvFlashToggle)
	}
	if in.langFaker && rng.Float64() < 0.25 {
		in.fakeLang = !in.fakeLang
		labels = append(labels, EvFakeLanguages)
	}
	if in.resFaker && rng.Float64() < 0.25 {
		in.fakeRes = !in.fakeRes
		labels = append(labels, EvFakeResolution)
	}
	if in.desktopRequester && dv.platform.mobile && rng.Float64() < 0.30 {
		vs.desktopReq = true
	}
	if vs.desktopReq != in.prevDesktopReq {
		labels = append(labels, EvDesktopRequest)
	}
	in.prevDesktopReq = vs.desktopReq
	if in.uaFaker && rng.Float64() < 0.25 {
		in.fakeUA = !in.fakeUA
		labels = append(labels, EvFakeUA)
	}
	if in.pluginInstaller && !dv.platform.mobile && rng.Float64() < 0.15 {
		if len(in.extraPlugins) < len(optionalPlugins) {
			in.extraPlugins = append(in.extraPlugins, optionalPlugins[len(in.extraPlugins)])
			labels = append(labels, EvInstallPlugin)
		}
	}
	if in.lsToggler && rng.Float64() < 0.20 {
		in.lsOff = !in.lsOff
		labels = append(labels, EvToggleStorage)
		// Chrome couples cookie and localStorage behind one checkbox
		// (Insight 3 example 1); Firefox keeps them separate.
		if in.family == useragent.Chrome || in.family == useragent.ChromeMobile {
			in.cookieOff = in.lsOff
			labels = append(labels, EvToggleCookie)
		}
	}
	if in.cookieToggler && rng.Float64() < 0.20 {
		in.cookieOff = !in.cookieOff
		labels = append(labels, EvToggleCookie)
		if in.family == useragent.Chrome || in.family == useragent.ChromeMobile {
			in.lsOff = in.cookieOff
			labels = append(labels, EvToggleStorage)
		}
	}
	// Monitor switch: rare, desktop only, not propensity gated.
	if !dv.platform.mobile && rng.Float64() < 0.002 {
		cur := dv.screen
		for i := 0; i < 4 && dv.screen == cur; i++ {
			dv.screen = desktopResolutions[rng.Intn(len(desktopResolutions))]
		}
		labels = append(labels, EvMonitorSwitch)
	}
	return vs, labels
}

// updateCookie advances the instance's cookie state for a visit at time
// now and returns the cookie value to present. Covers: disabled
// cookies, private-browsing throwaways, Safari ITP expiry (the paper's
// main cookie-clearing cause), and occasional manual clears.
func (in *instance) updateCookie(rng *rand.Rand, now time.Time, private bool) string {
	if in.cookieOff {
		return ""
	}
	if private {
		in.cookieN++
		return cookieName(in.serial, in.cookieN, "pv")
	}
	if in.cookie == "" {
		in.cookieN++
		in.cookie = cookieName(in.serial, in.cookieN, "ck")
		return in.cookie
	}
	switch {
	case in.itp && now.Sub(in.lastVisit) > 7*24*time.Hour:
		// Intelligent tracking prevention purges our cookie after a week
		// of inactivity — the paper's dominant cookie-clearing cause.
		in.cookieN++
		in.cookie = cookieName(in.serial, in.cookieN, "ck")
	case in.manualClearer && rng.Float64() < 0.20:
		in.cookieN++
		in.cookie = cookieName(in.serial, in.cookieN, "ck")
	case rng.Float64() < 0.09:
		// Background churn: cleaner tools, antivirus, expiring cookies.
		in.cookieN++
		in.cookie = cookieName(in.serial, in.cookieN, "ck")
	}
	return in.cookie
}

func cookieName(serial, n int, prefix string) string {
	return prefix + "-" + itoa(serial) + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
