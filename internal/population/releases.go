package population

import (
	"time"

	"fpdyn/internal/useragent"
)

// Release is one browser or OS release in the real-world calendar of
// the deployment window (Dec 2017 – Jul 2018, plus the releases just
// before it that instances are still adopting). Each release carries
// the fingerprint side effects Table 3 documents: canvas text/emoji
// changes, font list changes, plugin changes.
type Release struct {
	Family string // browser family (useragent constants) or OS family
	V      useragent.Version
	Date   time.Time

	// Side effects on the adopting instance/device.
	TextDetail  bool // canvas text detail changes (glyph rasterizer)
	TextWidth   bool // canvas text width changes (font metrics)
	EmojiType   bool // new emoji designs
	EmojiRender bool // subtle emoji rendering change
	DeviceEmoji bool // updates the *device's* emoji pack (visible to co-installed browsers)
}

func d(y int, m time.Month, day int) time.Time {
	return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
}

// BrowserReleases is the browser release calendar. Chrome 63–67 and
// Firefox 58–61 are the Figure 12 markers; side effects follow Table 3.
var BrowserReleases = []Release{
	// Chrome desktop (and mobile tracks the same versions).
	{Family: useragent.Chrome, V: useragent.V(63, 0, 3239, 84), Date: d(2017, 12, 6)},
	{Family: useragent.Chrome, V: useragent.V(64, 0, 3282, 140), Date: d(2018, 1, 24), TextDetail: true},
	{Family: useragent.Chrome, V: useragent.V(65, 0, 3325, 146), Date: d(2018, 3, 6)},
	{Family: useragent.Chrome, V: useragent.V(66, 0, 3359, 117), Date: d(2018, 4, 17), TextDetail: true},
	{Family: useragent.Chrome, V: useragent.V(67, 0, 3396, 62), Date: d(2018, 5, 29)},

	{Family: useragent.ChromeMobile, V: useragent.V(63, 0, 3239, 111), Date: d(2017, 12, 6)},
	{Family: useragent.ChromeMobile, V: useragent.V(64, 0, 3282, 137), Date: d(2018, 1, 24), TextDetail: true},
	{Family: useragent.ChromeMobile, V: useragent.V(65, 0, 3325, 109), Date: d(2018, 3, 6)},
	{Family: useragent.ChromeMobile, V: useragent.V(66, 0, 3359, 126), Date: d(2018, 4, 17)},
	{Family: useragent.ChromeMobile, V: useragent.V(67, 0, 3396, 68), Date: d(2018, 5, 29)},

	// Firefox desktop. 57 (Quantum, Nov 2017) changed font enumeration
	// (Appendix A.4); 58–61 are the Figure 12 markers. The 57→58/59/60
	// DirectX fallback dance is Insight 3 example 2, handled in events.
	{Family: useragent.Firefox, V: useragent.V(57), Date: d(2017, 11, 14), TextWidth: true},
	{Family: useragent.Firefox, V: useragent.V(58), Date: d(2018, 1, 23)},
	{Family: useragent.Firefox, V: useragent.V(59), Date: d(2018, 3, 13), TextDetail: true},
	{Family: useragent.Firefox, V: useragent.V(60), Date: d(2018, 5, 9)},
	{Family: useragent.Firefox, V: useragent.V(61), Date: d(2018, 6, 26), EmojiType: true},

	{Family: useragent.FirefoxMobile, V: useragent.V(57), Date: d(2017, 11, 28), TextWidth: true},
	{Family: useragent.FirefoxMobile, V: useragent.V(58), Date: d(2018, 1, 23)},
	{Family: useragent.FirefoxMobile, V: useragent.V(59), Date: d(2018, 3, 13)},
	{Family: useragent.FirefoxMobile, V: useragent.V(60), Date: d(2018, 5, 9)},

	// Desktop Safari ships with macOS updates; slower adoption (Figure 12).
	{Family: useragent.Safari, V: useragent.V(11, 0, 2), Date: d(2017, 12, 6), EmojiRender: true},
	{Family: useragent.Safari, V: useragent.V(11, 0, 3), Date: d(2018, 1, 23)},
	{Family: useragent.Safari, V: useragent.V(11, 1), Date: d(2018, 3, 29), EmojiRender: true},

	// Samsung Internet: 6.2 introduces the new smiling-face emoji at the
	// *device* level (Figure 8 / Insight 1.1); 7.0 changes text width too.
	{Family: useragent.Samsung, V: useragent.V(6, 2), Date: d(2017, 12, 18), EmojiType: true, DeviceEmoji: true},
	{Family: useragent.Samsung, V: useragent.V(7, 0), Date: d(2018, 3, 7), TextWidth: true, EmojiRender: true, DeviceEmoji: true},

	{Family: useragent.Edge, V: useragent.V(16, 16299), Date: d(2017, 10, 17)},
	{Family: useragent.Edge, V: useragent.V(17, 17134), Date: d(2018, 4, 30), TextDetail: true},

	{Family: useragent.Opera, V: useragent.V(50, 0, 2762, 45), Date: d(2018, 1, 4)},
	{Family: useragent.Opera, V: useragent.V(51, 0, 2830, 26), Date: d(2018, 2, 7)},
	{Family: useragent.Opera, V: useragent.V(52, 0, 2871, 37), Date: d(2018, 3, 22)},
	{Family: useragent.Opera, V: useragent.V(53, 0, 2907, 68), Date: d(2018, 5, 10)},
}

// OSReleases is the OS release calendar. iOS dominates observed OS
// update dynamics (96% in Table 2) because every subversion appears in
// the user agent; Android and macOS update rarely; Windows version
// strings hide build-level updates entirely.
var OSReleases = []Release{
	{Family: useragent.IOS, V: useragent.V(11, 2), Date: d(2017, 12, 2), EmojiRender: true},
	{Family: useragent.IOS, V: useragent.V(11, 2, 1), Date: d(2017, 12, 13)},
	{Family: useragent.IOS, V: useragent.V(11, 2, 2), Date: d(2018, 1, 8)},
	{Family: useragent.IOS, V: useragent.V(11, 2, 5), Date: d(2018, 1, 23)},
	{Family: useragent.IOS, V: useragent.V(11, 2, 6), Date: d(2018, 2, 19)},
	{Family: useragent.IOS, V: useragent.V(11, 3), Date: d(2018, 3, 29), EmojiType: true, DeviceEmoji: true},
	{Family: useragent.IOS, V: useragent.V(11, 3, 1), Date: d(2018, 4, 24)},
	{Family: useragent.IOS, V: useragent.V(11, 4), Date: d(2018, 5, 29), EmojiRender: true},

	{Family: useragent.Android, V: useragent.V(8, 0, 0), Date: d(2017, 8, 21), TextWidth: true, EmojiType: true, DeviceEmoji: true},
	{Family: useragent.Android, V: useragent.V(8, 1, 0), Date: d(2017, 12, 5)},

	{Family: useragent.MacOSX, V: useragent.V(10, 13, 2), Date: d(2017, 12, 6)},
	{Family: useragent.MacOSX, V: useragent.V(10, 13, 3), Date: d(2018, 1, 23)},
	{Family: useragent.MacOSX, V: useragent.V(10, 13, 4), Date: d(2018, 3, 29), EmojiRender: true, DeviceEmoji: true},
	{Family: useragent.MacOSX, V: useragent.V(10, 13, 5), Date: d(2018, 6, 1)},
}

// releasesFor returns the time-ordered releases for a family.
func releasesFor(calendar []Release, family string) []Release {
	var out []Release
	for _, r := range calendar {
		if r.Family == family {
			out = append(out, r)
		}
	}
	return out
}

// latestAdoptable returns the newest release of the family whose date
// plus the instance's adoption lag has passed by now and whose version
// exceeds cur; ok is false if none.
func latestAdoptable(calendar []Release, family string, cur useragent.Version, now time.Time, lag time.Duration) (Release, bool) {
	var best Release
	ok := false
	for _, r := range calendar {
		if r.Family != family {
			continue
		}
		if now.Before(r.Date.Add(lag)) {
			continue
		}
		if r.V.Compare(cur) <= 0 {
			continue
		}
		if !ok || r.V.Compare(best.V) > 0 {
			best, ok = r, true
		}
	}
	return best, ok
}
