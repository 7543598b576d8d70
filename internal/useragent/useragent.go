// Package useragent models the user-agent strings observed in the study.
//
// The paper's diff operation (§2.3.2) parses the user agent into ordered
// subfields — browser name, version, subversion, slashes, parentheses and
// even whitespace — so that a Chrome 56→57 update on two differently
// configured instances produces the same delta. This package provides
//
//   - a structured UA type covering every browser/OS family the paper's
//     Table 2 and Figures 5–6 report (Chrome, Firefox, Safari, Edge,
//     Opera, Samsung Internet and their mobile variants, on Windows,
//     Mac OS X, iOS, Android and Linux),
//   - synthesis of realistic UA strings per family (used by the
//     population simulator),
//   - parsing back from string form, and
//   - the ordered-subfield tokenizer the diff engine consumes.
package useragent

import (
	"fmt"
	"strings"
)

// Browser families used throughout the study. The names match the labels
// the paper uses in Table 2 and Figure 5.
const (
	Chrome        = "Chrome"
	ChromeMobile  = "Chrome Mobile"
	Firefox       = "Firefox"
	FirefoxMobile = "Firefox Mobile"
	Safari        = "Safari"
	MobileSafari  = "Mobile Safari"
	Edge          = "Edge"
	Opera         = "Opera"
	Samsung       = "Samsung Internet"
	Maxthon       = "Maxthon"
	IE            = "IE"
)

// OS families, matching Figure 6.
const (
	Windows = "Windows"
	MacOSX  = "Mac OS X"
	IOS     = "iOS"
	Android = "Android"
	Linux   = "Linux"
)

// UA is a structured user agent: the parsed identity of a browser
// instance as transmitted in the User-Agent header.
type UA struct {
	Browser        string  // browser family, e.g. Chrome
	BrowserVersion Version // full browser version
	OS             string  // OS family, e.g. Windows
	OSVersion      Version // OS version as exposed in the UA
	Device         string  // device model for mobile ("SM-J330F", "iPhone"); empty on desktop
	Mobile         bool    // whether this is a mobile-form-factor UA
}

// webkitFor returns the AppleWebKit token version appropriate for the
// browser generation; Safari's engine version tracks its own release.
func (u UA) webkitFor() string {
	switch u.Browser {
	case Safari, MobileSafari:
		switch {
		case u.BrowserVersion.Major >= 12:
			return "605.1.15"
		case u.BrowserVersion.Major >= 11:
			return "604.4.7"
		default:
			return "603.3.8"
		}
	}
	return "537.36"
}

// chromeEngineVersion returns the Chrome/x token embedded in Samsung
// Internet UAs: Samsung pins an older Chromium engine.
func samsungEngine(samsungMajor int) string {
	switch {
	case samsungMajor >= 7:
		return "59.0.3071.125"
	case samsungMajor >= 6:
		return "56.0.2924.87"
	default:
		return "51.0.2704.106"
	}
}

// String synthesizes the canonical user-agent string for the structured
// UA. The formats follow the real-world conventions of each family so
// that parsing, subfield diffing and report examples (e.g. Figure 11)
// look like the paper's.
func (u UA) String() string {
	switch u.Browser {
	case Chrome:
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/%s Safari/537.36",
			u.desktopPlatform(), u.BrowserVersion)
	case ChromeMobile:
		if u.OS == IOS {
			// Chrome on iOS wraps WebKit and announces itself as CriOS.
			return fmt.Sprintf("Mozilla/5.0 (%s; CPU %s %s like Mac OS X) AppleWebKit/604.4.7 (KHTML, like Gecko) CriOS/%s Mobile/15C114 Safari/604.1",
				u.Device, iphoneOSToken(u.Device), u.OSVersion.Underscored(), u.BrowserVersion)
		}
		return fmt.Sprintf("Mozilla/5.0 (Linux; Android %s; %s) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/%s Mobile Safari/537.36",
			u.OSVersion, u.Device, u.BrowserVersion)
	case Samsung:
		device := ""
		if u.Device != "" {
			device = "; SAMSUNG " + u.Device
		}
		return fmt.Sprintf("Mozilla/5.0 (Linux; Android %s%s) AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/%d.%d Chrome/%s Mobile Safari/537.36",
			u.OSVersion, device, u.BrowserVersion.Major, max0(u.BrowserVersion.Minor), samsungEngine(u.BrowserVersion.Major))
	case Firefox:
		return fmt.Sprintf("Mozilla/5.0 (%s; rv:%d.0) Gecko/20100101 Firefox/%d.0",
			u.desktopPlatform(), u.BrowserVersion.Major, u.BrowserVersion.Major)
	case FirefoxMobile:
		if u.OS == IOS {
			// Firefox on iOS wraps WebKit and announces itself as FxiOS.
			return fmt.Sprintf("Mozilla/5.0 (%s; CPU %s %s like Mac OS X) AppleWebKit/604.4.7 (KHTML, like Gecko) FxiOS/%d.0 Mobile/15C114 Safari/604.1",
				u.Device, iphoneOSToken(u.Device), u.OSVersion.Underscored(), u.BrowserVersion.Major)
		}
		return fmt.Sprintf("Mozilla/5.0 (Android %s; Mobile; rv:%d.0) Gecko/%d.0 Firefox/%d.0",
			u.OSVersion, u.BrowserVersion.Major, u.BrowserVersion.Major, u.BrowserVersion.Major)
	case Safari:
		wk := u.webkitFor()
		return fmt.Sprintf("Mozilla/5.0 (Macintosh; Intel Mac OS X %s) AppleWebKit/%s (KHTML, like Gecko) Version/%s Safari/%s",
			u.OSVersion.Underscored(), wk, u.BrowserVersion, wk)
	case MobileSafari:
		wk := u.webkitFor()
		return fmt.Sprintf("Mozilla/5.0 (%s; CPU %s %s like Mac OS X) AppleWebKit/%s (KHTML, like Gecko) Version/%s Mobile/15C153 Safari/604.1",
			u.Device, iphoneOSToken(u.Device), u.OSVersion.Underscored(), wk, u.BrowserVersion)
	case Edge:
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/58.0.3029.110 Safari/537.36 Edge/%d.%d",
			u.desktopPlatform(), u.BrowserVersion.Major, max0(u.BrowserVersion.Minor))
	case Opera:
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/62.0.3202.94 Safari/537.36 OPR/%s",
			u.desktopPlatform(), u.BrowserVersion)
	case Maxthon:
		return fmt.Sprintf("Mozilla/5.0 (%s) AppleWebKit/537.36 (KHTML, like Gecko) Maxthon/%s Chrome/61.0.3163.79 Safari/537.36",
			u.desktopPlatform(), u.BrowserVersion)
	case IE:
		return fmt.Sprintf("Mozilla/5.0 (Windows NT %s; Trident/7.0; rv:%d.0) like Gecko",
			u.OSVersion, u.BrowserVersion.Major)
	}
	return fmt.Sprintf("Mozilla/5.0 (Unknown) Generic/%s", u.BrowserVersion)
}

func max0(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// desktopPlatform renders the parenthesised platform token for desktop
// UAs.
func (u UA) desktopPlatform() string {
	switch u.OS {
	case Windows:
		return fmt.Sprintf("Windows NT %s; Win64; x64", windowsNT(u.OSVersion))
	case MacOSX:
		return fmt.Sprintf("Macintosh; Intel Mac OS X %s", u.OSVersion.Underscored())
	case Linux:
		return "X11; Linux x86_64"
	}
	return "X11; Linux x86_64"
}

// windowsNT maps marketing Windows versions to their NT kernel tokens.
func windowsNT(v Version) string {
	switch v.Major {
	case 7:
		return "6.1"
	case 8:
		if v.Minor == 1 {
			return "6.3"
		}
		return "6.2"
	case 10:
		return "10.0"
	}
	return v.String()
}

// ntToWindows is the inverse of windowsNT.
func ntToWindows(s string) Version {
	switch s {
	case "6.1":
		return V(7)
	case "6.2":
		return V(8)
	case "6.3":
		return V(8, 1)
	case "10.0":
		return V(10)
	}
	if v, err := ParseVersion(s); err == nil {
		return v
	}
	return V(0)
}

func iphoneOSToken(device string) string {
	if strings.Contains(device, "iPad") {
		return "OS" // iPad UAs read "CPU OS 11_2 like Mac OS X"
	}
	return "iPhone OS"
}

// RequestDesktop returns the UA a mobile browser presents after the user
// requests the desktop version of a site: the platform token switches to
// a desktop one while the engine/version tokens stay. This is the
// paper's Figure 11(a) false-negative scenario.
func (u UA) RequestDesktop() UA {
	d := u
	d.Mobile = false
	d.Device = ""
	switch u.Browser {
	case ChromeMobile, Samsung:
		d.Browser = Chrome
		d.OS = Linux
		d.OSVersion = V(0)
	case MobileSafari:
		d.Browser = Safari
		d.OS = MacOSX
		d.OSVersion = V(10, 13)
	case FirefoxMobile:
		d.Browser = Firefox
		d.OS = Linux
		d.OSVersion = V(0)
	}
	return d
}

// IsDesktopRequestPair recognizes a mobile↔desktop swap that preserves
// the engine version: one UA is the other's RequestDesktop alias
// (Figure 11(a)).
func IsDesktopRequestPair(a, b UA) bool {
	if a.Mobile == b.Mobile {
		return false
	}
	mob, desk := a, b
	if b.Mobile {
		mob, desk = b, a
	}
	return mob.RequestDesktop().Browser == desk.Browser &&
		mob.BrowserVersion.Compare(desk.BrowserVersion) == 0
}
