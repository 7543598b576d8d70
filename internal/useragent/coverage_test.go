package useragent

import (
	"strings"
	"testing"
)

func TestWebkitForSafariGenerations(t *testing.T) {
	cases := []struct {
		v    Version
		want string
	}{
		{V(12, 0), "605.1.15"},
		{V(11, 1), "604.4.7"},
		{V(10, 1, 2), "603.3.8"},
	}
	for _, c := range cases {
		u := UA{Browser: Safari, BrowserVersion: c.v, OS: MacOSX, OSVersion: V(10, 13)}
		if got := u.webkitFor(); got != c.want {
			t.Errorf("webkitFor(Safari %v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Non-Safari families always use the Blink token.
	u := UA{Browser: Chrome, BrowserVersion: V(63)}
	if u.webkitFor() != "537.36" {
		t.Errorf("Chrome webkit = %q", u.webkitFor())
	}
}

func TestSamsungEngineGenerations(t *testing.T) {
	if samsungEngine(7) != "59.0.3071.125" || samsungEngine(6) != "56.0.2924.87" || samsungEngine(5) != "51.0.2704.106" {
		t.Fatal("samsung engine mapping wrong")
	}
}

func TestWindowsNTAllVersions(t *testing.T) {
	cases := []struct {
		v    Version
		want string
	}{
		{V(7), "6.1"}, {V(8), "6.2"}, {V(8, 1), "6.3"}, {V(10), "10.0"},
		{V(11), "11"}, // pass-through for unmapped versions
	}
	for _, c := range cases {
		if got := windowsNT(c.v); got != c.want {
			t.Errorf("windowsNT(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Round trips through ntToWindows.
	for _, c := range cases[:4] {
		if got := ntToWindows(c.want); got.Compare(c.v) != 0 {
			t.Errorf("ntToWindows(%q) = %v, want %v", c.want, got, c.v)
		}
	}
	if got := ntToWindows("bogus"); got.Major != 0 {
		t.Errorf("ntToWindows(bogus) = %v", got)
	}
}

func TestDesktopPlatformAllOSes(t *testing.T) {
	for _, c := range []struct {
		os   string
		want string
	}{
		{Windows, "Windows NT"},
		{MacOSX, "Macintosh"},
		{Linux, "X11; Linux"},
		{"SomethingElse", "X11; Linux"}, // fallback
	} {
		u := UA{Browser: Chrome, BrowserVersion: V(63), OS: c.os, OSVersion: V(10, 13)}
		if got := u.desktopPlatform(); !strings.Contains(got, c.want) {
			t.Errorf("desktopPlatform(%s) = %q", c.os, got)
		}
	}
}

func TestRequestDesktopAllFamilies(t *testing.T) {
	cases := []struct {
		family string
		want   string
	}{
		{ChromeMobile, Chrome},
		{Samsung, Chrome},
		{MobileSafari, Safari},
		{FirefoxMobile, Firefox},
	}
	for _, c := range cases {
		m := UA{Browser: c.family, BrowserVersion: V(60), OS: Android, OSVersion: V(8), Device: "X", Mobile: true}
		if c.family == MobileSafari {
			m.OS = IOS
		}
		d := m.RequestDesktop()
		if d.Browser != c.want || d.Mobile || d.Device != "" {
			t.Errorf("RequestDesktop(%s) = %+v", c.family, d)
		}
	}
	// A desktop UA is unchanged.
	desk := UA{Browser: Chrome, BrowserVersion: V(63), OS: Windows, OSVersion: V(10)}
	if got := desk.RequestDesktop(); got.Browser != Chrome || got.OS != Windows {
		t.Errorf("desktop RequestDesktop = %+v", got)
	}
}

func TestIEAndUnknownFamilies(t *testing.T) {
	ie := UA{Browser: IE, BrowserVersion: V(11), OS: Windows, OSVersion: V(7)}
	s := ie.String()
	if !strings.Contains(s, "Trident/7.0") || !strings.Contains(s, "rv:11.0") {
		t.Fatalf("IE UA = %q", s)
	}
	parsed, err := Parse(s)
	if err != nil || parsed.Browser != IE || parsed.OSVersion.Major != 7 {
		t.Fatalf("IE parse = %+v, %v", parsed, err)
	}
	unknown := UA{Browser: "Netscape", BrowserVersion: V(4)}
	if !strings.Contains(unknown.String(), "Generic/4") {
		t.Fatalf("unknown family UA = %q", unknown.String())
	}
}

func TestMax0(t *testing.T) {
	if max0(-3) != 0 || max0(5) != 5 || max0(0) != 0 {
		t.Fatal("max0 wrong")
	}
}

func TestIPadOSToken(t *testing.T) {
	ipad := UA{Browser: MobileSafari, BrowserVersion: V(11, 0), OS: IOS, OSVersion: V(11, 2), Device: "iPad", Mobile: true}
	s := ipad.String()
	if !strings.Contains(s, "CPU OS 11_2 like Mac OS X") {
		t.Fatalf("iPad UA = %q (want the bare OS token)", s)
	}
	iphone := UA{Browser: MobileSafari, BrowserVersion: V(11, 0), OS: IOS, OSVersion: V(11, 2), Device: "iPhone", Mobile: true}
	if !strings.Contains(iphone.String(), "CPU iPhone OS 11_2") {
		t.Fatalf("iPhone UA = %q", iphone.String())
	}
}

func TestParseOperaAndMaxthon(t *testing.T) {
	op := UA{Browser: Opera, BrowserVersion: V(50, 0, 2762, 45), OS: Windows, OSVersion: V(10)}
	got, err := Parse(op.String())
	if err != nil || got.Browser != Opera {
		t.Fatalf("Opera parse = %+v, %v", got, err)
	}
	mx := UA{Browser: Maxthon, BrowserVersion: V(5, 1, 3, 2000), OS: Windows, OSVersion: V(10)}
	got, err = Parse(mx.String())
	if err != nil || got.Browser != Maxthon {
		t.Fatalf("Maxthon parse = %+v, %v", got, err)
	}
}
