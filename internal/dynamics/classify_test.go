package dynamics

import (
	"testing"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/diff"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/useragent"
)

// base returns a realistic desktop Chrome fingerprint record.
func base() *fingerprint.Record {
	ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(56, 0, 2924, 87), OS: useragent.Windows, OSVersion: useragent.V(10)}
	return &fingerprint.Record{
		Time:   time.Date(2018, 1, 10, 10, 0, 0, 0, time.UTC),
		UserID: "u1", Cookie: "ck-1",
		Browser: useragent.Chrome, OS: useragent.Windows,
		FP: &fingerprint.Fingerprint{
			UserAgent:     ua.String(),
			Accept:        "text/html",
			Encoding:      "gzip, deflate, br",
			Language:      "de-DE,de;q=0.9,en;q=0.8",
			HeaderList:    []string{"Host", "User-Agent", "Accept"},
			Plugins:       []string{"Chrome PDF Plugin", "Native Client"},
			CookieEnabled: true, WebGL: true, LocalStorage: true,
			TimezoneOffset: 60,
			Languages:      []string{"de-DE"},
			Fonts:          []string{"Arial", "Calibri", "Verdana"},
			CanvasHash:     "c-old",
			GPUVendor:      "NVIDIA Corporation",
			GPURenderer:    "GeForce GTX 970",
			GPUType:        "ANGLE (Direct3D11)",
			CPUCores:       4, CPUClass: "x86",
			AudioInfo:        "channels:2;rate:44100",
			ScreenResolution: "1920x1080", ColorDepth: 24, PixelRatio: "1",
			IPCity: "Berlin", IPRegion: "Berlin", IPCountry: "Germany",
			ConsLanguage: true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
			GPUImageHash: "g-old",
		},
	}
}

// dyn builds a Dynamics from a mutation applied to the base record.
func dyn(mutate func(*fingerprint.Record)) *Dynamics {
	from := base()
	to := base()
	to.Time = from.Time.Add(48 * time.Hour)
	mutate(to)
	return &Dynamics{BrowserID: "b1", From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
}

func classify(t *testing.T, d *Dynamics) Classification {
	t.Helper()
	var cl Classifier
	return cl.Classify(d)
}

func TestClassifyBrowserUpdate(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98), OS: useragent.Windows, OSVersion: useragent.V(10)}
		r.FP.UserAgent = ua.String()
		r.FP.CanvasHash = "c-new" // updates often change canvas
	})
	c := classify(t, d)
	if !c.Has(CauseBrowserUpdate) {
		t.Fatalf("causes = %v, want browser update", c.Causes)
	}
	if c.Has(CauseCanvasEmoji) || c.Has(CauseCanvasText) {
		t.Error("canvas change must be attributed to the update, not environment")
	}
	if len(c.Categories()) > 1 {
		t.Errorf("single-category expected, got %v", c.Categories())
	}
}

func TestClassifyOSUpdate(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(56, 0, 2924, 87), OS: useragent.Windows, OSVersion: useragent.V(10)}
		_ = ua
		// Simulate an iOS-style OS bump visible in the UA: use macOS.
		ua2 := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(56, 0, 2924, 87), OS: useragent.Windows, OSVersion: useragent.V(10)}
		r.FP.UserAgent = ua2.String()
	})
	// Windows hides sub-versions, so craft a Safari/macOS pair instead.
	from := base()
	fromUA := useragent.UA{Browser: useragent.Safari, BrowserVersion: useragent.V(11, 0, 2), OS: useragent.MacOSX, OSVersion: useragent.V(10, 13, 2)}
	from.FP.UserAgent = fromUA.String()
	to := base()
	toUA := useragent.UA{Browser: useragent.Safari, BrowserVersion: useragent.V(11, 0, 2), OS: useragent.MacOSX, OSVersion: useragent.V(10, 13, 3)}
	to.FP.UserAgent = toUA.String()
	d = &Dynamics{BrowserID: "b", From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
	c := classify(t, d)
	if !c.Has(CauseOSUpdate) || c.Has(CauseBrowserUpdate) {
		t.Fatalf("causes = %v, want OS update only", c.Causes)
	}
}

func TestClassifyDesktopRequest(t *testing.T) {
	// Figure 11(a): mobile Chrome presents a Linux desktop UA.
	from := base()
	mUA := useragent.UA{Browser: useragent.ChromeMobile, BrowserVersion: useragent.V(77, 0, 3865, 92), OS: useragent.Android, OSVersion: useragent.V(9), Device: "SM-N960U", Mobile: true}
	from.FP.UserAgent = mUA.String()
	to := base()
	to.FP.UserAgent = mUA.RequestDesktop().String()
	to.FP.ConsOS = false
	d := &Dynamics{BrowserID: "b", From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
	c := classify(t, d)
	if !c.Has(CauseDesktopSite) {
		t.Fatalf("causes = %v, want desktop request", c.Causes)
	}
	if c.Has(CauseFakeAgent) {
		t.Error("desktop request misread as fake agent")
	}
}

func TestClassifyFakeAgent(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		fake := useragent.UA{Browser: useragent.Firefox, BrowserVersion: useragent.V(52), OS: useragent.Windows, OSVersion: useragent.V(10)}
		r.FP.UserAgent = fake.String()
		r.FP.ConsBrowser = false
	})
	c := classify(t, d)
	if !c.Has(CauseFakeAgent) {
		t.Fatalf("causes = %v, want fake agent", c.Causes)
	}
}

func TestClassifyTimezone(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.TimezoneOffset = -300
		r.FP.IPCity, r.FP.IPRegion, r.FP.IPCountry = "New York", "New York", "United States"
	})
	c := classify(t, d)
	if !c.Has(CauseTimezone) || len(c.Causes) != 1 {
		t.Fatalf("causes = %v, want timezone only", c.Causes)
	}
}

func TestClassifyPrivateBrowsing(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.LocalStorage = false
		r.Cookie = "pv-throwaway"
	})
	c := classify(t, d)
	if !c.Has(CausePrivate) {
		t.Fatalf("causes = %v, want private browsing", c.Causes)
	}
}

func TestClassifyStorageToggleSameCookie(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) { r.FP.LocalStorage = false })
	c := classify(t, d)
	if !c.Has(CauseLocalStorage) || c.Has(CausePrivate) {
		t.Fatalf("causes = %v, want localStorage toggle", c.Causes)
	}
}

func TestClassifyChromeCookieStorageCoupling(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.LocalStorage = false
		r.FP.CookieEnabled = false
		r.Cookie = ""
	})
	c := classify(t, d)
	if !c.Has(CauseCookieToggle) || !c.Has(CauseLocalStorage) {
		t.Fatalf("causes = %v, want both cookie and localStorage toggles", c.Causes)
	}
}

func TestClassifyZoom(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.ScreenResolution = "1536x864" // 1920x1080 / 1.25
		r.FP.PixelRatio = "1.25"
	})
	c := classify(t, d)
	if !c.Has(CauseZoom) || c.Has(CauseMonitor) {
		t.Fatalf("causes = %v, want zoom", c.Causes)
	}
}

func TestClassifyMonitorSwitch(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) { r.FP.ScreenResolution = "1280x1024" })
	c := classify(t, d)
	if !c.Has(CauseMonitor) || c.Has(CauseZoom) {
		t.Fatalf("causes = %v, want monitor switch", c.Causes)
	}
}

func TestClassifyFakeResolution(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.ScreenResolution = "800x600"
		r.FP.ConsResolution = false
	})
	c := classify(t, d)
	if !c.Has(CauseFakeRes) {
		t.Fatalf("causes = %v, want fake resolution", c.Causes)
	}
}

func TestClassifyFlashToggle(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.Plugins = append(r.FP.Plugins, "Shockwave Flash")
	})
	c := classify(t, d)
	if !c.Has(CauseFlash) || c.Has(CausePlugin) {
		t.Fatalf("causes = %v, want flash toggle", c.Causes)
	}
}

func TestClassifyPluginInstall(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.Plugins = append(r.FP.Plugins, "VLC Web Plugin")
	})
	c := classify(t, d)
	if !c.Has(CausePlugin) {
		t.Fatalf("causes = %v, want plugin install", c.Causes)
	}
}

func TestClassifyOfficeFontUpdate(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.Fonts = fingerprint.AddFonts(r.FP.Fonts, []string{fontdb.MTExtra})
	})
	c := classify(t, d)
	if !c.Has(CauseFontOffice) {
		t.Fatalf("causes = %v, want Office font update", c.Causes)
	}
}

func TestClassifyLibreOfficeInstall(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.Fonts = fingerprint.AddFonts(r.FP.Fonts, fontdb.LibreOffice)
	})
	c := classify(t, d)
	if !c.Has(CauseFontLibre) {
		t.Fatalf("causes = %v, want LibreOffice", c.Causes)
	}
}

func TestClassifyAdobeInstall(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.Fonts = fingerprint.AddFonts(r.FP.Fonts, fontdb.Adobe)
	})
	c := classify(t, d)
	if !c.Has(CauseFontAdobe) {
		t.Fatalf("causes = %v, want Adobe", c.Causes)
	}
}

func TestClassifyCanvasEmojiWithImages(t *testing.T) {
	imgA := canvas.Render(canvas.Params{EmojiMajor: 1})
	imgB := canvas.Render(canvas.Params{EmojiMajor: 2})
	cl := Classifier{Images: MapImages{imgA.Hash(): imgA, imgB.Hash(): imgB}}
	from := base()
	from.FP.CanvasHash = imgA.Hash()
	to := base()
	to.FP.CanvasHash = imgB.Hash()
	d := &Dynamics{BrowserID: "b", From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
	c := cl.Classify(d)
	if !c.Has(CauseCanvasEmoji) {
		t.Fatalf("causes = %v, want emoji canvas update", c.Causes)
	}
}

func TestClassifyCanvasTextWithImages(t *testing.T) {
	imgA := canvas.Render(canvas.Params{TextEngine: 1, EmojiMajor: 1})
	imgB := canvas.Render(canvas.Params{TextEngine: 2, EmojiMajor: 1})
	cl := Classifier{Images: MapImages{imgA.Hash(): imgA, imgB.Hash(): imgB}}
	from := base()
	from.FP.CanvasHash = imgA.Hash()
	to := base()
	to.FP.CanvasHash = imgB.Hash()
	d := &Dynamics{BrowserID: "b", From: from, To: to, Delta: diff.Diff(from.FP, to.FP)}
	c := cl.Classify(d)
	if !c.Has(CauseCanvasText) {
		t.Fatalf("causes = %v, want text canvas update", c.Causes)
	}
}

func TestClassifyAudioGPUColorDepth(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.AudioInfo = "channels:2;rate:48000"
		r.FP.GPUType = "ANGLE (Direct3D9Ex)"
		r.FP.ColorDepth = 30
	})
	c := classify(t, d)
	for _, want := range []Cause{CauseAudio, CauseGPURender, CauseColorDepth} {
		if !c.Has(want) {
			t.Errorf("causes = %v, missing %v", c.Causes, want)
		}
	}
}

func TestClassifyHeaderLanguageVsFake(t *testing.T) {
	// Same primary tag → environment header-language update.
	d := dyn(func(r *fingerprint.Record) { r.FP.Language = "de-DE,de;q=0.9,en;q=0.8,fr;q=0.7" })
	c := classify(t, d)
	if !c.Has(CauseHeaderLang) {
		t.Fatalf("causes = %v, want header language update", c.Causes)
	}
	// Different primary + consistency flip → fake.
	d = dyn(func(r *fingerprint.Record) {
		r.FP.Language = "en"
		r.FP.ConsLanguage = false
	})
	c = classify(t, d)
	if !c.Has(CauseFakeLang) {
		t.Fatalf("causes = %v, want fake languages", c.Causes)
	}
}

func TestClassifySystemLanguage(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.Languages = append(r.FP.Languages, "ja-JP")
	})
	c := classify(t, d)
	if !c.Has(CauseSysLang) {
		t.Fatalf("causes = %v, want system language", c.Causes)
	}
}

func TestIPOnlyChangeIsNotCore(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		r.FP.IPCity, r.FP.IPRegion = "Munich", "Bavaria"
	})
	if d.CoreChanged() {
		t.Fatal("IP-only delta flagged as core change")
	}
}

func TestCompositeClassification(t *testing.T) {
	d := dyn(func(r *fingerprint.Record) {
		ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98), OS: useragent.Windows, OSVersion: useragent.V(10)}
		r.FP.UserAgent = ua.String()
		r.FP.TimezoneOffset = 0
	})
	c := classify(t, d)
	if len(c.Categories()) < 2 {
		t.Fatalf("want composite, got %v", c.Categories())
	}
	if ComboLabel(c.Categories()) != "Browser Updates + User Actions" {
		t.Fatalf("label = %q", ComboLabel(c.Categories()))
	}
}

func TestAnalyzeAggregation(t *testing.T) {
	// Grouped by BrowserID, as every Generate* output is (Analyze's
	// accumulator dedups per instance on the group boundaries).
	dyns := []*Dynamics{
		dyn(func(r *fingerprint.Record) { r.FP.TimezoneOffset = 0 }),
		dyn(func(r *fingerprint.Record) {
			ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57), OS: useragent.Windows, OSVersion: useragent.V(10)}
			r.FP.UserAgent = ua.String()
		}),
		dyn(func(r *fingerprint.Record) { r.FP.IPCity = "Munich" }), // IP only: not counted
		dyn(func(r *fingerprint.Record) { r.FP.TimezoneOffset = 120 }),
	}
	dyns[3].BrowserID = "b2"
	var cl Classifier
	b := Analyze(dyns, &cl, 10)
	if b.TotalChanged != 3 {
		t.Fatalf("TotalChanged = %d, want 3", b.TotalChanged)
	}
	if b.PureCategory[CatUserAction] != 2 || b.PureCategory[CatBrowserUpdate] != 1 {
		t.Fatalf("pure = %v", b.PureCategory)
	}
	if b.CauseInstances[CauseTimezone] != 2 {
		t.Fatalf("timezone instances = %d, want 2", b.CauseInstances[CauseTimezone])
	}
	if b.InstancesWithChange != 2 { // b1 and b2
		t.Fatalf("instances with change = %d", b.InstancesWithChange)
	}
	if got := b.PctChanges(b.PureCategory[CatUserAction]); got < 66 || got > 67 {
		t.Fatalf("pct changes = %v", got)
	}
	if b.Unclassified != 0 {
		t.Fatalf("unclassified = %d", b.Unclassified)
	}
}
