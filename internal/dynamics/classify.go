package dynamics

import (
	"strings"

	"fpdyn/internal/canvas"
	"fpdyn/internal/diff"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/useragent"
)

// ImageProvider resolves a canvas/GPU image hash to its stored pixels.
// The collection server's content-addressed value store provides this:
// the client sends a hash, the server keeps full content, and the
// offline analysis can pixel-diff (the paper's Figure 8 workflow).
type ImageProvider interface {
	Image(hash string) (*canvas.Image, bool)
}

// MapImages adapts a plain map to ImageProvider.
type MapImages map[string]*canvas.Image

// Image implements ImageProvider.
func (m MapImages) Image(hash string) (*canvas.Image, bool) {
	img, ok := m[hash]
	return img, ok
}

// Classifier assigns causes to dynamics. Images is optional; without
// it, canvas changes default to the emoji subtype (the dominant one —
// 87.6% in the paper).
type Classifier struct {
	Images ImageProvider
}

// Classify determines the causes behind one piece of dynamics,
// following the decision rules of §3.2.2: parse the user agent for
// update semantics, recognize user-action signatures (consistency
// flips, aspect-preserving resolution changes, Flash toggles,
// storage/cookie couplings), and attribute the rest to environment
// updates with font/canvas signature matching.
func (c *Classifier) Classify(d *Dynamics) Classification {
	var cl Classification
	delta := d.Delta
	from, to := d.From.FP, d.To.FP

	browserUpdated, osUpdated := c.classifyUA(d, &cl)

	// Timezone: user movement.
	if delta.Has(fingerprint.FeatTimezone) {
		cl.add(CauseTimezone)
	}

	// Storage and cookie toggles; private browsing signature.
	cookieToggled := delta.Has(fingerprint.FeatCookie)
	lsToggled := delta.Has(fingerprint.FeatLocalStorage)
	if cookieToggled {
		cl.add(CauseCookieToggle)
	}
	if lsToggled {
		switch {
		case cookieToggled:
			// The Chrome single-checkbox coupling (Insight 3 example 1).
			cl.add(CauseLocalStorage)
		case d.From.Cookie != d.To.Cookie:
			// localStorage flipped alongside a fresh cookie: private
			// browsing's signature (storage unavailable, throwaway cookie).
			cl.add(CausePrivate)
		default:
			cl.add(CauseLocalStorage)
		}
	}

	// Screen resolution and pixel ratio.
	resChanged := delta.Has(fingerprint.FeatScreenResolution)
	prChanged := delta.Has(fingerprint.FeatPixelRatio)
	consResFlipped := delta.Has(fingerprint.FeatConsResolution)
	switch {
	case consResFlipped:
		cl.add(CauseFakeRes)
	case resChanged && sameAspect(from.ScreenResolution, to.ScreenResolution):
		cl.add(CauseZoom)
	case resChanged:
		cl.add(CauseMonitor)
	case prChanged:
		cl.add(CauseZoom)
	}

	// Plugins.
	if fd := delta.Field(fingerprint.FeatPlugins); fd != nil {
		if pluginDeltaIsFlash(fd) {
			cl.add(CauseFlash)
		} else if browserUpdated {
			// Updates may drop bundled plugins (Chromium 62→63, Table 3);
			// already attributed to the update.
		} else {
			cl.add(CausePlugin)
		}
	}

	// Language header.
	if delta.Has(fingerprint.FeatLanguage) {
		switch {
		case delta.Has(fingerprint.FeatConsLanguage):
			cl.add(CauseFakeLang)
		case fingerprint.SharesPrimaryLanguage(from.Language, to.Language):
			cl.add(CauseHeaderLang)
		default:
			cl.add(CauseFakeLang)
		}
	}

	// System language list.
	if delta.Has(fingerprint.FeatLanguageList) {
		cl.add(CauseSysLang)
	}

	// Fonts: software signatures always win; unattributed font churn
	// belongs to the browser/OS update when one happened.
	if fd := delta.Field(fingerprint.FeatFontList); fd != nil {
		if cause, ok := fontCause(fd); ok {
			cl.add(cause)
		} else if !browserUpdated && !osUpdated {
			cl.add(CauseFontOther)
		}
	}

	// Canvas.
	if fd := delta.Field(fingerprint.FeatCanvas); fd != nil {
		if !browserUpdated && !osUpdated {
			cl.add(c.canvasCause(fd))
		}
	}

	// Audio.
	if delta.Has(fingerprint.FeatAudio) {
		cl.add(CauseAudio)
	}

	// GPU: renderer/type churn outside an update is a driver change.
	if (delta.Has(fingerprint.FeatGPUType) || delta.Has(fingerprint.FeatGPURenderer) || delta.Has(fingerprint.FeatGPUImage)) &&
		!browserUpdated && !osUpdated {
		cl.add(CauseGPURender)
	}

	if delta.Has(fingerprint.FeatColorDepth) {
		cl.add(CauseColorDepth)
	}

	return cl
}

// classifyUA handles the user-agent delta: browser updates, OS updates,
// and the two inconsistency actions (desktop-site requests, faked
// agent strings). Returns whether a browser/OS update was detected.
func (c *Classifier) classifyUA(d *Dynamics, cl *Classification) (browserUpdated, osUpdated bool) {
	if !d.Delta.Has(fingerprint.FeatUserAgent) {
		// The browser consistency flag can flip even when the presented
		// UA string happens to match (rare); treat as fake agent.
		if d.Delta.Has(fingerprint.FeatConsBrowser) {
			cl.add(CauseFakeAgent)
		}
		return false, false
	}
	fromUA, errFrom := useragent.CachedParse(d.From.FP.UserAgent)
	toUA, errTo := useragent.CachedParse(d.To.FP.UserAgent)
	if errFrom != nil || errTo != nil {
		cl.add(CauseFakeAgent)
		return false, false
	}

	sameFamily := fromUA.Browser == toUA.Browser
	sameOS := fromUA.OS == toUA.OS

	if sameFamily && sameOS {
		if toUA.OSVersion.Compare(fromUA.OSVersion) > 0 {
			cl.add(CauseOSUpdate)
			osUpdated = true
		}
		if toUA.BrowserVersion.Compare(fromUA.BrowserVersion) > 0 {
			// Mobile Safari ships with iOS: its version bump *is* the OS
			// update, which the paper counts under OS updates only (the
			// reason browser+OS composites are rare in Table 2).
			if !(osUpdated && toUA.Browser == useragent.MobileSafari) {
				cl.add(CauseBrowserUpdate)
				browserUpdated = true
			}
		}
		if !browserUpdated && !osUpdated {
			// Same identity, no forward version movement: downgrade or
			// tampering — the paper observed no genuine OS downgrades.
			cl.add(CauseFakeAgent)
		}
		return browserUpdated, osUpdated
	}

	// Family or platform changed: a desktop request keeps the engine
	// version while swapping the platform; anything else is a faked
	// agent string. Consistency flags corroborate.
	if useragent.IsDesktopRequestPair(fromUA, toUA) || d.Delta.Has(fingerprint.FeatConsOS) {
		cl.add(CauseDesktopSite)
	} else {
		cl.add(CauseFakeAgent)
	}
	return false, false
}

// pluginDeltaIsFlash reports whether the plugin change is exactly a
// Flash toggle.
func pluginDeltaIsFlash(fd *diff.FieldDelta) bool {
	only := func(set []string) bool {
		return len(set) == 1 && set[0] == "Shockwave Flash"
	}
	if len(fd.Added) == 1 && len(fd.Deleted) == 0 {
		return only(fd.Added)
	}
	if len(fd.Deleted) == 1 && len(fd.Added) == 0 {
		return only(fd.Deleted)
	}
	return false
}

// sameAspect reports whether two WxH strings have the same aspect ratio
// within 1.5% (zoom preserves the ratio up to rounding).
func sameAspect(a, b string) bool {
	w1, h1, ok1 := parseRes(a)
	w2, h2, ok2 := parseRes(b)
	if !ok1 || !ok2 || h1 == 0 || h2 == 0 {
		return false
	}
	r1 := float64(w1) / float64(h1)
	r2 := float64(w2) / float64(h2)
	d := r1 - r2
	if d < 0 {
		d = -d
	}
	return d/r1 < 0.015
}

func parseRes(s string) (w, h int, ok bool) {
	i := strings.IndexByte(s, 'x')
	if i <= 0 || i == len(s)-1 {
		return 0, 0, false
	}
	w, okW := atoi(s[:i])
	h, okH := atoi(s[i+1:])
	return w, h, okW && okH
}

func atoi(s string) (int, bool) {
	n := 0
	if s == "" {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// fontCause matches a font delta against the known software signatures
// of Insight 1.2 / Appendix A.
func fontCause(fd *diff.FieldDelta) (Cause, bool) {
	overlap := func(sig []string) int {
		set := make(map[string]bool, len(sig))
		for _, f := range sig {
			set[f] = true
		}
		n := 0
		for _, f := range fd.Added {
			if set[f] {
				n++
			}
		}
		return n
	}
	switch {
	case len(fd.Added) == 1 && fd.Added[0] == fontdb.MTExtra:
		return CauseFontOffice, true
	case overlap(fontdb.OfficeDetect) >= len(fontdb.OfficeDetect)/2:
		return CauseFontOffice, true
	case overlap(fontdb.Adobe) >= len(fontdb.Adobe)/2:
		return CauseFontAdobe, true
	case overlap(fontdb.LibreOffice) >= len(fontdb.LibreOffice)/2:
		return CauseFontLibre, true
	case overlap(fontdb.WPS) >= len(fontdb.WPS)/2:
		return CauseFontWPS, true
	}
	return "", false
}

// canvasCause decides the canvas subtype. With stored images it pixel
// diffs (the Figure 8 workflow); without, it defaults to the dominant
// emoji subtype.
func (c *Classifier) canvasCause(fd *diff.FieldDelta) Cause {
	if c.Images != nil {
		a, okA := c.Images.Image(fd.OldHash)
		b, okB := c.Images.Image(fd.NewHash)
		if okA && okB {
			pd := canvas.Diff(a, b)
			if pd.EmojiOnly() {
				return CauseCanvasEmoji
			}
			if pd.TextChanged > 0 && pd.EmojiChanged == 0 {
				return CauseCanvasText
			}
			if pd.EmojiChanged >= pd.TextChanged {
				return CauseCanvasEmoji
			}
			return CauseCanvasText
		}
	}
	return CauseCanvasEmoji
}
