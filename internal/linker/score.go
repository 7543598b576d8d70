package linker

import (
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
	"fpdyn/internal/useragent"
)

// score decides whether candidate e can be the same instance as the
// query and how strongly. It is a lean, allocation-light reimplementation
// of the dynamics classifier's reasoning (Advice 5), specialized for
// linking: every comparison works on direct fields and the pre-parsed
// user agents, so a non-matching candidate costs well under a
// microsecond — which is what makes the bucketed scan fast enough for
// the paper's 100ms real-time budget.
func (h *Hybrid) score(rec *fingerprint.Record, qUA useragent.UA, qOK bool, e *entry) (float64, bool) {
	a, b := e.rec.FP, rec.FP

	// Hard identity constraints: hardware counts and device models
	// never change within an instance. This is what fixes FP-Stalker's
	// Figure 11(c)/(d) false positives.
	if a.CPUCores != b.CPUCores || a.CPUClass != b.CPUClass {
		return 0, false
	}
	if a.GPUVendor != b.GPUVendor || a.GPURenderer != b.GPURenderer {
		return 0, false
	}
	if qOK && e.uaOK && qUA.Device != "" && e.ua.Device != "" && qUA.Device != e.ua.Device {
		return 0, false
	}

	changed := 0
	penalty := 0.0
	unexplained := 0

	// --- user agent semantics -----------------------------------------
	var update, swap bool
	if a.UserAgent != b.UserAgent {
		changed++
		switch {
		case qOK && e.uaOK && qUA.Browser == e.ua.Browser && qUA.OS == e.ua.OS:
			// Same identity: only forward version movement is credible.
			bv := qUA.BrowserVersion.Compare(e.ua.BrowserVersion)
			ov := qUA.OSVersion.Compare(e.ua.OSVersion)
			if bv < 0 || ov < 0 {
				return 0, false
			}
			update = true
			penalty += 0.1
		case qOK && e.uaOK && useragent.IsDesktopRequestPair(e.ua, qUA):
			// A desktop-site request: predictable identity swap
			// (fixes the Figure 11(a) false negative), credible when the
			// consistency features corroborate.
			if a.ConsOS && b.ConsOS {
				return 0, false
			}
			swap = true
			penalty += 0.5
		case !a.ConsBrowser || !b.ConsBrowser:
			// Spoofed agent string, flagged by the consistency check.
			swap = true
			penalty += 1.0
		default:
			return 0, false
		}
	}

	// --- trivially explained user actions ------------------------------
	if a.TimezoneOffset != b.TimezoneOffset {
		changed++
		penalty += 0.25 // travel
	}
	ckChanged := a.CookieEnabled != b.CookieEnabled
	lsChanged := a.LocalStorage != b.LocalStorage
	if ckChanged {
		changed++
		penalty += 0.25
	}
	if lsChanged {
		changed++
		penalty += 0.25
	}
	// Advice 7: Chrome couples the two toggles behind one checkbox; a
	// lone flip without a private-browsing signature is suspicious.
	if qOK && normalizedFamily(qUA) == "chrome-class" && ckChanged != lsChanged {
		if !(lsChanged && e.rec.Cookie != rec.Cookie) { // private browsing
			penalty += 1.5
		}
	}

	if a.ScreenResolution != b.ScreenResolution || a.PixelRatio != b.PixelRatio {
		changed++
		switch {
		case swap: // form-factor swap rewrites the whole display block
			penalty += 0.1
		case !a.ConsResolution || !b.ConsResolution: // spoofed
			penalty += 0.5
		default: // zoom or monitor switch
			penalty += 0.4
		}
	}

	// --- environment-flavoured features ---------------------------------
	if a.CanvasHash != b.CanvasHash {
		changed++
		if update || swap {
			penalty += 0.1 // updates repaint canvases
		} else {
			penalty += 0.5 // environment (emoji/font) update
		}
	}
	gpuTypeChanged := a.GPUType != b.GPUType
	audioChanged := a.AudioInfo != b.AudioInfo
	if a.GPUImageHash != b.GPUImageHash {
		changed++
		if update || swap || gpuTypeChanged {
			penalty += 0.2
		} else {
			unexplained++
		}
	}
	if gpuTypeChanged {
		changed++
		penalty += 0.3 // driver / API-level change
		// Advice 7: a DirectX move usually drags the audio rate along.
		if !audioChanged {
			penalty += 0.5
		}
	}
	if audioChanged {
		changed++
		penalty += 0.4
	}
	if a.ColorDepth != b.ColorDepth {
		changed++
		penalty += 0.5
	}

	// --- lists ----------------------------------------------------------
	if !sameStringSetQuick(a.Plugins, b.Plugins) {
		changed++
		switch {
		case update || swap:
			penalty += 0.2
		case pluginsFlashOnly(a.Plugins, b.Plugins):
			penalty += 0.25
		case len(b.Plugins) >= len(a.Plugins):
			penalty += 0.4 // install
		default:
			unexplained++
		}
	}
	if !sameStringSetQuick(a.Fonts, b.Fonts) {
		changed++
		if update || swap || len(b.Fonts) >= len(a.Fonts) {
			penalty += 0.3 // update-visible fonts or a software install
		} else {
			penalty += 0.8 // removals are rarer but happen (uninstalls)
		}
	}
	if !sameStringSetQuick(a.Languages, b.Languages) {
		changed++
		penalty += 0.4 // system language update
	}
	if a.Language != b.Language {
		changed++
		if !a.ConsLanguage || !b.ConsLanguage || fingerprint.SharesPrimaryLanguage(a.Language, b.Language) {
			penalty += 0.3
		} else {
			unexplained++
		}
	}
	if !sameStringSetQuick(a.HeaderList, b.HeaderList) || a.Accept != b.Accept || a.Encoding != b.Encoding {
		changed++
		if update || swap {
			penalty += 0.2
		} else {
			unexplained++
		}
	}
	// Consistency flips themselves.
	for _, flip := range []bool{
		a.ConsLanguage != b.ConsLanguage, a.ConsResolution != b.ConsResolution,
		a.ConsOS != b.ConsOS, a.ConsBrowser != b.ConsBrowser,
	} {
		if flip {
			changed++
			penalty += 0.1
		}
	}
	if a.WebGL != b.WebGL || a.AddBehavior != b.AddBehavior || a.OpenDatabase != b.OpenDatabase {
		changed++
		unexplained++
	}

	if unexplained > 1 || changed > maxDiffs+4 {
		return 0, false
	}

	score := float64(fingerprint.NumNonIP) - float64(changed) - penalty - 2*float64(unexplained)

	// Advice 8: release-calendar timing — an update toward a version
	// released shortly before the query time is expected.
	if update && qOK && h.releaseSupported(qUA, rec.Time) {
		score += 2.0
	}
	// Recency nudge for tie-breaking.
	if !e.rec.Time.IsZero() && rec.Time.After(e.rec.Time) {
		age := rec.Time.Sub(e.rec.Time).Hours()
		score += 1.0 / (1.0 + age/24.0)
	}
	return score, true
}

// pluginsFlashOnly reports whether the plugin lists differ exactly by
// Shockwave Flash.
func pluginsFlashOnly(a, b []string) bool {
	longer, shorter := a, b
	if len(b) > len(a) {
		longer, shorter = b, a
	}
	if len(longer) != len(shorter)+1 {
		return false
	}
	j := 0
	extra := ""
	for _, s := range longer {
		if j < len(shorter) && shorter[j] == s {
			j++
			continue
		}
		if extra != "" {
			return false
		}
		extra = s
	}
	return extra == "Shockwave Flash" && j == len(shorter)
}

// releaseSupported reports whether the query's browser version matches
// a calendar release that was out (and still in its adoption window)
// at the query time.
func (h *Hybrid) releaseSupported(ua useragent.UA, at time.Time) bool {
	for _, rel := range population.BrowserReleases {
		if rel.Family != ua.Browser {
			continue
		}
		if rel.V.Major != ua.BrowserVersion.Major {
			continue
		}
		if at.Before(rel.Date) {
			continue
		}
		if at.Sub(rel.Date) < 150*24*time.Hour {
			return true
		}
	}
	return false
}

// sameStringSetQuick approximates set equality for the sorted slices
// the pipeline produces: length plus three probe positions. Exact for
// sorted inputs in practice; a rare false negative only costs one
// penalty point.
func sameStringSetQuick(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	return a[0] == b[0] && a[len(a)-1] == b[len(b)-1] && a[len(a)/2] == b[len(b)/2]
}
