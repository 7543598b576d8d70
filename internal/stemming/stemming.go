// Package stemming implements the feature-stemming baseline of
// Pugliese et al. (PETS 2020), which the paper's related-work section
// critiques: stem volatile substrings out of features (version numbers
// in the user agent, the subversion tail of the OS, zoom-scaled
// display values) so that fingerprints stay stable across updates.
//
// The paper makes two quantitative claims about this approach:
//
//  1. stemming increases stability, but cannot capture identity swaps
//     like a desktop-site request — those still need dynamics-aware
//     linking; and
//  2. stemming grows the anonymous set of each fingerprint, reducing
//     fingerprintability in general.
//
// This package exists to verify both claims against the same synthetic
// worlds the rest of the reproduction uses (see the tests and
// cmd/fpreport -what stemming).
package stemming

import (
	"regexp"
	"strings"

	"fpdyn/internal/fingerprint"
)

var (
	// reVersionToken matches dotted version numbers inside strings.
	reVersionToken = regexp.MustCompile(`\d+(\.\d+)+`)
	// reLoneNumber matches standalone integers (build ids, rv: tokens).
	reLoneNumber = regexp.MustCompile(`\d+`)
)

// StemString removes version-like substrings from a string feature,
// replacing them with a placeholder so that "Chrome/63.0.3239.132" and
// "Chrome/64.0.3282.140" stem to the same value.
func StemString(s string) string {
	s = reVersionToken.ReplaceAllString(s, "#")
	s = reLoneNumber.ReplaceAllString(s, "#")
	return s
}

// Stem produces the stemmed view of a fingerprint: a copy whose
// volatile components are normalized. The original is not modified.
func Stem(fp *fingerprint.Fingerprint) *fingerprint.Fingerprint {
	st := fp.Clone()
	st.UserAgent = StemString(fp.UserAgent)
	// Header details: encodings/accept rarely carry versions but may
	// carry q-values; strip those too.
	st.Accept = StemString(fp.Accept)
	st.Language = stripQValues(fp.Language)
	// Zoom-scaled display values: keep only the aspect ratio class and
	// drop the pixel ratio (both move under zoom).
	st.ScreenResolution = aspectClass(fp.ScreenResolution)
	st.PixelRatio = ""
	// Timezone moves with travel; stem it out entirely.
	st.TimezoneOffset = 0
	// IP features are inherently volatile.
	st.IPAddr, st.IPCity, st.IPRegion, st.IPCountry = "", "", "", ""
	return st
}

// stripQValues removes ";q=..." weights from an Accept-Language value.
func stripQValues(s string) string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if i := strings.IndexByte(p, ';'); i >= 0 {
			p = p[:i]
		}
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}

// aspectClass maps a WxH resolution to a coarse aspect-ratio class
// ("16:9", "16:10", "4:3", "mobile-tall", or "other").
func aspectClass(res string) string {
	w, h, ok := fingerprint.ParseResolution(res)
	if !ok || h == 0 || w == 0 {
		return "other"
	}
	r := float64(w) / float64(h)
	switch {
	case approx(r, 16.0/9.0):
		return "16:9"
	case approx(r, 16.0/10.0):
		return "16:10"
	case approx(r, 4.0/3.0):
		return "4:3"
	case r < 1:
		return "mobile-tall"
	}
	return "other"
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 0.03
}

// GainAccumulator compares raw and stemmed dynamics one
// consecutive-visit pair at a time: the pairs whose raw fingerprint
// changed, and of those the ones whose stemmed fingerprint changed too.
// The difference is the stability feature stemming buys.
type GainAccumulator struct {
	RawChanged, StemChanged, Pairs int
}

// Add feeds one consecutive-visit pair.
func (g *GainAccumulator) Add(a, b *fingerprint.Fingerprint) {
	g.Pairs++
	if a.Hash(false) != b.Hash(false) {
		g.RawChanged++
		if Stem(a).Hash(false) != Stem(b).Hash(false) {
			g.StemChanged++
		}
	}
}
