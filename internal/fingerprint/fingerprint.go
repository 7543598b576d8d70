// Package fingerprint defines the browser-fingerprint feature model of
// the study: every feature of the paper's Table 1, a schema for generic
// feature iteration (the diff engine, the statistics pipeline and the
// FP-Stalker linker all walk features generically), stable hashing for
// anonymous-set grouping, JSON serialization for the collection
// protocol, and a binary record codec for the streamed pipeline's
// spill runs.
package fingerprint

import (
	"sort"
	"strconv"
	"strings"

	"fpdyn/internal/hashutil"
)

// Fingerprint is one collected browser fingerprint: the full set of
// features our collection tool extracts during a visit. Field groups
// mirror Table 1 of the paper.
type Fingerprint struct {
	// HTTP header features.
	UserAgent  string   `json:"ua"`
	Accept     string   `json:"accept"`
	Encoding   string   `json:"enc"`
	Language   string   `json:"lang"`
	HeaderList []string `json:"hdrs"` // ordered list of header names sent

	// Browser features.
	Plugins        []string `json:"plugins"`
	CookieEnabled  bool     `json:"cookie"`
	WebGL          bool     `json:"webgl"`
	LocalStorage   bool     `json:"ls"`
	AddBehavior    bool     `json:"addbehavior"` // IE-only feature
	OpenDatabase   bool     `json:"opendb"`
	TimezoneOffset int      `json:"tz"` // minutes east of UTC

	// OS features.
	Languages  []string `json:"langs"` // installed system languages
	Fonts      []string `json:"fonts"` // fonts detected via side channel
	CanvasHash string   `json:"canvas"`

	// Hardware features.
	GPUVendor        string `json:"gpuVendor"`
	GPURenderer      string `json:"gpuRenderer"`
	GPUType          string `json:"gpuType"` // renderer class incl. API level, e.g. "Direct3D11"
	CPUCores         int    `json:"cores"`
	CPUClass         string `json:"cpuClass"`
	AudioInfo        string `json:"audio"` // e.g. "channels:2;rate:44100"
	ScreenResolution string `json:"screen"`
	ColorDepth       int    `json:"depth"`
	PixelRatio       string `json:"dpr"`

	// IP-derived features (not part of the core fingerprint for
	// identification — §3.1 — but collected for completeness).
	IPAddr    string `json:"ip"`
	IPCity    string `json:"ipCity"`
	IPRegion  string `json:"ipRegion"`
	IPCountry string `json:"ipCountry"`

	// Consistency features: whether two collection methods agreed.
	ConsLanguage   bool `json:"consLang"`
	ConsResolution bool `json:"consRes"`
	ConsOS         bool `json:"consOS"`
	ConsBrowser    bool `json:"consBrowser"`

	// WebGL-rendered GPU image hash.
	GPUImageHash string `json:"gpuImage"`
}

// Clone returns a deep copy; slice fields are duplicated so mutating the
// copy never aliases the original (the simulator evolves fingerprints in
// place between visits).
func (fp *Fingerprint) Clone() *Fingerprint {
	c := *fp
	c.HeaderList = append([]string(nil), fp.HeaderList...)
	c.Plugins = append([]string(nil), fp.Plugins...)
	c.Languages = append([]string(nil), fp.Languages...)
	c.Fonts = append([]string(nil), fp.Fonts...)
	return &c
}

// SharesPrimaryLanguage reports whether two Accept-Language values
// start with the same primary tag — a locale preference tweak rather
// than wholesale spoofing.
func SharesPrimaryLanguage(a, b string) bool {
	return primaryLang(a) == primaryLang(b) && primaryLang(a) != ""
}

func primaryLang(s string) string {
	if i := strings.IndexAny(s, ",;"); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, '-'); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// ParseResolution parses a WxH screen resolution such as "1920x1080"
// into its width and height. ok is false unless both sides are
// non-empty runs of ASCII digits around the first 'x'.
func ParseResolution(s string) (w, h int, ok bool) {
	i := strings.IndexByte(s, 'x')
	if i < 0 {
		return 0, 0, false
	}
	w, okW := atoi(s[:i])
	h, okH := atoi(s[i+1:])
	return w, h, okW && okH
}

func atoi(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// boolStr renders a boolean feature the way the collection script
// reports it.
func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Hash returns the stable fingerprint hash used for anonymous-set
// grouping. IP features are excluded by default, matching the paper's
// "Overall (excluding IP)" row; pass includeIP to reproduce the full
// "Overall" row.
func (fp *Fingerprint) Hash(includeIP bool) uint64 {
	h := hashutil.HashStrings(
		fp.UserAgent, fp.Accept, fp.Encoding, fp.Language,
		strings.Join(fp.HeaderList, "\x00"),
		boolStr(fp.CookieEnabled), boolStr(fp.WebGL), boolStr(fp.LocalStorage),
		boolStr(fp.AddBehavior), boolStr(fp.OpenDatabase),
		strconv.Itoa(fp.TimezoneOffset),
		fp.CanvasHash,
		fp.GPUVendor, fp.GPURenderer, fp.GPUType,
		strconv.Itoa(fp.CPUCores), fp.CPUClass, fp.AudioInfo,
		fp.ScreenResolution, strconv.Itoa(fp.ColorDepth), fp.PixelRatio,
		boolStr(fp.ConsLanguage), boolStr(fp.ConsResolution),
		boolStr(fp.ConsOS), boolStr(fp.ConsBrowser),
		fp.GPUImageHash,
	)
	h = hashutil.Combine(h, hashutil.HashSet(fp.Plugins))
	h = hashutil.Combine(h, hashutil.HashSet(fp.Languages))
	h = hashutil.Combine(h, hashutil.HashSet(fp.Fonts))
	if includeIP {
		h = hashutil.Combine(h, hashutil.HashStrings(fp.IPCity, fp.IPRegion, fp.IPCountry))
	}
	return h
}

// Equal reports whether two fingerprints have identical feature values
// (ignoring the raw IP address but including IP city/region/country,
// i.e. the feature set of Table 1).
func (fp *Fingerprint) Equal(o *Fingerprint) bool {
	return fp.Hash(true) == o.Hash(true) &&
		fp.UserAgent == o.UserAgent && // hash collision guard on the top feature
		equalSlices(fp.Fonts, o.Fonts)
}

func equalSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// HasFont reports whether the fingerprint's font list contains name.
func (fp *Fingerprint) HasFont(name string) bool {
	for _, f := range fp.Fonts {
		if f == name {
			return true
		}
	}
	return false
}

// AddFonts returns fp's font list with the given fonts added (absent
// ones only), sorted. It does not mutate fp. When both lists are
// already sorted it merges them; otherwise it deduplicates through a
// set and sorts.
func AddFonts(fonts []string, add []string) []string {
	if !sort.StringsAreSorted(fonts) || !sort.StringsAreSorted(add) {
		return addFontsUnsorted(fonts, add)
	}
	out := make([]string, 0, len(fonts)+len(add))
	for i, j := 0, 0; i < len(fonts) || j < len(add); {
		var f string
		if j == len(add) || (i < len(fonts) && fonts[i] <= add[j]) {
			f, i = fonts[i], i+1
		} else {
			f, j = add[j], j+1
		}
		if len(out) == 0 || out[len(out)-1] != f {
			out = append(out, f)
		}
	}
	return out
}

func addFontsUnsorted(fonts []string, add []string) []string {
	set := make(map[string]bool, len(fonts)+len(add))
	for _, f := range fonts {
		set[f] = true
	}
	for _, f := range add {
		set[f] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// RemoveFonts returns fonts minus remove, sorted.
func RemoveFonts(fonts []string, remove []string) []string {
	rm := make(map[string]bool, len(remove))
	for _, f := range remove {
		rm[f] = true
	}
	out := make([]string, 0, len(fonts))
	for _, f := range fonts {
		if !rm[f] {
			out = append(out, f)
		}
	}
	if !sort.StringsAreSorted(out) {
		sort.Strings(out)
	}
	return out
}
