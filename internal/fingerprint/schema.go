package fingerprint

import (
	"fmt"
	"strconv"

	"fpdyn/internal/hashutil"
)

// Kind is the diff semantics of a feature, following §2.3.2 of the
// paper: string features diff by ordered subfields, set features by set
// subtraction, and complex features (canvas, GPU images) by hash pair.
type Kind int

const (
	// KindString features diff as ordered subfields.
	KindString Kind = iota
	// KindSet features diff as added/deleted element sets.
	KindSet
	// KindHash features diff as an (old hash, new hash) pair.
	KindHash
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindSet:
		return "set"
	case KindHash:
		return "hash"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ID identifies a feature in the schema. The enumeration order matches
// Table 1's row order so reports print in the paper's layout.
type ID int

// Feature identifiers, one per Table 1 row (leaf features only; the
// group rows of the table are aggregations the stats package computes).
const (
	FeatUserAgent ID = iota
	FeatAccept
	FeatEncoding
	FeatLanguage
	FeatTimezone
	FeatHeaderList
	FeatPlugins
	FeatCookie
	FeatWebGL
	FeatLocalStorage
	FeatAddBehavior
	FeatOpenDatabase
	FeatLanguageList
	FeatFontList
	FeatCanvas
	FeatGPUVendor
	FeatGPURenderer
	FeatGPUType
	FeatCPUCores
	FeatAudio
	FeatScreenResolution
	FeatColorDepth
	FeatCPUClass
	FeatPixelRatio
	FeatIPCity
	FeatIPRegion
	FeatIPCountry
	FeatConsLanguage
	FeatConsResolution
	FeatConsOS
	FeatConsBrowser
	FeatGPUImage

	// NumFeatures is the count of schema features; keep it last.
	NumFeatures
)

// Groups, matching Table 1's top-level rows.
const (
	GroupHTTP        = "HTTP Headers"
	GroupBrowser     = "Browser Features"
	GroupOS          = "OS Features"
	GroupHardware    = "Hardware Features"
	GroupIP          = "IP Features"
	GroupConsistency = "Consistency Features"
	GroupGPUImage    = "GPU Images"
)

// Desc describes one schema feature.
type Desc struct {
	ID    ID
	Name  string // display name, as printed in Table 1
	Group string
	Kind  Kind
	IsIP  bool // true for IP-derived features (excluded from core hash)
}

// Schema lists every feature in Table 1 order.
var Schema = []Desc{
	{FeatUserAgent, "User-agent", GroupHTTP, KindString, false},
	{FeatAccept, "Accept", GroupHTTP, KindString, false},
	{FeatEncoding, "Encoding", GroupHTTP, KindString, false},
	{FeatLanguage, "Language", GroupHTTP, KindString, false},
	{FeatTimezone, "Timezone", GroupHTTP, KindString, false},
	{FeatHeaderList, "HTTP Header List", GroupHTTP, KindSet, false},
	{FeatPlugins, "Plugins", GroupBrowser, KindSet, false},
	{FeatCookie, "Cookie Support", GroupBrowser, KindString, false},
	{FeatWebGL, "WebGL Support", GroupBrowser, KindString, false},
	{FeatLocalStorage, "localStorage Support", GroupBrowser, KindString, false},
	{FeatAddBehavior, "addBehavior Support", GroupBrowser, KindString, false},
	{FeatOpenDatabase, "openDatabase Support", GroupBrowser, KindString, false},
	{FeatLanguageList, "Language List", GroupOS, KindSet, false},
	{FeatFontList, "Font List", GroupOS, KindSet, false},
	{FeatCanvas, "Canvas Images", GroupOS, KindHash, false},
	{FeatGPUVendor, "GPU Vendor", GroupHardware, KindString, false},
	{FeatGPURenderer, "GPU Renderer", GroupHardware, KindString, false},
	{FeatGPUType, "GPU type", GroupHardware, KindString, false},
	{FeatCPUCores, "CPU Cores", GroupHardware, KindString, false},
	{FeatAudio, "Audio Card Info", GroupHardware, KindString, false},
	{FeatScreenResolution, "Screen Resolution", GroupHardware, KindString, false},
	{FeatColorDepth, "Color Depth", GroupHardware, KindString, false},
	{FeatCPUClass, "CPU Class", GroupHardware, KindString, false},
	{FeatPixelRatio, "Pixel Ratio", GroupHardware, KindString, false},
	{FeatIPCity, "IP City", GroupIP, KindString, true},
	{FeatIPRegion, "IP Region", GroupIP, KindString, true},
	{FeatIPCountry, "IP Country", GroupIP, KindString, true},
	{FeatConsLanguage, "Language", GroupConsistency, KindString, false},
	{FeatConsResolution, "Resolution", GroupConsistency, KindString, false},
	{FeatConsOS, "OS", GroupConsistency, KindString, false},
	{FeatConsBrowser, "Browser", GroupConsistency, KindString, false},
	{FeatGPUImage, "GPU Images", GroupGPUImage, KindHash, false},
}

// Describe returns the schema entry for id.
func Describe(id ID) Desc { return Schema[int(id)] }

// Value is a feature value in generic form: Str for string and hash
// kinds, Set for set kinds.
type Value struct {
	Kind Kind
	Str  string
	Set  []string
}

// Value extracts feature id from the fingerprint in generic form.
func (fp *Fingerprint) Value(id ID) Value {
	switch id {
	case FeatUserAgent:
		return Value{KindString, fp.UserAgent, nil}
	case FeatAccept:
		return Value{KindString, fp.Accept, nil}
	case FeatEncoding:
		return Value{KindString, fp.Encoding, nil}
	case FeatLanguage:
		return Value{KindString, fp.Language, nil}
	case FeatTimezone:
		return Value{KindString, strconv.Itoa(fp.TimezoneOffset), nil}
	case FeatHeaderList:
		return Value{KindSet, "", fp.HeaderList}
	case FeatPlugins:
		return Value{KindSet, "", fp.Plugins}
	case FeatCookie:
		return Value{KindString, boolStr(fp.CookieEnabled), nil}
	case FeatWebGL:
		return Value{KindString, boolStr(fp.WebGL), nil}
	case FeatLocalStorage:
		return Value{KindString, boolStr(fp.LocalStorage), nil}
	case FeatAddBehavior:
		return Value{KindString, boolStr(fp.AddBehavior), nil}
	case FeatOpenDatabase:
		return Value{KindString, boolStr(fp.OpenDatabase), nil}
	case FeatLanguageList:
		return Value{KindSet, "", fp.Languages}
	case FeatFontList:
		return Value{KindSet, "", fp.Fonts}
	case FeatCanvas:
		return Value{KindHash, fp.CanvasHash, nil}
	case FeatGPUVendor:
		return Value{KindString, fp.GPUVendor, nil}
	case FeatGPURenderer:
		return Value{KindString, fp.GPURenderer, nil}
	case FeatGPUType:
		return Value{KindString, fp.GPUType, nil}
	case FeatCPUCores:
		return Value{KindString, strconv.Itoa(fp.CPUCores), nil}
	case FeatAudio:
		return Value{KindString, fp.AudioInfo, nil}
	case FeatScreenResolution:
		return Value{KindString, fp.ScreenResolution, nil}
	case FeatColorDepth:
		return Value{KindString, strconv.Itoa(fp.ColorDepth), nil}
	case FeatCPUClass:
		return Value{KindString, fp.CPUClass, nil}
	case FeatPixelRatio:
		return Value{KindString, fp.PixelRatio, nil}
	case FeatIPCity:
		return Value{KindString, fp.IPCity, nil}
	case FeatIPRegion:
		return Value{KindString, fp.IPRegion, nil}
	case FeatIPCountry:
		return Value{KindString, fp.IPCountry, nil}
	case FeatConsLanguage:
		return Value{KindString, boolStr(fp.ConsLanguage), nil}
	case FeatConsResolution:
		return Value{KindString, boolStr(fp.ConsResolution), nil}
	case FeatConsOS:
		return Value{KindString, boolStr(fp.ConsOS), nil}
	case FeatConsBrowser:
		return Value{KindString, boolStr(fp.ConsBrowser), nil}
	case FeatGPUImage:
		return Value{KindHash, fp.GPUImageHash, nil}
	}
	panic(fmt.Sprintf("fingerprint: unknown feature id %d", id))
}

// Key returns a canonical string key for the feature value, suitable for
// counting distinct values (Table 1's "Distinct #" and "Unique #"
// columns). Set features are hashed order-independently.
func (v Value) Key() string {
	if v.Kind == KindSet {
		return fmt.Sprintf("set:%016x", hashutil.HashSet(v.Set))
	}
	return v.Str
}
