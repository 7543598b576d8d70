package population

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/geoip"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// devChange is one scheduled device-level state change: OS updates,
// software installs/updates, driver changes — everything that affects
// every browser instance on the device at a fixed wall-clock time.
type devChange struct {
	at    time.Time
	kind  EventType
	apply func(*device)
	// except is the serial of the instance that itself triggered this
	// change (e.g. the Samsung instance whose browser update shipped the
	// new device emoji); that instance reports the moment as a browser
	// update, not an environment update. -1 when not applicable.
	except int
}

// device is one physical machine. Instances on the same device share
// OS version, fonts, emoji pack, audio and GPU driver state — the
// sharing is what produces the paper's cross-browser leaks (a Samsung
// Browser update visible in Chrome's canvas, Insight 1.1).
type device struct {
	platform platformChoice
	osVer    useragent.Version
	model    string // mobile device model; "" on desktop

	gpu        canvas.GPUInfo
	driverGen  int // GPU driver generation (bumps change GPU images)
	directX    int // 9 or 11 on Windows; 0 elsewhere
	cores      int
	cpuClass   string
	screen     string
	colorDepth int
	basePR     float64 // device pixel ratio
	audioRate  int
	audioChans int

	baseFonts []string // OS base + per-device optional subset; fixed at creation
	office    bool     // Microsoft Office installed (full font set)
	officeUpd bool     // the Jan-2018 Office update applied (adds MT Extra)
	adobe     bool
	libre     bool
	wps       bool
	// fontList caches the font list for the flags in fontKey.
	fontKey  fontFlags
	fontList []string

	emojiMajor int // device emoji pack design generation
	emojiMinor int // device emoji rendering generation
	textEngine int // OS text rasterizer generation
	textWidth  int // OS font metrics generation

	homeCity        int
	curCity         int // physical location (travel moves it)
	langIdx         int
	headerLangExtra string // appended to the Accept-Language value by locale tweaks
	extraLangs      []string

	win7Old     bool        // Windows 7 without the 2014 emoji update
	isClone     bool        // identical twin of another device (lab scenario)
	schedule    []devChange // future changes, time-ordered
	applied     []devChange // past changes, time-ordered
	scheduleIdx int
}

// cloneDevice returns an exact hardware/environment twin of src with
// an empty change schedule — the §2.3.3 computer-lab scenario where
// identical machines collapse into one browser ID.
func cloneDevice(src *device) *device {
	dv := *src
	dv.isClone = true
	dv.baseFonts = append([]string(nil), src.baseFonts...)
	dv.extraLangs = append([]string(nil), src.extraLangs...)
	dv.schedule = nil
	dv.applied = nil
	dv.scheduleIdx = 0
	return &dv
}

// applyUntil applies every scheduled change at or before t. The global
// simulation loop processes visits in time order, so calls are
// monotonic per device.
func (dv *device) applyUntil(t time.Time) {
	for dv.scheduleIdx < len(dv.schedule) {
		ch := dv.schedule[dv.scheduleIdx]
		if ch.at.After(t) {
			return
		}
		ch.apply(dv)
		dv.applied = append(dv.applied, ch)
		dv.scheduleIdx++
	}
}

// changesBetween returns the device-level events applied in (from, to].
func (dv *device) changesBetween(from, to time.Time) []devChange {
	var out []devChange
	for _, ch := range dv.applied {
		if ch.at.After(from) && !ch.at.After(to) {
			out = append(out, ch)
		}
	}
	return out
}

// fontFlags is the font-affecting install state of a device; set
// marks a filled cache entry.
type fontFlags struct {
	set, office, officeUpd, adobe, libre, wps bool
}

// fonts returns the device's current font list as a fresh slice the
// caller may modify. The list is rebuilt only when an install flag
// changed since the last call.
func (dv *device) fonts() []string {
	k := fontFlags{true, dv.office, dv.officeUpd, dv.adobe, dv.libre, dv.wps}
	if dv.fontKey != k {
		dv.fontKey, dv.fontList = k, dv.buildFonts()
	}
	return append([]string(nil), dv.fontList...)
}

// The install font lists in sorted order, so AddFonts merges them into
// a sorted list instead of rebuilding a set. AddFonts' result does not
// depend on the order of the added list.
var (
	officeFonts = sortedFonts(fontdb.OfficeDetect)
	adobeFonts  = sortedFonts(fontdb.Adobe)
	libreFonts  = sortedFonts(fontdb.LibreOffice)
	wpsFonts    = sortedFonts(fontdb.WPS)
)

func sortedFonts(fonts []string) []string {
	out := slices.Clone(fonts)
	slices.Sort(out)
	return out
}

// buildFonts assembles the device's font list from its components.
func (dv *device) buildFonts() []string {
	out := append([]string(nil), dv.baseFonts...)
	if dv.office {
		out = fingerprint.AddFonts(out, officeFonts)
		if !dv.officeUpd {
			out = fingerprint.RemoveFonts(out, []string{fontdb.MTExtra})
		}
	} else if dv.officeUpd {
		// The 2018 Office update on a device whose Office predates our
		// font signature: only MT Extra appears (Insight 1.2 case 1).
		out = fingerprint.AddFonts(out, []string{fontdb.MTExtra})
	}
	if dv.adobe {
		out = fingerprint.AddFonts(out, adobeFonts)
	}
	if dv.libre {
		out = fingerprint.AddFonts(out, libreFonts)
	}
	if dv.wps {
		out = fingerprint.AddFonts(out, wpsFonts)
	}
	return out
}

// instance is one browser instance: a browser installed on a device,
// used by one user. It carries the per-browser state plus the user's
// behavioural propensities.
type instance struct {
	serial int // global true-instance ID (linking ground truth)
	userID string
	// userID2, when set, is a second account that sometimes logs in
	// from this same physical browser (a shared family computer). The
	// shared cookie across two user identities is the §2.3.3
	// false-negative signal: one instance appears as two browser IDs.
	userID2 string
	dev     *device

	family  string
	version useragent.Version

	// Update behaviour.
	neverUpdate bool
	updateLag   time.Duration

	// Behaviour propensities (assigned once; propensity-gated actions
	// recur, which reproduces the paper's observation that the share of
	// action dynamics far exceeds the share of acting instances).
	traveler, privateProne, zoomProne, flashToggler bool
	langFaker, resFaker, desktopRequester, uaFaker  bool
	pluginInstaller, lsToggler, cookieToggler       bool
	vpnUser, itp, manualClearer                     bool

	// Persistent toggle state.
	zoom         float64 // 1.0 = no zoom
	flashOn      bool
	fakeLang     bool
	fakeRes      bool
	fakeUA       bool
	lsOff        bool
	cookieOff    bool
	extraPlugins []string

	// Per-browser canvas generations (browser updates change rendering
	// independently of the device).
	textEngineGen  int
	textWidthGen   int
	emojiRenderGen int

	// Firefox 57–60 DirectX quirk (Insight 3 example 2): 0 = follow the
	// device, 9 = forced fallback.
	dxOverride int
	dxQuirky   bool // device+driver combination exhibiting the quirk

	cookie  string
	cookieN int

	// Previous visit's transient state, so the reversion (leaving
	// private mode, back to the mobile page) is labelled as a user
	// action too — it changes the fingerprint just as much.
	prevPrivate    bool
	prevDesktopReq bool

	visits    []time.Time
	lastVisit time.Time
	visited   int
}

// visitState carries the per-visit transient actions.
type visitState struct {
	private    bool
	desktopReq bool
	vpnCity    int // -1 when inactive
}

// familyIdx gives each browser family a small stable integer for canvas
// parameter mixing.
func familyIdx(family string) int {
	return int(hashutil.Hash64(family) % 17)
}

func osIdx(os string) int {
	return int(hashutil.Hash64(os) % 13)
}

// canvasParams derives the rendering parameters from device + instance
// state. Equal environments produce equal canvases; any generation bump
// anywhere changes the hash.
func (in *instance) canvasParams() canvas.Params {
	dv := in.dev
	return canvas.Params{
		TextEngine: osIdx(dv.platform.os)*10000 + dv.textEngine*100 + in.textEngineGen*7 + familyIdx(in.family),
		TextWidth:  dv.textWidth*100 + in.textWidthGen*5 + familyIdx(in.family),
		EmojiMajor: dv.emojiMajor,
		EmojiMinor: dv.emojiMinor*10 + in.emojiRenderGen,
	}
}

// gpuType renders the GPU API-level feature string.
func (in *instance) gpuType() string {
	dv := in.dev
	if dv.platform.os == useragent.Windows {
		dx := dv.directX
		if in.dxOverride != 0 {
			dx = in.dxOverride
		}
		if dx == 9 {
			return "ANGLE (Direct3D9Ex)"
		}
		return "ANGLE (Direct3D11)"
	}
	if dv.platform.mobile {
		return "OpenGL ES 3.0"
	}
	return "OpenGL 4.1"
}

// tzOffsetFor derives the timezone offset (minutes east of UTC) from a
// city's longitude — the simulator's clock model.
func tzOffsetFor(c geoip.City) int {
	return int(math.Round(c.Lon/15)) * 60
}

// ua returns the structured UA the instance currently presents.
func (in *instance) ua() useragent.UA {
	v := in.version
	if in.family == useragent.MobileSafari {
		// Mobile Safari ships with iOS: its version tracks the OS, which
		// is why the paper counts its updates as OS updates.
		v = useragent.V(in.dev.osVer.Major, 0)
	}
	return useragent.UA{
		Browser:        in.family,
		BrowserVersion: v,
		OS:             in.dev.platform.os,
		OSVersion:      in.dev.osVer,
		Device:         in.dev.model,
		Mobile:         in.dev.platform.mobile,
	}
}

// visibleFonts returns the fonts this browser can detect: the device
// fonts, minus the set Firefox only enumerates from version 57 on.
func (in *instance) visibleFonts() []string {
	fonts := in.dev.fonts()
	if in.family == useragent.Firefox && in.version.Compare(useragent.V(57)) < 0 {
		fonts = fingerprint.RemoveFonts(fonts, fontdb.Firefox57)
	}
	return fonts
}

// plugins returns the current plugin list.
func (in *instance) plugins() []string {
	out := append([]string(nil), pluginsFor(in.family, in.dev.platform.mobile)...)
	if in.flashOn && !in.dev.platform.mobile {
		out = append(out, "Shockwave Flash")
	}
	out = append(out, in.extraPlugins...)
	sort.Strings(out)
	return out
}

// scaledScreen applies the zoom factor to the base resolution,
// preserving the aspect ratio (the paper: zoom changes the reported
// resolution but not the ratio).
func scaledScreen(base string, zoom float64) string {
	if zoom == 1.0 {
		return base
	}
	w, h, ok := fingerprint.ParseResolution(base)
	if !ok || w == 0 {
		return base
	}
	return strconv.Itoa(int(math.Round(float64(w)/zoom))) + "x" + strconv.Itoa(int(math.Round(float64(h)/zoom)))
}

func formatPixelRatio(pr float64) string {
	s := fmt.Sprintf("%.4f", pr)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// render produces the visit record for the instance at time now.
// Canvas and GPU images come from the run's render memo and are
// registered into the dataset's image stores (the server's dedup value
// store keeps full content, which is what lets the offline analysis
// pixel-diff canvases).
func (in *instance) render(now time.Time, vs visitState, ds *Dataset) *fingerprint.Record {
	dv := in.dev
	ua := in.ua()
	presented := ua
	if vs.desktopReq {
		presented = ua.RequestDesktop()
	}
	if in.fakeUA {
		// A spoofing extension presents a generic fixed UA.
		presented = useragent.UA{
			Browser: useragent.Firefox, BrowserVersion: useragent.V(52),
			OS: useragent.Windows, OSVersion: useragent.V(10),
		}
	}

	physical := ds.Geo.CityAt(dv.curCity)
	ipCityIdx := dv.curCity
	if vs.vpnCity >= 0 {
		ipCityIdx = vs.vpnCity
	}
	ipCity := ds.Geo.CityAt(ipCityIdx)

	lang := languagePool[dv.langIdx][0]
	if in.fakeLang {
		lang = "en"
	} else if dv.headerLangExtra != "" {
		lang = lang + "," + dv.headerLangExtra
	}
	langs := append([]string{languagePool[dv.langIdx][1]}, dv.extraLangs...)
	sort.Strings(langs)

	screen := scaledScreen(dv.screen, in.zoom)
	if in.fakeRes {
		screen = "800x600"
	}

	cimg, chash := ds.renders.canvasImage(in.canvasParams())
	if _, ok := ds.CanvasImages[chash]; !ok {
		ds.CanvasImages[chash] = cimg
	}

	gi := dv.gpu
	gi.Driver = dv.driverGen*100 + dv.directX + in.dxOverride
	gimg, ghash := ds.renders.gpuImage(gi)
	if _, ok := ds.CanvasImages[ghash]; !ok {
		ds.CanvasImages[ghash] = gimg
	}
	if _, ok := ds.GPUImageInfo[ghash]; !ok {
		ds.GPUImageInfo[ghash] = gi
	}

	audioRate := dv.audioRate
	fp := &fingerprint.Fingerprint{
		UserAgent:  presented.String(),
		Accept:     acceptFor(in.family),
		Encoding:   encodingFor(in.family, in.version),
		Language:   lang,
		HeaderList: headerListFor(in.family, dv.platform.mobile),

		Plugins:        in.plugins(),
		CookieEnabled:  !in.cookieOff,
		WebGL:          true,
		LocalStorage:   !in.lsOff && !vs.private,
		AddBehavior:    in.family == useragent.IE,
		OpenDatabase:   in.family != useragent.Firefox && in.family != useragent.FirefoxMobile && in.family != useragent.IE,
		TimezoneOffset: tzOffsetFor(physical),

		Languages:  langs,
		Fonts:      in.visibleFonts(),
		CanvasHash: chash,

		GPUVendor:        dv.gpu.Vendor,
		GPURenderer:      dv.gpu.Renderer,
		GPUType:          in.gpuType(),
		CPUCores:         dv.cores,
		CPUClass:         dv.cpuClass,
		AudioInfo:        fmt.Sprintf("channels:%d;rate:%d", dv.audioChans, audioRate),
		ScreenResolution: screen,
		ColorDepth:       dv.colorDepth,
		PixelRatio:       formatPixelRatio(dv.basePR * in.zoom),

		IPAddr:    ds.Geo.IPFor(ipCityIdx, in.serial*13+in.visited),
		IPCity:    ipCity.Name,
		IPRegion:  ipCity.Region,
		IPCountry: ipCity.Country,

		ConsLanguage:   !in.fakeLang,
		ConsResolution: !in.fakeRes,
		ConsOS:         !vs.desktopReq,
		ConsBrowser:    !in.fakeUA,

		GPUImageHash: ghash,
	}

	parsed, err := useragent.CachedParse(fp.UserAgent)
	if err != nil {
		parsed = presented
	}
	return &fingerprint.Record{
		Time:    now,
		UserID:  in.userID,
		Cookie:  in.cookie,
		FP:      fp,
		Browser: parsed.Browser,
		OS:      parsed.OS,
		Device:  parsed.Device,
		Mobile:  parsed.Mobile,
	}
}
