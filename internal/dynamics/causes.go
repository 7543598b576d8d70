package dynamics

// Cause is a fine-grained reason for a fingerprint change, one per
// Table 2 subcategory row.
type Cause string

// Category is one of the paper's three top-level cause categories, plus
// the update split it reports separately.
type Category string

// Categories.
const (
	CatOSUpdate      Category = "OS Updates"
	CatBrowserUpdate Category = "Browser Updates"
	CatUserAction    Category = "User Actions"
	CatEnvironment   Category = "Environment Updates"
)

// Causes, named after the Table 2 rows.
const (
	// Updates.
	CauseOSUpdate      Cause = "OS update"
	CauseBrowserUpdate Cause = "browser update"

	// User actions.
	CauseTimezone     Cause = "change timezone"
	CausePrivate      Cause = "private browsing mode"
	CauseZoom         Cause = "zoom in/out webpage"
	CauseFlash        Cause = "enable/disable Flash"
	CauseFakeLang     Cause = "fake supported languages"
	CauseFakeRes      Cause = "fake screen resolution"
	CauseMonitor      Cause = "switch monitor/change resolution"
	CauseDesktopSite  Cause = "request desktop website"
	CauseFakeAgent    Cause = "fake agent string"
	CausePlugin       Cause = "install plugins"
	CauseLocalStorage Cause = "enable/disable localStorage"
	CauseCookieToggle Cause = "enable/disable cookie"

	// Environment updates.
	CauseFontOffice  Cause = "font update (MS Office)"
	CauseFontAdobe   Cause = "font update (Adobe)"
	CauseFontLibre   Cause = "font update (LibreOffice)"
	CauseFontWPS     Cause = "font update (WPS)"
	CauseFontOther   Cause = "font update (other)"
	CauseCanvasEmoji Cause = "canvas update (emoji)"
	CauseCanvasText  Cause = "canvas update (text)"
	CauseAudio       Cause = "audio update"
	CauseHeaderLang  Cause = "HTTP header language update"
	CauseSysLang     Cause = "system language update"
	CauseColorDepth  Cause = "screen color depth update"
	CauseGPURender   Cause = "GPU render update"
)

// Category returns the top-level category of a cause.
func (c Cause) Category() Category {
	switch c {
	case CauseOSUpdate:
		return CatOSUpdate
	case CauseBrowserUpdate:
		return CatBrowserUpdate
	case CauseTimezone, CausePrivate, CauseZoom, CauseFlash, CauseFakeLang,
		CauseFakeRes, CauseMonitor, CauseDesktopSite, CauseFakeAgent,
		CausePlugin, CauseLocalStorage, CauseCookieToggle:
		return CatUserAction
	}
	return CatEnvironment
}

// Classification is the set of causes assigned to one piece of
// dynamics.
type Classification struct {
	Causes []Cause
}

// Has reports whether cause c was assigned.
func (cl Classification) Has(c Cause) bool {
	for _, x := range cl.Causes {
		if x == c {
			return true
		}
	}
	return false
}

// Categories returns the distinct top-level categories, in the fixed
// order OS, Browser, UserAction, Environment.
func (cl Classification) Categories() []Category {
	seen := map[Category]bool{}
	for _, c := range cl.Causes {
		seen[c.Category()] = true
	}
	var out []Category
	for _, cat := range []Category{CatOSUpdate, CatBrowserUpdate, CatUserAction, CatEnvironment} {
		if seen[cat] {
			out = append(out, cat)
		}
	}
	return out
}

// Empty reports whether no cause was found.
func (cl Classification) Empty() bool { return len(cl.Causes) == 0 }

func (cl *Classification) add(c Cause) {
	if !cl.Has(c) {
		cl.Causes = append(cl.Causes, c)
	}
}
