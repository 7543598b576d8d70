package diff

import (
	"reflect"
	"testing"
	"testing/quick"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

func baseFP() *fingerprint.Fingerprint {
	ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(56, 0, 2924, 87), OS: useragent.Windows, OSVersion: useragent.V(10)}
	return &fingerprint.Fingerprint{
		UserAgent:        ua.String(),
		Accept:           "text/html,application/xhtml+xml",
		Encoding:         "gzip, deflate, br",
		Language:         "en-US,en;q=0.9",
		HeaderList:       []string{"Host", "User-Agent", "Accept"},
		Plugins:          []string{"Chrome PDF Plugin", "Native Client"},
		CookieEnabled:    true,
		WebGL:            true,
		LocalStorage:     true,
		TimezoneOffset:   60,
		Languages:        []string{"en-US"},
		Fonts:            []string{"Arial", "Calibri", "Verdana"},
		CanvasHash:       "aaaa",
		GPUVendor:        "NVIDIA Corporation",
		GPURenderer:      "GeForce GTX 970",
		GPUType:          "Direct3D11",
		CPUCores:         4,
		CPUClass:         "x86",
		AudioInfo:        "channels:2;rate:44100",
		ScreenResolution: "1920x1080",
		ColorDepth:       24,
		PixelRatio:       "1",
		IPCity:           "Berlin",
		IPRegion:         "Berlin",
		IPCountry:        "Germany",
		ConsLanguage:     true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
		GPUImageHash: "gggg",
	}
}

func TestDiffIdentical(t *testing.T) {
	a := baseFP()
	d := Diff(a, a.Clone())
	if !d.Empty() {
		t.Fatalf("identical fingerprints produced delta: %v", d.Key())
	}
}

func TestDiffVersionBumpIsSingleReplace(t *testing.T) {
	a := baseFP()
	b := a.Clone()
	ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98), OS: useragent.Windows, OSVersion: useragent.V(10)}
	b.UserAgent = ua.String()
	d := Diff(a, b)
	if len(d.Fields) != 1 || d.Fields[0].Feature != fingerprint.FeatUserAgent {
		t.Fatalf("delta fields = %v", d.FeatureIDs())
	}
	// The version tokens 56→57, 2924→2987, 87→98 are three replaces.
	for _, e := range d.Fields[0].Edits {
		if e.Op != OpReplace {
			t.Errorf("edit %+v: want all replaces for a version bump", e)
		}
	}
	if len(d.Fields[0].Edits) != 3 {
		t.Errorf("edits = %+v, want 3 replaces", d.Fields[0].Edits)
	}
}

func TestDeltaCollisionAcrossInstances(t *testing.T) {
	// The paper's motivating property: two instances with different
	// fingerprints (one has an extra font) receiving the same Chrome
	// 56→57 update must produce the same delta key.
	mkPair := func(extraFont bool) string {
		a := baseFP()
		if extraFont {
			a.Fonts = fingerprint.AddFonts(a.Fonts, []string{"MT Extra"})
		}
		b := a.Clone()
		ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98), OS: useragent.Windows, OSVersion: useragent.V(10)}
		b.UserAgent = ua.String()
		return Diff(a, b).Key()
	}
	if mkPair(false) != mkPair(true) {
		t.Fatal("same update on different instances produced different delta keys")
	}
}

func TestDiffSetAddedDeleted(t *testing.T) {
	a := baseFP()
	b := a.Clone()
	b.Fonts = fingerprint.AddFonts(fingerprint.RemoveFonts(b.Fonts, []string{"Verdana"}), []string{"MT Extra"})
	d := Diff(a, b)
	fd := d.Field(fingerprint.FeatFontList)
	if fd == nil {
		t.Fatal("font list change not detected")
	}
	if !reflect.DeepEqual(fd.Added, []string{"MT Extra"}) || !reflect.DeepEqual(fd.Deleted, []string{"Verdana"}) {
		t.Fatalf("added=%v deleted=%v", fd.Added, fd.Deleted)
	}
}

func TestDiffHashPair(t *testing.T) {
	a := baseFP()
	b := a.Clone()
	b.CanvasHash = "bbbb"
	d := Diff(a, b)
	fd := d.Field(fingerprint.FeatCanvas)
	if fd == nil || fd.OldHash != "aaaa" || fd.NewHash != "bbbb" {
		t.Fatalf("canvas delta = %+v", fd)
	}
}

func TestDiffWhitespaceChange(t *testing.T) {
	// The Maxthon example: "gzip,deflate" → "gzip, deflate" must be a
	// detectable delta (a whitespace insert).
	a := baseFP()
	a.Encoding = "gzip,deflate"
	b := a.Clone()
	b.Encoding = "gzip, deflate"
	d := Diff(a, b)
	fd := d.Field(fingerprint.FeatEncoding)
	if fd == nil {
		t.Fatal("whitespace change not detected")
	}
	if len(fd.Edits) != 1 || fd.Edits[0].Op != OpInsert || fd.Edits[0].New != " " {
		t.Fatalf("edits = %+v, want single whitespace insert", fd.Edits)
	}
}

func TestDiffReorderDetected(t *testing.T) {
	// "gzip, deflate, br" → "br, gzip, deflate": sequence changes must
	// produce a delta even though the element set is identical.
	a := baseFP()
	b := a.Clone()
	b.Encoding = "br, gzip, deflate"
	d := Diff(a, b)
	if d.Field(fingerprint.FeatEncoding) == nil {
		t.Fatal("reorder not detected — subfields must be ordered")
	}
}

func TestDiffMultipleFeatures(t *testing.T) {
	a := baseFP()
	b := a.Clone()
	b.TimezoneOffset = -300
	b.IPCity, b.IPCountry = "New York", "United States"
	b.CookieEnabled = false
	d := Diff(a, b)
	for _, id := range []fingerprint.ID{fingerprint.FeatTimezone, fingerprint.FeatIPCity, fingerprint.FeatIPCountry, fingerprint.FeatCookie} {
		if !d.Has(id) {
			t.Errorf("feature %v change not detected", fingerprint.Describe(id).Name)
		}
	}
	if d.Has(fingerprint.FeatUserAgent) {
		t.Error("unchanged feature reported")
	}
}

func TestDeltaKeyEmpty(t *testing.T) {
	a := baseFP()
	if key := Diff(a, a.Clone()).Key(); key != "" {
		t.Fatalf("empty delta key = %q", key)
	}
}

func TestDeltaKeyDistinguishes(t *testing.T) {
	a := baseFP()
	b1, b2 := a.Clone(), a.Clone()
	b1.CookieEnabled = false
	b2.TimezoneOffset = 0
	if Diff(a, b1).Key() == Diff(a, b2).Key() {
		t.Fatal("different deltas keyed equal")
	}
}

func TestDiffSetsBasics(t *testing.T) {
	added, deleted := DiffSets([]string{"a", "b"}, []string{"b", "c", "d"})
	if !reflect.DeepEqual(added, []string{"c", "d"}) || !reflect.DeepEqual(deleted, []string{"a"}) {
		t.Fatalf("added=%v deleted=%v", added, deleted)
	}
	added, deleted = DiffSets(nil, nil)
	if added != nil || deleted != nil {
		t.Fatal("nil sets should produce nil diffs")
	}
}

func TestDiffSubfieldsEmptyToFull(t *testing.T) {
	edits := DiffSubfields(nil, []string{"x", "y"})
	if len(edits) != 2 || edits[0].Op != OpInsert || edits[1].Op != OpInsert {
		t.Fatalf("edits = %+v", edits)
	}
	edits = DiffSubfields([]string{"x", "y"}, nil)
	if len(edits) != 2 || edits[0].Op != OpDelete || edits[1].Op != OpDelete {
		t.Fatalf("edits = %+v", edits)
	}
}

// ApplySubfields replays an edit script produced by DiffSubfields
// against the original sequence and returns the edited sequence:
// ApplySubfields(a, DiffSubfields(a, b)) == b. It is the oracle that
// shows an edit script is exact: knowing the Firefox 57→58 delta lets
// a fingerprinting tool precompute the updated fingerprint of every
// stale instance (Insight 4).
func ApplySubfields(a []string, edits []SubfieldEdit) []string {
	out := make([]string, 0, len(a))
	e := 0
	for i := 0; i <= len(a); i++ {
		// Inserts anchored before position i apply first, in script order.
		for e < len(edits) && edits[e].Pos == i && edits[e].Op == OpInsert {
			out = append(out, edits[e].New)
			e++
		}
		if i == len(a) {
			break
		}
		if e < len(edits) && edits[e].Pos == i {
			switch edits[e].Op {
			case OpDelete:
				e++
				continue
			case OpReplace:
				out = append(out, edits[e].New)
				e++
				continue
			}
		}
		out = append(out, a[i])
	}
	return out
}

func TestApplySubfieldsRoundTrip(t *testing.T) {
	cases := [][2]string{
		{"gzip,deflate", "gzip, deflate"},
		{"gzip, deflate, br", "br, gzip, deflate"},
		{"Chrome/56.0.2924.87", "Chrome/57.0.2987.98"},
		{"", "abc def"},
		{"abc def", ""},
		{"a b c d e", "a x c y e z"},
		{"1 2 1", "2 1 1"},
	}
	for _, c := range cases {
		a := useragent.Subfields(c[0])
		b := useragent.Subfields(c[1])
		got := ApplySubfields(a, DiffSubfields(a, b))
		if !reflect.DeepEqual(got, b) && !(len(got) == 0 && len(b) == 0) {
			t.Errorf("apply(diff(%q,%q)) = %v, want %v", c[0], c[1], got, b)
		}
	}
}

// Property: the edit script is always exactly replayable for arbitrary
// printable-token sequences.
func TestApplyDiffProperty(t *testing.T) {
	f := func(xa, xb []uint8) bool {
		mk := func(xs []uint8) []string {
			out := make([]string, len(xs))
			for i, x := range xs {
				out[i] = string(rune('a' + x%6)) // small alphabet → many repeats
			}
			return out
		}
		a, b := mk(xa), mk(xb)
		got := ApplySubfields(a, DiffSubfields(a, b))
		return reflect.DeepEqual(got, b) || (len(got) == 0 && len(b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: diff of equal sequences is empty; diff key is symmetric-free
// (a→b vs b→a differ unless equal).
func TestDiffSubfieldsIdentityProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		toks := make([]string, len(xs))
		for i, x := range xs {
			toks[i] = string(rune('a' + x%6))
		}
		return len(DiffSubfields(toks, toks)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiffFingerprint(b *testing.B) {
	x := baseFP()
	y := x.Clone()
	ua := useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98), OS: useragent.Windows, OSVersion: useragent.V(10)}
	y.UserAgent = ua.String()
	y.Fonts = fingerprint.AddFonts(y.Fonts, []string{"MT Extra"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Diff(x, y)
	}
}

func BenchmarkDiffSubfieldsUA(b *testing.B) {
	ua1 := useragent.Subfields(baseFP().UserAgent)
	ua2 := useragent.Subfields(useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98), OS: useragent.Windows, OSVersion: useragent.V(10)}.String())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DiffSubfields(ua1, ua2)
	}
}
