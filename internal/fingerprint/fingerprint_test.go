package fingerprint

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"
)

func sample() *Fingerprint {
	return &Fingerprint{
		UserAgent:        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36",
		Accept:           "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
		Encoding:         "gzip, deflate, br",
		Language:         "en-US,en;q=0.9",
		HeaderList:       []string{"Host", "User-Agent", "Accept", "Accept-Encoding", "Accept-Language", "Cookie"},
		Plugins:          []string{"Chrome PDF Plugin", "Chrome PDF Viewer", "Native Client"},
		CookieEnabled:    true,
		WebGL:            true,
		LocalStorage:     true,
		TimezoneOffset:   60,
		Languages:        []string{"en-US", "de-DE"},
		Fonts:            []string{"Arial", "Calibri", "Verdana"},
		CanvasHash:       "14578bcaee87ff6fe7fee38ddfa2306a7e3b0a0a",
		GPUVendor:        "NVIDIA Corporation",
		GPURenderer:      "GeForce GTX 970",
		GPUType:          "Direct3D11",
		CPUCores:         4,
		CPUClass:         "x86",
		AudioInfo:        "channels:2;rate:44100",
		ScreenResolution: "1920x1080",
		ColorDepth:       24,
		PixelRatio:       "1",
		IPAddr:           "100.3.1.1",
		IPCity:           "Berlin",
		IPRegion:         "Berlin",
		IPCountry:        "Germany",
		ConsLanguage:     true,
		ConsResolution:   true,
		ConsOS:           true,
		ConsBrowser:      true,
		GPUImageHash:     "bd554a7d5da9293cf3fed52d2052b2b948a14b77",
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Fonts[0] = "Comic Sans MS"
	b.Plugins = append(b.Plugins, "Flash")
	if a.Fonts[0] != "Arial" {
		t.Fatal("Clone aliased Fonts")
	}
	if len(a.Plugins) != 3 {
		t.Fatal("Clone aliased Plugins")
	}
}

func TestHashStable(t *testing.T) {
	a, b := sample(), sample()
	if a.Hash(false) != b.Hash(false) {
		t.Fatal("identical fingerprints hash differently")
	}
	if a.Hash(true) != b.Hash(true) {
		t.Fatal("identical fingerprints hash differently with IP")
	}
}

func TestHashSensitivity(t *testing.T) {
	base := sample().Hash(false)
	mutations := []func(*Fingerprint){
		func(f *Fingerprint) { f.UserAgent += "x" },
		func(f *Fingerprint) { f.Fonts = append(f.Fonts, "MT Extra") },
		func(f *Fingerprint) { f.CookieEnabled = false },
		func(f *Fingerprint) { f.TimezoneOffset = 120 },
		func(f *Fingerprint) { f.CanvasHash = "0000000000000000000000000000000000000000" },
		func(f *Fingerprint) { f.CPUCores = 2 },
		func(f *Fingerprint) { f.PixelRatio = "2" },
	}
	for i, m := range mutations {
		f := sample()
		m(f)
		if f.Hash(false) == base {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

func TestHashIPExclusion(t *testing.T) {
	a, b := sample(), sample()
	b.IPCity, b.IPRegion, b.IPCountry = "Paris", "Île-de-France", "France"
	if a.Hash(false) != b.Hash(false) {
		t.Fatal("IP change affected the IP-excluded hash")
	}
	if a.Hash(true) == b.Hash(true) {
		t.Fatal("IP change must affect the IP-included hash")
	}
}

func TestHashSetOrderIndependence(t *testing.T) {
	a, b := sample(), sample()
	b.Fonts = []string{"Verdana", "Arial", "Calibri"} // same set, new order
	if a.Hash(false) != b.Hash(false) {
		t.Fatal("font order must not affect the hash")
	}
}

func TestEqual(t *testing.T) {
	a, b := sample(), sample()
	if !a.Equal(b) {
		t.Fatal("identical fingerprints not Equal")
	}
	b.Fonts = append(b.Fonts, "MT Extra")
	if a.Equal(b) {
		t.Fatal("different font lists reported Equal")
	}
}

func TestSchemaCompleteness(t *testing.T) {
	if len(Schema) != int(NumFeatures) {
		t.Fatalf("schema has %d entries, want %d", len(Schema), NumFeatures)
	}
	for i, d := range Schema {
		if int(d.ID) != i {
			t.Errorf("schema entry %d has ID %d; order must match enumeration", i, d.ID)
		}
		if d.Name == "" || d.Group == "" {
			t.Errorf("schema entry %d missing name/group", i)
		}
	}
}

func TestValueAllFeatures(t *testing.T) {
	fp := sample()
	for _, d := range Schema {
		v := fp.Value(d.ID)
		if v.Kind != d.Kind {
			t.Errorf("%s: value kind %v != schema kind %v", d.Name, v.Kind, d.Kind)
		}
		switch v.Kind {
		case KindSet:
			if v.Set == nil && d.ID != FeatHeaderList {
				t.Errorf("%s: nil set", d.Name)
			}
		case KindString, KindHash:
			_ = v.Str // may legitimately be empty
		}
		if v.Key() == "" && d.Kind == KindSet {
			t.Errorf("%s: empty key for set feature", d.Name)
		}
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	a, b := sample(), sample()
	b.Fonts = append(b.Fonts, "MT Extra")
	if a.Value(FeatFontList).Key() == b.Value(FeatFontList).Key() {
		t.Fatal("different font sets produced the same key")
	}
}

func TestAddRemoveFonts(t *testing.T) {
	fonts := []string{"Arial", "Calibri"}
	added := AddFonts(fonts, []string{"MT Extra", "Arial"})
	if len(added) != 3 || added[0] != "Arial" || added[1] != "Calibri" || added[2] != "MT Extra" {
		t.Fatalf("AddFonts = %v", added)
	}
	removed := RemoveFonts(added, []string{"Calibri"})
	if len(removed) != 2 || removed[0] != "Arial" || removed[1] != "MT Extra" {
		t.Fatalf("RemoveFonts = %v", removed)
	}
	if len(fonts) != 2 {
		t.Fatal("AddFonts mutated input")
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := &Record{
		Time:    time.Date(2018, 1, 15, 10, 30, 0, 0, time.UTC),
		UserID:  "ab12cd34",
		Cookie:  "ck-0001",
		FP:      sample(),
		Browser: "Chrome",
		OS:      "Windows",
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Record)
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(r.Time) || got.UserID != r.UserID || got.Cookie != r.Cookie {
		t.Fatalf("metadata round trip: %+v", got)
	}
	if !got.FP.Equal(r.FP) {
		t.Fatal("fingerprint did not round trip")
	}
}

func TestUnmarshalRecordError(t *testing.T) {
	if err := json.Unmarshal([]byte("{not json"), new(Record)); err == nil {
		t.Fatal("expected error")
	}
}

// Property: Clone always produces an Equal fingerprint with an equal
// hash, regardless of which sample mutation created the original.
func TestClonePreservesHashProperty(t *testing.T) {
	f := func(cores uint8, tz int16, fontSeed uint8) bool {
		fp := sample()
		fp.CPUCores = int(cores)
		fp.TimezoneOffset = int(tz)
		if fontSeed%2 == 0 {
			fp.Fonts = append(fp.Fonts, "Extra Font")
		}
		c := fp.Clone()
		return c.Hash(true) == fp.Hash(true) && c.Equal(fp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHash(b *testing.B) {
	fp := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp.Hash(false)
	}
}

func BenchmarkRecordMarshal(b *testing.B) {
	r := &Record{Time: time.Now(), UserID: "u", Cookie: "c", FP: sample()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseResolution(t *testing.T) {
	for _, tc := range []struct {
		in   string
		w, h int
		ok   bool
	}{
		{"1920x1080", 1920, 1080, true},
		{"375x812", 375, 812, true},
		{"0x0", 0, 0, true}, // parses; callers reject zero sides
		{"007x09", 7, 9, true},
		{"", 0, 0, false},
		{"1920", 0, 0, false},
		{"x1080", 0, 0, false},
		{"1920x", 0, 0, false},
		{"x", 0, 0, false},
		{"1920X1080", 0, 0, false},
		{"1920x1080x24", 0, 0, false},
		{" 1920x1080", 0, 0, false},
		{"-1x5", 0, 0, false},
		{"1e3x5", 0, 0, false},
	} {
		w, h, ok := ParseResolution(tc.in)
		if ok != tc.ok || (ok && (w != tc.w || h != tc.h)) {
			t.Errorf("ParseResolution(%q) = %d, %d, %v; want %d, %d, %v", tc.in, w, h, ok, tc.w, tc.h, tc.ok)
		}
	}
}
