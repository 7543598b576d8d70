package fingerprint

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// addFontsOracle and removeFontsOracle are the set-and-sort forms of
// AddFonts and RemoveFonts, kept as the reference the merge paths must
// reproduce.
func addFontsOracle(fonts, add []string) []string {
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

func removeFontsOracle(fonts, remove []string) []string {
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
	sort.Strings(out)
	return out
}

// randomFontList draws a font list from a small pool, so lists overlap
// and repeat names: nil, empty, sorted or unsorted.
func randomFontList(rng *rand.Rand) []string {
	pool := []string{"Arial", "Calibri", "Cambria", "MT Extra", "Segoe UI", "Tahoma", "Verdana", "Wingdings", "", "arial"}
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, rng.Intn(12))
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	if rng.Intn(2) == 0 {
		sort.Strings(out)
	}
	return out
}

// TestFontSetsMatchOracle checks AddFonts and RemoveFonts against the
// set-and-sort oracle on random inputs, including that both always
// return a non-nil list (the binary codec keeps nil and empty apart)
// and leave their inputs alone.
func TestFontSetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		a, b := randomFontList(rng), randomFontList(rng)
		a0, b0 := slices.Clone(a), slices.Clone(b)

		got, want := AddFonts(a, b), addFontsOracle(a, b)
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("AddFonts(%q, %q) = %#v, want %#v", a, b, got, want)
		}
		got, want = RemoveFonts(a, b), removeFontsOracle(a, b)
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("RemoveFonts(%q, %q) = %#v, want %#v", a, b, got, want)
		}
		if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
			t.Fatalf("inputs mutated: %q, %q, were %q, %q", a, b, a0, b0)
		}
	}
}
