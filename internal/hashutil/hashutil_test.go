package hashutil

import (
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64("hello") != Hash64("hello") {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64("hello") == Hash64("hellp") {
		t.Fatal("Hash64 collided on near-identical strings")
	}
}

func TestHash64Empty(t *testing.T) {
	if Hash64("") != uint64(fnvOffset64) {
		t.Fatalf("empty hash = %d, want offset basis", Hash64(""))
	}
}

func TestCombineOrderSensitive(t *testing.T) {
	a, b := Hash64("a"), Hash64("b")
	if Combine(a, b) == Combine(b, a) {
		t.Fatal("Combine should be order sensitive")
	}
}

func TestHashStringsLengthPrefixed(t *testing.T) {
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Fatal(`("ab","c") and ("a","bc") must not collide`)
	}
}

func TestHashStringsOrderSensitive(t *testing.T) {
	if HashStrings("x", "y") == HashStrings("y", "x") {
		t.Fatal("HashStrings must be order sensitive")
	}
}

func TestHashSetOrderIndependent(t *testing.T) {
	a := HashSet([]string{"Arial", "Calibri", "MT Extra"})
	b := HashSet([]string{"MT Extra", "Arial", "Calibri"})
	if a != b {
		t.Fatal("HashSet must be order independent")
	}
	c := HashSet([]string{"Arial", "Calibri"})
	if a == c {
		t.Fatal("different sets must hash differently")
	}
}

func TestHashSetDoesNotMutate(t *testing.T) {
	in := []string{"z", "a", "m"}
	HashSet(in)
	if in[0] != "z" || in[1] != "a" || in[2] != "m" {
		t.Fatal("HashSet mutated its input")
	}
}

func TestHashSetEmpty(t *testing.T) {
	if HashSet(nil) != HashSet([]string{}) {
		t.Fatal("nil and empty set should hash identically")
	}
}

func TestSHA1HexFormat(t *testing.T) {
	h := SHA1HexBytes([]byte("canvas pixels"))
	if len(h) != 40 {
		t.Fatalf("SHA1HexBytes length = %d, want 40", len(h))
	}
	for _, c := range h {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("non-hex character %q in %s", c, h)
		}
	}
}

func TestSHA1HexKnownValue(t *testing.T) {
	// SHA-1 of the empty string is a well-known constant.
	if got := SHA1HexBytes(nil); got != "da39a3ee5e6b4b0d3255bfef95601890afd80709" {
		t.Fatalf("SHA1HexBytes(nil) = %s", got)
	}
}

// Property: permuting a set never changes its hash.
func TestHashSetPermutationProperty(t *testing.T) {
	f := func(ss []string, seed uint8) bool {
		perm := make([]string, len(ss))
		copy(perm, ss)
		// Deterministic pseudo-shuffle driven by seed.
		for i := range perm {
			j := (i*int(seed+1) + int(seed)) % len(perm)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return HashSet(ss) == HashSet(perm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: HashStrings is injective with respect to element boundaries
// for simple two-element splits of a string.
func TestHashStringsBoundaryProperty(t *testing.T) {
	f := func(s string) bool {
		if len(s) < 2 {
			return true
		}
		mid := len(s) / 2
		// Splitting at different points must give different hashes unless
		// the halves are literally identical strings in both splits.
		a := HashStrings(s[:mid], s[mid:])
		b := HashStrings(s[:mid-1], s[mid-1:])
		if s[:mid] == s[:mid-1] { // impossible: different lengths
			return true
		}
		return a != b || s[:mid] == s[:mid-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHash64(b *testing.B) {
	s := "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hash64(s)
	}
}

func BenchmarkHashSet40Fonts(b *testing.B) {
	fonts := make([]string, 40)
	for i := range fonts {
		fonts[i] = "Font Family " + string(rune('A'+i%26)) + string(rune('0'+i%10))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashSet(fonts)
	}
}
