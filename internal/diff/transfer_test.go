package diff

import (
	"slices"
	"testing"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// TestTransferDeltaAcrossInstances is the Insight 4 headline: observe a
// Chrome 56→57 update on instance A, transfer the delta to instance B
// (which has a different font list), and obtain exactly B's real
// post-update fingerprint.
func TestTransferDeltaAcrossInstances(t *testing.T) {
	mkUA := func(v useragent.Version) string {
		return useragent.UA{Browser: useragent.Chrome, BrowserVersion: v,
			OS: useragent.Windows, OSVersion: useragent.V(10)}.String()
	}
	v56, v57 := useragent.V(56, 0, 2924, 87), useragent.V(57, 0, 2987, 98)

	aBefore := baseFP()
	aBefore.UserAgent = mkUA(v56)
	aAfter := aBefore.Clone()
	aAfter.UserAgent = mkUA(v57)
	delta := Diff(aBefore, aAfter)

	// Instance B: same versions, different fonts and timezone.
	bBefore := baseFP()
	bBefore.UserAgent = mkUA(v56)
	bBefore.Fonts = fingerprint.AddFonts(bBefore.Fonts, []string{"MT Extra", "Wingdings"})
	bBefore.TimezoneOffset = -300

	predicted, ok := TransferDelta(delta, bBefore)
	if !ok {
		t.Fatal("delta did not transfer")
	}
	bReal := bBefore.Clone()
	bReal.UserAgent = mkUA(v57)
	if predicted.UserAgent != bReal.UserAgent {
		t.Fatalf("predicted UA %q != real %q", predicted.UserAgent, bReal.UserAgent)
	}
	if !predicted.Equal(bReal) {
		t.Fatal("predicted fingerprint differs from the real post-update one")
	}
}

func TestTransferDeltaFontInstall(t *testing.T) {
	// The MT Extra Office-update delta applies to any instance.
	a := baseFP()
	b := a.Clone()
	b.Fonts = fingerprint.AddFonts(b.Fonts, []string{"MT Extra"})
	delta := Diff(a, b)

	target := baseFP()
	target.Fonts = []string{"Comic Sans MS"}
	predicted, ok := TransferDelta(delta, target)
	if !ok {
		t.Fatal("transfer failed")
	}
	if !slices.Contains(predicted.Fonts, "MT Extra") || !slices.Contains(predicted.Fonts, "Comic Sans MS") {
		t.Fatalf("fonts = %v", predicted.Fonts)
	}
}

func TestTransferDeltaHashOnlyWhenMatching(t *testing.T) {
	a := baseFP()
	b := a.Clone()
	b.CanvasHash = "bbbb"
	delta := Diff(a, b)

	// Target with the same old canvas: adopts the new hash.
	same := baseFP()
	predicted, _ := TransferDelta(delta, same)
	if predicted.CanvasHash != "bbbb" {
		t.Fatalf("canvas = %q, want bbbb", predicted.CanvasHash)
	}
	// Target with a diverged canvas: keeps its own.
	diverged := baseFP()
	diverged.CanvasHash = "cccc"
	predicted, _ = TransferDelta(delta, diverged)
	if predicted.CanvasHash != "cccc" {
		t.Fatalf("diverged canvas overwritten: %q", predicted.CanvasHash)
	}
}

func TestTransferDeltaRejectsWrongContext(t *testing.T) {
	// A Chrome 56→57 delta cannot apply to a Firefox fingerprint.
	a := baseFP()
	a.UserAgent = useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(56, 0, 2924, 87),
		OS: useragent.Windows, OSVersion: useragent.V(10)}.String()
	b := a.Clone()
	b.UserAgent = useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98),
		OS: useragent.Windows, OSVersion: useragent.V(10)}.String()
	delta := Diff(a, b)

	ff := baseFP()
	ff.UserAgent = useragent.UA{Browser: useragent.Firefox, BrowserVersion: useragent.V(58),
		OS: useragent.Windows, OSVersion: useragent.V(10)}.String()
	if _, ok := TransferDelta(delta, ff); ok {
		t.Fatal("Chrome delta applied to a Firefox fingerprint")
	}
}

func TestTransferDeltaDoesNotMutateInput(t *testing.T) {
	a := baseFP()
	b := a.Clone()
	b.Fonts = fingerprint.AddFonts(b.Fonts, []string{"MT Extra"})
	delta := Diff(a, b)
	target := baseFP()
	before := target.Hash(true)
	TransferDelta(delta, target)
	if target.Hash(true) != before {
		t.Fatal("TransferDelta mutated its input")
	}
}

func BenchmarkTransferDelta(b *testing.B) {
	x := baseFP()
	y := x.Clone()
	y.UserAgent = useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(57, 0, 2987, 98),
		OS: useragent.Windows, OSVersion: useragent.V(10)}.String()
	x.UserAgent = useragent.UA{Browser: useragent.Chrome, BrowserVersion: useragent.V(56, 0, 2924, 87),
		OS: useragent.Windows, OSVersion: useragent.V(10)}.String()
	delta := Diff(x, y)
	target := baseFP()
	target.UserAgent = x.UserAgent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := TransferDelta(delta, target); !ok {
			b.Fatal("transfer failed")
		}
	}
}
