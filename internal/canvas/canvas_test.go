package canvas

import (
	"testing"
	"testing/quick"
)

func TestRenderDeterministic(t *testing.T) {
	p := Params{TextEngine: 3, TextWidth: 2, EmojiMajor: 5, EmojiMinor: 1}
	if Render(p).Hash() != Render(p).Hash() {
		t.Fatal("Render is not deterministic")
	}
}

func TestHashFormat(t *testing.T) {
	h := Render(Params{}).Hash()
	if len(h) != 40 {
		t.Fatalf("canvas hash length = %d, want 40 (SHA-1 hex)", len(h))
	}
}

func TestEmojiMajorChangesEmojiBandOnly(t *testing.T) {
	a := Render(Params{TextEngine: 1, TextWidth: 1, EmojiMajor: 1, EmojiMinor: 0})
	b := Render(Params{TextEngine: 1, TextWidth: 1, EmojiMajor: 2, EmojiMinor: 0})
	d := Diff(a, b)
	if d.TextChanged != 0 {
		t.Errorf("emoji update leaked into text band: %d pixels", d.TextChanged)
	}
	if !d.EmojiOnly() {
		t.Error("expected emoji-only diff")
	}
	subs := d.Subtypes()
	if len(subs) != 1 || subs[0] != SubtypeEmojiType {
		t.Errorf("subtypes = %v, want [emoji type]", subs)
	}
}

func TestEmojiMinorIsRenderingSubtype(t *testing.T) {
	a := Render(Params{EmojiMajor: 3, EmojiMinor: 0})
	b := Render(Params{EmojiMajor: 3, EmojiMinor: 1})
	d := Diff(a, b)
	if !d.EmojiOnly() {
		t.Fatal("smoothing change must be emoji-only")
	}
	subs := d.Subtypes()
	if len(subs) != 1 || subs[0] != SubtypeEmojiRendering {
		t.Errorf("subtypes = %v, want [emoji rendering]", subs)
	}
	// A smoothing change touches fewer pixels than a redesign.
	redesign := Diff(a, Render(Params{EmojiMajor: 4, EmojiMinor: 0}))
	if d.EmojiChanged >= redesign.EmojiChanged {
		t.Errorf("smoothing diff (%d px) should be smaller than redesign diff (%d px)",
			d.EmojiChanged, redesign.EmojiChanged)
	}
}

func TestTextWidthSubtype(t *testing.T) {
	// Find two width generations that actually differ in rendered width.
	base := Render(Params{TextEngine: 2, TextWidth: 0})
	for gen := 1; gen < 10; gen++ {
		b := Render(Params{TextEngine: 2, TextWidth: gen})
		d := Diff(base, b)
		if d.WidthDelta != 0 {
			subs := d.Subtypes()
			found := false
			for _, s := range subs {
				if s == SubtypeTextWidth {
					found = true
				}
			}
			if !found {
				t.Fatalf("width delta %d not classified as text width: %v", d.WidthDelta, subs)
			}
			return
		}
	}
	t.Fatal("no width generation produced a different text width")
}

func TestTextDetailSubtype(t *testing.T) {
	a := Render(Params{TextEngine: 1, TextWidth: 5})
	b := Render(Params{TextEngine: 2, TextWidth: 5})
	d := Diff(a, b)
	if d.TextChanged == 0 {
		t.Fatal("engine change must alter text pixels")
	}
	if d.WidthDelta != 0 {
		t.Skip("these generations also changed width; detail subtype untestable here")
	}
	subs := d.Subtypes()
	if len(subs) == 0 || subs[0] != SubtypeTextDetail {
		t.Errorf("subtypes = %v, want text detail first", subs)
	}
}

func TestIdenticalDiff(t *testing.T) {
	p := Params{TextEngine: 9, TextWidth: 9, EmojiMajor: 9, EmojiMinor: 9}
	d := Diff(Render(p), Render(p))
	if !d.Identical || d.Changed != 0 || len(d.Subtypes()) != 0 {
		t.Fatalf("identical render diff = %+v", d)
	}
}

func TestGPUDedicatedDistinctive(t *testing.T) {
	// Dedicated GPUs must produce images unique per renderer.
	a := RenderGPU(GPUInfo{Vendor: "NVIDIA Corporation", Renderer: "GeForce GTX 970", Driver: 11})
	b := RenderGPU(GPUInfo{Vendor: "NVIDIA Corporation", Renderer: "GeForce GTX 1060", Driver: 11})
	if a.Hash() == b.Hash() {
		t.Fatal("different dedicated renderers must differ")
	}
}

func TestGPUIntegratedClusters(t *testing.T) {
	// Integrated GPUs collapse into few output classes: among several
	// Intel renderers, at least two must produce bit-identical images
	// (which is what defeats image→renderer inference for them), and
	// any Intel pair that does differ differs by less than a dedicated
	// NVIDIA pair.
	renderers := []string{
		"Intel(R) HD Graphics 520", "Intel(R) HD Graphics 620",
		"Intel(R) UHD Graphics 630", "Intel(R) HD Graphics 4000",
		"Intel(R) HD Graphics 530",
	}
	imgs := make([]*Image, len(renderers))
	for i, r := range renderers {
		imgs[i] = RenderGPU(GPUInfo{Vendor: "Intel Inc.", Renderer: r, Driver: 11})
	}
	collision := false
	maxIntelDiff := 0
	for i := 0; i < len(imgs); i++ {
		for j := i + 1; j < len(imgs); j++ {
			d := Diff(imgs[i], imgs[j]).Changed
			if d == 0 {
				collision = true
			} else if d > maxIntelDiff {
				maxIntelDiff = d
			}
		}
	}
	if !collision {
		t.Error("no identical-image collision among 5 Intel renderers")
	}
	n1 := RenderGPU(GPUInfo{Vendor: "NVIDIA Corporation", Renderer: "GeForce GTX 970", Driver: 11})
	n2 := RenderGPU(GPUInfo{Vendor: "NVIDIA Corporation", Renderer: "GeForce GTX 1060", Driver: 11})
	dn := Diff(n1, n2).Changed
	if maxIntelDiff*4 > dn {
		t.Errorf("integrated diff (%d) should be much smaller than dedicated diff (%d)", maxIntelDiff, dn)
	}
}

func TestGPUDriverChangesImage(t *testing.T) {
	// A DirectX/driver update changes the GPU image (Insight 3 example 3).
	a := RenderGPU(GPUInfo{Vendor: "NVIDIA Corporation", Renderer: "GeForce GTX 970", Driver: 9})
	b := RenderGPU(GPUInfo{Vendor: "NVIDIA Corporation", Renderer: "GeForce GTX 970", Driver: 11})
	if a.Hash() == b.Hash() {
		t.Fatal("driver generation must affect the GPU image")
	}
}

// Property: the diff of any two renders is symmetric in Changed counts
// and the width delta negates.
func TestDiffSymmetryProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		p := Params{TextEngine: int(a1 % 8), TextWidth: int(a2 % 8), EmojiMajor: int(b1 % 8), EmojiMinor: int(b2 % 8)}
		q := Params{TextEngine: int(a2 % 8), TextWidth: int(b1 % 8), EmojiMajor: int(b2 % 8), EmojiMinor: int(a1 % 8)}
		x, y := Render(p), Render(q)
		d1, d2 := Diff(x, y), Diff(y, x)
		return d1.Changed == d2.Changed && d1.WidthDelta == -d2.WidthDelta &&
			d1.TextChanged == d2.TextChanged && d1.EmojiChanged == d2.EmojiChanged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: equal params render to equal hashes; the hash is a pure
// function of Params.
func TestRenderPureProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := Params{int(a), int(b), int(c), int(d)}
		return Render(p).Hash() == Render(p).Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRender(b *testing.B) {
	p := Params{TextEngine: 3, TextWidth: 2, EmojiMajor: 5, EmojiMinor: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Render(p)
	}
}

func BenchmarkDiff(b *testing.B) {
	x := Render(Params{EmojiMajor: 1})
	y := Render(Params{EmojiMajor: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Diff(x, y)
	}
}

func BenchmarkHashPairVsPixelDiff(b *testing.B) {
	// Ablation for §2.3.2: comparing canvases by hash pair vs by pixel
	// diff. The paper chose hash pairs for speed; quantify the gap.
	x := Render(Params{EmojiMajor: 1})
	y := Render(Params{EmojiMajor: 2})
	b.Run("hash-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Hash() != y.Hash()
		}
	})
	b.Run("pixel-diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Diff(x, y).Changed > 0
		}
	})
}
