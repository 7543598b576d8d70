// Package canvas is the rendering substrate of the reproduction.
//
// The paper's fingerprinting tool draws a text+emoji string ("Cwm
// fjordbank glyphs vext quiz, 😂") onto an HTML canvas and a three.js
// scene onto a WebGL canvas, then fingerprints the pixel output. We do
// not have a browser, so this package implements the closest synthetic
// equivalent: a deterministic software rasterizer whose pixel output is
// a pure function of the parameters that real canvases depend on —
//
//   - the text rasterizer generation (glyph shapes: "text detail"),
//   - the advance-width generation (how wide the text renders: "text width"),
//   - the emoji design generation ("emoji type", e.g. a redesigned smiley),
//   - the emoji rendering generation ("emoji rendering", e.g. smoothing),
//   - and, for GPU images, the GPU vendor/renderer/driver.
//
// These four text/emoji axes are exactly the four canvas-dynamics
// subtypes of the paper's Table 3. A version bump on any axis changes
// the pixels (and therefore the canvas hash) in a characteristic way, so
// the diff/classification pipeline downstream exercises the same logic
// it would on real canvas data, including the Figure 8 pixel diff.
package canvas

import (
	"strconv"

	"fpdyn/internal/hashutil"
)

// Canvas geometry. The text band occupies columns [0, TextBandWidth);
// the emoji glyph occupies the trailing EmojiBandWidth columns.
const (
	Width          = 120
	Height         = 20
	EmojiBandWidth = 20
	TextBandWidth  = Width - EmojiBandWidth
)

// Params are the rendering-relevant parameters of a browser environment.
// The population simulator derives them from the browser, OS and
// co-installed software versions (e.g. a Samsung Browser 6.2 install
// bumps EmojiMajor for every browser on the device, reproducing the
// paper's Insight 1.1).
type Params struct {
	TextEngine int // glyph-shape generation (changes "text detail")
	TextWidth  int // advance-width generation (changes "text width")
	EmojiMajor int // emoji design generation (changes "emoji type")
	EmojiMinor int // emoji smoothing generation (changes "emoji rendering")
}

// Image is a rasterized grayscale canvas. The zero value is an empty
// (all-background) canvas ready to use.
//
// An Image is immutable once rendered: the simulator's per-run render
// memo and the datasets' dedup image stores share *Image pointers, so
// writing to Pix would change every record that references the image.
type Image struct {
	Pix [Height][Width]byte
}

// Render rasterizes the study's canvas test string under the given
// parameters. The output is deterministic: equal Params always produce
// bit-identical images.
func Render(p Params) *Image {
	img := &Image{}
	renderText(img, p)
	renderEmoji(img, p)
	return img
}

// textWidth returns the rendered width in columns of the text band for a
// given advance-width generation. Different generations shift the width
// by a few columns, like a font metrics change does.
func textWidth(gen int) int {
	base := TextBandWidth - 8
	return base + int(hashutil.HashStrings("tw", itoa(gen))%8)
}

func renderText(img *Image, p Params) {
	w := textWidth(p.TextWidth)
	seed := hashutil.HashStrings("text", itoa(p.TextEngine))
	for y := 0; y < Height; y++ {
		for x := 0; x < w; x++ {
			// Glyph coverage: a deterministic dither pattern from the
			// engine generation. Roughly 45% ink coverage.
			h := hashutil.Combine(seed, uint64(y)<<16|uint64(x))
			if h%100 < 45 {
				img.Pix[y][x] = byte(80 + h%160)
			}
		}
	}
}

func renderEmoji(img *Image, p Params) {
	// The emoji glyph: coarse 4x4 blocks controlled by the design
	// generation (a redesign moves/recolors whole blocks), plus
	// per-pixel jitter controlled by the smoothing generation.
	design := hashutil.HashStrings("emoji-design", itoa(p.EmojiMajor))
	smooth := hashutil.HashStrings("emoji-smooth", itoa(p.EmojiMajor), itoa(p.EmojiMinor))
	for y := 0; y < Height; y++ {
		for x := TextBandWidth; x < Width; x++ {
			bx, by := (x-TextBandWidth)/4, y/4
			blockH := hashutil.Combine(design, uint64(by)<<8|uint64(bx))
			if blockH%10 < 6 { // block is part of the glyph
				body := hashutil.Combine(design, uint64(y)<<16|uint64(x))
				img.Pix[y][x] = byte(150 + body%100)
				// A sparse anti-aliasing mask (~1 pixel in 7) carries the
				// smoothing generation: a "rendering" update perturbs only
				// these pixels, far fewer than a redesign moves.
				if body%7 == 0 {
					jitter := hashutil.Combine(smooth, uint64(y)<<16|uint64(x))
					img.Pix[y][x] = byte(150 + jitter%100)
				}
			}
		}
	}
}

// Hash returns the canvas fingerprint: the hex SHA-1 of the pixel
// buffer, matching the 40-hex-character canvas hashes the paper reports
// (Appendix A.2).
func (img *Image) Hash() string {
	flat := make([]byte, 0, Width*Height)
	for y := 0; y < Height; y++ {
		flat = append(flat, img.Pix[y][:]...)
	}
	return hashutil.SHA1HexBytes(flat)
}

// GPUInfo identifies a graphics stack for GPU-image rendering.
type GPUInfo struct {
	Vendor   string // e.g. "NVIDIA Corporation"
	Renderer string // e.g. "GeForce GTX 970"
	Driver   int    // driver/DirectX generation
}

// RenderGPU rasterizes the three.js-style GPU test scene. Dedicated GPUs
// render with high per-renderer variation (they pursue quality through
// distinctive shader paths), while integrated GPUs cluster: this
// asymmetry is what makes the paper's Insight 1.3 inference accuracy
// high for NVIDIA/Mali/PowerVR and low for Intel/AMD. We reproduce it by
// giving integrated vendors a shared base pattern with only small
// per-renderer perturbation.
func RenderGPU(g GPUInfo) *Image {
	img := &Image{}
	integrated := g.Vendor == "Intel Inc." || g.Vendor == "AMD"
	var seed uint64
	if integrated {
		// Integrated GPUs render through shared driver paths: renderers
		// collapse into a small number of output classes per vendor, so
		// distinct renderers often produce bit-identical images — the
		// reason the paper's inference accuracy is low for Intel/AMD.
		bucket := int(hashutil.Hash64(g.Renderer) % 2)
		vendorSeed := hashutil.HashStrings("gpu", g.Vendor, itoa(g.Driver))
		classSeed := hashutil.HashStrings("gpu", g.Vendor, itoa(bucket), itoa(g.Driver))
		for y := 0; y < Height; y++ {
			for x := 0; x < Width; x++ {
				seed = vendorSeed
				if x%8 == 0 {
					seed = classSeed
				}
				h := hashutil.Combine(seed, uint64(y)<<16|uint64(x))
				img.Pix[y][x] = byte(h % 256)
			}
		}
		return img
	}
	seed = hashutil.HashStrings("gpu", g.Vendor, g.Renderer, itoa(g.Driver))
	for y := 0; y < Height; y++ {
		for x := 0; x < Width; x++ {
			h := hashutil.Combine(seed, uint64(y)<<16|uint64(x))
			img.Pix[y][x] = byte(h % 256)
		}
	}
	return img
}

func itoa(n int) string { return strconv.Itoa(n) }
