package canvas

// PixelDiff is the result of comparing two rendered canvases pixel by
// pixel. The paper's dataset pipeline stores canvas dynamics only as a
// hash pair (§2.3.2 argues pixel diffs are heavyweight and carry little
// linkable information), but the *analysis* sections use pixel diffs to
// attribute a canvas change to one of four subtypes (Table 3) and to
// produce the Figure 8 emoji comparison. This type supports both.
type PixelDiff struct {
	Changed      int  // total changed pixels
	TextChanged  int  // changed pixels inside the text band
	EmojiChanged int  // changed pixels inside the emoji band
	WidthDelta   int  // rendered text width difference in columns
	Identical    bool // true when the two images are bit-identical
}

// Subtype labels for canvas dynamics, following Table 3's terminology.
type Subtype string

const (
	// SubtypeTextWidth: the width of the rendered text changed.
	SubtypeTextWidth Subtype = "text width"
	// SubtypeTextDetail: glyph texture details changed at equal width.
	SubtypeTextDetail Subtype = "text detail"
	// SubtypeEmojiType: a new emoji design (large emoji-band change).
	SubtypeEmojiType Subtype = "emoji type"
	// SubtypeEmojiRendering: subtle emoji rendering change (smoothing).
	SubtypeEmojiRendering Subtype = "emoji rendering"
)

// Diff compares two canvases pixel by pixel.
func Diff(a, b *Image) PixelDiff {
	var d PixelDiff
	for y := 0; y < Height; y++ {
		for x := 0; x < Width; x++ {
			if a.Pix[y][x] != b.Pix[y][x] {
				d.Changed++
				if x < TextBandWidth {
					d.TextChanged++
				} else {
					d.EmojiChanged++
				}
			}
		}
	}
	d.WidthDelta = measuredWidth(b) - measuredWidth(a)
	d.Identical = d.Changed == 0
	return d
}

// measuredWidth finds the rightmost inked column of the text band, i.e.
// the rendered text width an observer would measure.
func measuredWidth(img *Image) int {
	for x := TextBandWidth - 1; x >= 0; x-- {
		for y := 0; y < Height; y++ {
			if img.Pix[y][x] != 0 {
				return x + 1
			}
		}
	}
	return 0
}

// emojiTypeThreshold separates a design change (whole blocks move) from
// a rendering change (per-pixel jitter only). A block redesign flips
// block membership for ~half the band; smoothing changes intensities of
// already-inked pixels only.
const emojiTypeThreshold = Height * EmojiBandWidth / 4

// Subtypes classifies a pixel diff into the Table 3 canvas-dynamics
// subtypes. A single update can exhibit several at once (e.g. Samsung
// 6→7 changes both text width and emoji rendering), so a slice is
// returned; it is empty when the images are identical.
func (d PixelDiff) Subtypes() []Subtype {
	if d.Identical {
		return nil
	}
	var out []Subtype
	if d.WidthDelta != 0 {
		out = append(out, SubtypeTextWidth)
	} else if d.TextChanged > 0 {
		out = append(out, SubtypeTextDetail)
	}
	if d.EmojiChanged >= emojiTypeThreshold {
		out = append(out, SubtypeEmojiType)
	} else if d.EmojiChanged > 0 {
		out = append(out, SubtypeEmojiRendering)
	}
	return out
}

// EmojiOnly reports whether the change is confined to the emoji band,
// the signature of a pure emoji update (the paper: 87.6% of canvas
// dynamics are emoji-caused).
func (d PixelDiff) EmojiOnly() bool {
	return !d.Identical && d.TextChanged == 0 && d.EmojiChanged > 0
}
