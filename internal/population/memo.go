package population

import (
	"sync"

	"fpdyn/internal/canvas"
)

// renderMemo caches the canvas and GPU renders of one simulation run.
// Both rasterizers are pure functions of their inputs, and a run sees
// only a few hundred distinct inputs across all its visits, so looking
// the (image, hash) pair up replaces re-rasterizing and re-hashing two
// images per visit. The sharded visit workers share one memo: every
// key is written once and read many times, which is what sync.Map is
// for. A memo lives exactly as long as its Simulate/SimulateSpill call.
//
// Cached images are shared with the datasets' CanvasImages stores, so
// they must never be written to (canvas.Image is immutable once
// rendered).
type renderMemo struct {
	canvas sync.Map // canvas.Params → *renderedImage
	gpu    sync.Map // canvas.GPUInfo → *renderedImage
}

type renderedImage struct {
	img  *canvas.Image
	hash string
}

func newRendered(img *canvas.Image) *renderedImage {
	return &renderedImage{img: img, hash: img.Hash()}
}

// canvasImage returns canvas.Render(p) and its hash.
func (m *renderMemo) canvasImage(p canvas.Params) (*canvas.Image, string) {
	v, ok := m.canvas.Load(p)
	if !ok {
		v, _ = m.canvas.LoadOrStore(p, newRendered(canvas.Render(p)))
	}
	r := v.(*renderedImage)
	return r.img, r.hash
}

// gpuImage returns canvas.RenderGPU(g) and its hash.
func (m *renderMemo) gpuImage(g canvas.GPUInfo) (*canvas.Image, string) {
	v, ok := m.gpu.Load(g)
	if !ok {
		v, _ = m.gpu.LoadOrStore(g, newRendered(canvas.RenderGPU(g)))
	}
	r := v.(*renderedImage)
	return r.img, r.hash
}
