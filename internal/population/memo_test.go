package population

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/geoip"
	"fpdyn/internal/useragent"
)

// memoEntries flattens one of the memo's maps into key → entry.
func memoEntries[K comparable](m *sync.Map) map[K]*renderedImage {
	out := make(map[K]*renderedImage)
	m.Range(func(k, v any) bool {
		out[k.(K)] = v.(*renderedImage)
		return true
	})
	return out
}

// checkRenderMemo asserts that every memoized image is exactly what a
// fresh render gives, that the memo holds exactly the images the run's
// records reference, and that the image store shares the memo's images
// instead of holding copies.
func checkRenderMemo(t *testing.T, m *renderMemo, records []*fingerprint.Record, images map[string]*canvas.Image) {
	t.Helper()
	if m == nil {
		t.Fatal("run carries no render memo")
	}
	cv := memoEntries[canvas.Params](&m.canvas)
	gpu := memoEntries[canvas.GPUInfo](&m.gpu)
	memoImg := make(map[*canvas.Image]bool)
	canvasHashes, gpuHashes := make(map[string]bool), make(map[string]bool)
	for p, r := range cv {
		fresh := canvas.Render(p)
		if r.img.Pix != fresh.Pix {
			t.Fatalf("canvas %+v: memoized pixels differ from a fresh render", p)
		}
		if r.hash != fresh.Hash() || r.hash != r.img.Hash() {
			t.Fatalf("canvas %+v: memoized hash %s, want %s", p, r.hash, fresh.Hash())
		}
		memoImg[r.img] = true
		canvasHashes[r.hash] = true
	}
	for g, r := range gpu {
		fresh := canvas.RenderGPU(g)
		if r.img.Pix != fresh.Pix {
			t.Fatalf("GPU %+v: memoized pixels differ from a fresh render", g)
		}
		if r.hash != fresh.Hash() || r.hash != r.img.Hash() {
			t.Fatalf("GPU %+v: memoized hash %s, want %s", g, r.hash, fresh.Hash())
		}
		memoImg[r.img] = true
		gpuHashes[r.hash] = true
	}
	usedCanvas, usedGPU := make(map[string]bool), make(map[string]bool)
	for _, r := range records {
		usedCanvas[r.FP.CanvasHash] = true
		usedGPU[r.FP.GPUImageHash] = true
	}
	if !reflect.DeepEqual(canvasHashes, usedCanvas) {
		t.Fatalf("memo holds %d canvas hashes, records use %d", len(canvasHashes), len(usedCanvas))
	}
	if !reflect.DeepEqual(gpuHashes, usedGPU) {
		t.Fatalf("memo holds %d GPU hashes, records use %d", len(gpuHashes), len(usedGPU))
	}
	for h, img := range images {
		if !memoImg[img] {
			t.Fatalf("image store entry %s is not the memo's image", h)
		}
	}
}

// TestSpillRenderMemoExact checks the memo of in-memory and spilled
// runs at two worker counts: every cached image equals a fresh render
// and hashes to its cached hash, and the memo holds exactly the images
// the records reference.
func TestSpillRenderMemoExact(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := streamTestConfig(workers)
		ds := Simulate(cfg)
		checkRenderMemo(t, ds.renders, ds.Records, ds.CanvasImages)

		sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: 16})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := sd.Load()
		if err != nil {
			t.Fatal(err)
		}
		checkRenderMemo(t, sd.renders, loaded.Records, sd.CanvasImages)
		sd.Close()
	}
}

// TestSpillRenderMemoScope checks the memo's lifetime: each run gets
// its own memo, and in SimulateSpill one memo spans every batch, so it
// ends up with one entry per distinct render input of the whole run —
// the same entries however the users are batched, and the same as the
// in-memory run's.
func TestSpillRenderMemoScope(t *testing.T) {
	cfg := streamTestConfig(2)
	a, b := Simulate(cfg), Simulate(cfg)
	if a.renders == b.renders {
		t.Fatal("two Simulate runs share a render memo")
	}
	wantCanvas := memoEntries[canvas.Params](&a.renders.canvas)
	wantGPU := memoEntries[canvas.GPUInfo](&a.renders.gpu)
	if len(wantCanvas) == 0 || len(wantGPU) == 0 {
		t.Fatal("empty render memo")
	}
	if len(wantCanvas) >= len(a.Records) {
		t.Fatalf("%d canvas entries for %d records: the memo is not deduplicating", len(wantCanvas), len(a.Records))
	}
	var prev *renderMemo
	for _, batch := range []int{7, 1000} {
		sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		if sd.renders == a.renders || sd.renders == b.renders || sd.renders == prev {
			t.Fatalf("batch=%d: SimulateSpill reuses another run's render memo", batch)
		}
		prev = sd.renders
		gotCanvas := memoEntries[canvas.Params](&sd.renders.canvas)
		gotGPU := memoEntries[canvas.GPUInfo](&sd.renders.gpu)
		if !reflect.DeepEqual(gotCanvas, wantCanvas) || !reflect.DeepEqual(gotGPU, wantGPU) {
			t.Fatalf("batch=%d: memo holds %d canvas / %d GPU keys, the in-memory run %d / %d",
				batch, len(gotCanvas), len(gotGPU), len(wantCanvas), len(wantGPU))
		}
		sd.Close()
	}
}

// TestFontMemoFlipsAndAliasing drives two browsers on one device
// through install-flag flips (on and off again) and checks every
// record's fonts against a from-scratch build of the device's font
// list, then that scribbling over one record's fonts leaves every
// other record and the device's next list untouched.
func TestFontMemoFlipsAndAliasing(t *testing.T) {
	cfg := DefaultConfig(1)
	rng := rand.New(rand.NewSource(5))
	geo := geoip.New(cfg.Cities)
	dv := newDevice(rng, cfg, geo)
	dv.office, dv.officeUpd, dv.adobe, dv.libre, dv.wps = false, false, false, false, false
	chrome := newInstance(rng, cfg, 0, "u", dv, useragent.Chrome)
	firefox := newInstance(rng, cfg, 1, "u", dv, useragent.Firefox)
	firefox.version = useragent.V(56) // hides the Firefox 57 fonts
	ds := &Dataset{
		Cfg:          cfg,
		CanvasImages: make(map[string]*canvas.Image),
		GPUImageInfo: make(map[string]canvas.GPUInfo),
		Geo:          geo,
		renders:      new(renderMemo),
	}

	flips := []func(){
		func() {},
		func() { dv.office = true },
		func() { dv.officeUpd = true },
		func() { dv.adobe = true },
		func() { dv.libre = true },
		func() { dv.wps = true },
		func() { dv.office = false }, // the Office-update-only font set
		func() { dv.officeUpd, dv.adobe = false, false },
		func() { dv.libre, dv.wps = false, false },
	}
	var recs []*fingerprint.Record
	var want [][]string
	now := cfg.Start
	for _, flip := range flips {
		flip()
		for visit := 0; visit < 2; visit++ { // the second visit hits the memo
			now = now.Add(time.Hour)
			base := dv.buildFonts()
			recs = append(recs, chrome.render(now, visitState{vpnCity: -1}, ds))
			want = append(want, base)
			recs = append(recs, firefox.render(now, visitState{vpnCity: -1}, ds))
			want = append(want, fingerprint.RemoveFonts(base, fontdb.Firefox57))
		}
	}
	for i, r := range recs {
		if !reflect.DeepEqual(r.FP.Fonts, want[i]) {
			t.Fatalf("record %d: fonts\n%v\nwant\n%v", i, r.FP.Fonts, want[i])
		}
	}
	if reflect.DeepEqual(want[0], want[4]) { // four records per flip
		t.Fatal("office flip did not change the font list")
	}

	for i, r := range recs {
		for k := range r.FP.Fonts {
			r.FP.Fonts[k] = "scribbled"
		}
		r.FP.Fonts = append(r.FP.Fonts, "appended")
		for j := i + 1; j < len(recs); j++ {
			if !reflect.DeepEqual(recs[j].FP.Fonts, want[j]) {
				t.Fatalf("writing record %d's fonts changed record %d's", i, j)
			}
		}
	}
	if got := dv.fonts(); !reflect.DeepEqual(got, dv.buildFonts()) {
		t.Fatalf("device fonts changed by writes to records: %v", got)
	}
}
