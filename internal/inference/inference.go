// Package inference implements the paper's Insight 1 analyses: what
// privacy- and security-relevant facts leak from fingerprints and
// especially from their dynamics —
//
//   - emoji changes in one browser's canvas reveal updates of other
//     software on the device (a co-installed Samsung Browser, a Windows
//     security rollup) — Insight 1.1;
//   - font list contents and changes reveal installations and updates
//     of Microsoft Office, Adobe software, LibreOffice and WPS —
//     Insight 1.2;
//   - GPU image rendering maps back to masked GPU renderer/vendor
//     identities — Insight 1.3;
//   - impossible travel velocities between consecutive IPs reveal VPN
//     or proxy use — Insight 1.4.
package inference

import (
	"fpdyn/internal/canvas"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
)

// EmojiLeakReport counts dynamics whose canvas change is confined to
// the emoji band without an accompanying browser/OS update — the
// signature of another program updating the device's emoji assets. The
// zero value is an empty report; Add accumulates into it.
type EmojiLeakReport struct {
	// LeakingDynamics counts emoji-only canvas changes not explained by
	// a browser or OS update, keyed by the observing browser family.
	LeakingDynamics map[string]int
	// LeakingInstances counts distinct affected browser IDs per family.
	LeakingInstances map[string]int

	seen map[[2]string]bool // (family, browser ID) pairs counted
}

// Add feeds one dynamics with its classification; the classifier must
// have image access for subtype resolution.
func (r *EmojiLeakReport) Add(d *dynamics.Dynamics, c dynamics.Classification) {
	if !d.Delta.Has(fingerprint.FeatCanvas) || !c.Has(dynamics.CauseCanvasEmoji) {
		return
	}
	if r.seen == nil {
		r.LeakingDynamics, r.LeakingInstances, r.seen = map[string]int{}, map[string]int{}, map[[2]string]bool{}
	}
	fam := d.To.Browser
	r.LeakingDynamics[fam]++
	if key := [2]string{fam, d.BrowserID}; !r.seen[key] {
		r.seen[key] = true
		r.LeakingInstances[fam]++
	}
}

// SoftwareReport is the Insight 1.2 font-inference result. The zero
// value is an empty report; AddDynamics and AddLatest accumulate into
// it.
type SoftwareReport struct {
	// OfficeUpdateInstances had the "MT Extra" font added by a dynamics
	// (the January-2018 Office update signature).
	OfficeUpdateInstances int
	// OfficeInstallDynamics observed the bulk Office font set appear.
	OfficeInstallDynamics int
	// OfficeInstalledInstances carry the Office font signature
	// statically (the paper: 50,869 instances).
	OfficeInstalledInstances int
	// AdobeInstances / LibreInstances / WPSInstances observed the
	// corresponding install signature in dynamics.
	AdobeInstances int
	LibreInstances int
	WPSInstances   int

	seen map[[2]string]bool // (signature, browser ID) pairs counted
}

// overlapCount counts how many of sig appear in add.
func overlapCount(add []string, sig []string) int {
	set := make(map[string]bool, len(sig))
	for _, f := range sig {
		set[f] = true
	}
	n := 0
	for _, f := range add {
		if set[f] {
			n++
		}
	}
	return n
}

// AddDynamics runs the install/update signatures over one dynamics.
func (r *SoftwareReport) AddDynamics(d *dynamics.Dynamics) {
	fd := d.Delta.Field(fingerprint.FeatFontList)
	if fd == nil {
		return
	}
	// instance counts each (signature, instance) pair once.
	instance := func(sig string, n *int) {
		if r.seen == nil {
			r.seen = map[[2]string]bool{}
		}
		if key := [2]string{sig, d.BrowserID}; !r.seen[key] {
			r.seen[key] = true
			*n++
		}
	}
	switch {
	case len(fd.Added) == 1 && fd.Added[0] == fontdb.MTExtra:
		instance("office", &r.OfficeUpdateInstances)
	case overlapCount(fd.Added, fontdb.OfficeDetect) >= len(fontdb.OfficeDetect)/2:
		r.OfficeInstallDynamics++
	case overlapCount(fd.Added, fontdb.Adobe) >= len(fontdb.Adobe)/2:
		instance("adobe", &r.AdobeInstances)
	case overlapCount(fd.Added, fontdb.LibreOffice) >= len(fontdb.LibreOffice)/2:
		instance("libre", &r.LibreInstances)
	case overlapCount(fd.Added, fontdb.WPS) >= len(fontdb.WPS)/2:
		instance("wps", &r.WPSInstances)
	}
}

// AddLatest runs the static Office detection over one instance's latest
// fingerprint.
func (r *SoftwareReport) AddLatest(fp *fingerprint.Fingerprint) {
	if overlapCount(fp.Fonts, fontdb.OfficeDetect) >= 9*len(fontdb.OfficeDetect)/10 {
		r.OfficeInstalledInstances++
	}
}

// GPUReport is the Insight 1.3 result: how precisely GPU images map
// back to renderers.
type GPUReport struct {
	DistinctImages int
	// UniqueShare is the fraction of distinct GPU images that map to
	// exactly one renderer (paper: 32% for Firefox images).
	UniqueShare float64
	// WithinThreeShare maps to at most three renderers (paper: 38%).
	WithinThreeShare float64
	// VendorAccuracy is, per GPU vendor, the fraction of that vendor's
	// images mapping to a single renderer — high for dedicated GPUs
	// (NVIDIA/Mali/PowerVR), low for integrated (Intel/AMD).
	VendorAccuracy map[string]float64
}

// GPUAccumulator builds the image→renderer candidate mapping from
// observed records.
type GPUAccumulator struct {
	imageRenderers map[string]map[string]bool
}

// NewGPUAccumulator returns an empty accumulator.
func NewGPUAccumulator() *GPUAccumulator {
	return &GPUAccumulator{imageRenderers: map[string]map[string]bool{}}
}

// Add feeds one record.
func (a *GPUAccumulator) Add(r *fingerprint.Record) {
	h := r.FP.GPUImageHash
	if h == "" {
		return
	}
	set := a.imageRenderers[h]
	if set == nil {
		set = map[string]bool{}
		a.imageRenderers[h] = set
	}
	set[r.FP.GPURenderer] = true
}

// Report scores the mapping's precision. truth maps each GPU image hash
// to the GPU that rendered it (the simulator ground truth standing in
// for the paper's correlation across browsers that expose the
// renderer).
func (a *GPUAccumulator) Report(truth map[string]canvas.GPUInfo) GPUReport {
	rep := GPUReport{VendorAccuracy: map[string]float64{}}
	rep.DistinctImages = len(a.imageRenderers)
	if rep.DistinctImages == 0 {
		return rep
	}
	unique, within3 := 0, 0
	vendorTotal := map[string]int{}
	vendorUnique := map[string]int{}
	for h, set := range a.imageRenderers {
		if len(set) == 1 {
			unique++
		}
		if len(set) <= 3 {
			within3++
		}
		if gi, ok := truth[h]; ok {
			vendorTotal[gi.Vendor]++
			if len(set) == 1 {
				vendorUnique[gi.Vendor]++
			}
		}
	}
	rep.UniqueShare = float64(unique) / float64(rep.DistinctImages)
	rep.WithinThreeShare = float64(within3) / float64(rep.DistinctImages)
	for v, n := range vendorTotal {
		rep.VendorAccuracy[v] = float64(vendorUnique[v]) / float64(n)
	}
	return rep
}
