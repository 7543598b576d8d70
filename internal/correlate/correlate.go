// Package correlate implements the paper's correlation analyses:
//
//   - Insight 3: implicit correlations between feature *dynamics* —
//     features that are unrelated statically but change together
//     (cookie↔localStorage under Chrome's single checkbox, DirectX API
//     level ↔ audio sample rate under Chrome's DirectX audio path);
//   - Table 3: features correlated with specific browser/OS updates
//     (canvas text/emoji subtypes, font list changes, plugin drops);
//   - Insight 4 / Figure 12: the timing correlation between release
//     events and update dynamics, i.e. adoption curves.
package correlate

import (
	"fmt"
	"sort"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/useragent"
)

// canvasDiffSubtypes renders the Table 3 canvas subtype labels for an
// image pair.
func canvasDiffSubtypes(a, b *canvas.Image) []string {
	var out []string
	for _, s := range canvas.Diff(a, b).Subtypes() {
		out = append(out, string(s))
	}
	return out
}

// Correlation is one mined pair of co-changing features.
type Correlation struct {
	A, B     fingerprint.ID
	Together int     // dynamics where both changed
	Lift     float64 // P(A∧B) / (P(A)·P(B)) over changed dynamics
}

// Label renders the pair using schema names.
func (c Correlation) Label() string {
	return fingerprint.Describe(c.A).Name + " ↔ " + fingerprint.Describe(c.B).Name
}

// ImplicitAccumulator counts feature moves and joint moves over the
// core-changed dynamics fed to it, in any order.
type ImplicitAccumulator struct {
	count []int
	joint map[[2]fingerprint.ID]int
	n     int
}

// NewImplicitAccumulator returns an empty accumulator.
func NewImplicitAccumulator() *ImplicitAccumulator {
	return &ImplicitAccumulator{
		count: make([]int, fingerprint.NumFeatures),
		joint: map[[2]fingerprint.ID]int{},
	}
}

// Add feeds one dynamics; those without a core change are skipped. IP
// features are excluded (they co-move with travel trivially).
func (a *ImplicitAccumulator) Add(d *dynamics.Dynamics) {
	if !d.CoreChanged() {
		return
	}
	a.n++
	var core []fingerprint.ID
	for _, id := range d.Delta.FeatureIDs() {
		if fingerprint.Describe(id).IsIP {
			continue
		}
		core = append(core, id)
		a.count[id]++
	}
	for i := 0; i < len(core); i++ {
		for j := i + 1; j < len(core); j++ {
			a.joint[[2]fingerprint.ID{core[i], core[j]}]++
		}
	}
}

// Correlations mines pairwise dynamics correlations following the
// paper's §4 methodology: rank feature pairs that appear together in
// dynamics and keep those whose joint appearance is disproportionate to
// their separate appearances. Pairs must co-occur at least minTogether
// times. Results are sorted by descending lift, then joint count.
func (a *ImplicitAccumulator) Correlations(minTogether int) []Correlation {
	count, n := a.count, a.n
	if n == 0 {
		return nil
	}
	var out []Correlation
	for pair, together := range a.joint {
		if together < minTogether {
			continue
		}
		a, b := pair[0], pair[1]
		lift := float64(together) * float64(n) / (float64(count[a]) * float64(count[b]))
		out = append(out, Correlation{A: a, B: b, Together: together, Lift: lift})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		if out[i].Together != out[j].Together {
			return out[i].Together > out[j].Together
		}
		return out[i].A < out[j].A || (out[i].A == out[j].A && out[i].B < out[j].B)
	})
	return out
}

// UpdateCorrelation is one Table 3 row: a specific update and a
// correlated feature change.
type UpdateCorrelation struct {
	Update   string // e.g. "Chrome 63→64" or "iOS 11.2→11.3"
	Platform string // OS family the update was observed on
	Feature  string // e.g. "C: text detail", "F: +27 fonts", "P: -1 plugin"
	Count    int
}

// UpdateAccumulator aggregates, per observed browser/OS update, the
// co-changing canvas/font/plugin features — Table 3. The classifier
// provides canvas subtype resolution via its image store.
type UpdateAccumulator struct {
	cl     *dynamics.Classifier
	counts map[UpdateCorrelation]int
}

// NewUpdateAccumulator returns an empty accumulator.
func NewUpdateAccumulator(cl *dynamics.Classifier) *UpdateAccumulator {
	return &UpdateAccumulator{cl: cl, counts: map[UpdateCorrelation]int{}}
}

// Add feeds one dynamics; those without a same-browser, same-OS
// version step are skipped.
func (a *UpdateAccumulator) Add(d *dynamics.Dynamics) {
	if !d.Delta.Has(fingerprint.FeatUserAgent) {
		return
	}
	from, err1 := useragent.CachedParse(d.From.FP.UserAgent)
	to, err2 := useragent.CachedParse(d.To.FP.UserAgent)
	if err1 != nil || err2 != nil || from.Browser != to.Browser || from.OS != to.OS {
		return
	}
	var update string
	switch {
	case to.BrowserVersion.Compare(from.BrowserVersion) > 0:
		if to.BrowserVersion.Major == from.BrowserVersion.Major {
			update = fmt.Sprintf("%s %s→%s", to.Browser, from.BrowserVersion, to.BrowserVersion)
		} else {
			update = fmt.Sprintf("%s %d→%d", to.Browser, from.BrowserVersion.Major, to.BrowserVersion.Major)
		}
	case to.OSVersion.Compare(from.OSVersion) > 0:
		update = fmt.Sprintf("%s %s→%s", to.OS, from.OSVersion, to.OSVersion)
	default:
		return
	}
	for _, feat := range correlatedFeatures(d, a.cl) {
		a.counts[UpdateCorrelation{Update: update, Platform: to.OS, Feature: feat}]++
	}
}

// Rows returns the Table 3 rows by descending count.
func (a *UpdateAccumulator) Rows() []UpdateCorrelation {
	out := make([]UpdateCorrelation, 0, len(a.counts))
	for k, n := range a.counts {
		k.Count = n
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Update != out[j].Update {
			return out[i].Update < out[j].Update
		}
		if out[i].Feature != out[j].Feature {
			return out[i].Feature < out[j].Feature
		}
		return out[i].Platform < out[j].Platform
	})
	return out
}

// correlatedFeatures renders the Table 3 feature descriptors for one
// update's delta.
func correlatedFeatures(d *dynamics.Dynamics, cl *dynamics.Classifier) []string {
	var out []string
	if fd := d.Delta.Field(fingerprint.FeatCanvas); fd != nil {
		out = append(out, "C: "+canvasSubtypeLabel(fd.OldHash, fd.NewHash, cl))
	}
	if fd := d.Delta.Field(fingerprint.FeatFontList); fd != nil {
		switch {
		case len(fd.Added) > 0 && len(fd.Deleted) > 0:
			out = append(out, "F: remove/add fonts")
		case len(fd.Added) > 0:
			out = append(out, fmt.Sprintf("F: add %d fonts", len(fd.Added)))
		default:
			out = append(out, fmt.Sprintf("F: remove %d fonts", len(fd.Deleted)))
		}
	}
	if fd := d.Delta.Field(fingerprint.FeatPlugins); fd != nil {
		if len(fd.Deleted) > 0 && len(fd.Added) == 0 {
			out = append(out, fmt.Sprintf("P: remove %d plugin(s)", len(fd.Deleted)))
		} else {
			out = append(out, "P: plugin change")
		}
	}
	if d.Delta.Has(fingerprint.FeatGPUType) {
		out = append(out, "G: GPU API level change")
	}
	return out
}

func canvasSubtypeLabel(oldHash, newHash string, cl *dynamics.Classifier) string {
	if cl == nil || cl.Images == nil {
		return "canvas change"
	}
	a, okA := cl.Images.Image(oldHash)
	b, okB := cl.Images.Image(newHash)
	if !okA || !okB {
		return "canvas change"
	}
	subs := canvasDiffSubtypes(a, b)
	if len(subs) == 0 {
		return "canvas change"
	}
	s := subs[0]
	for _, more := range subs[1:] {
		s += " and " + more
	}
	return s
}

// AdoptionPoint is one Figure 12 sample: the share of all instances
// whose dynamics in this bucket updated the browser to the target
// version.
type AdoptionPoint struct {
	Start time.Time
	Pct   float64
	Count int
}

// AdoptionAccumulator computes a Figure 12 curve: bucketed counts of
// update-to-target dynamics for one browser family.
type AdoptionAccumulator struct {
	family      string
	targetMajor int
	start       time.Time
	bucket      time.Duration
	series      []AdoptionPoint
}

// NewAdoptionAccumulator returns an empty curve over [start, end).
func NewAdoptionAccumulator(family string, targetMajor int, start, end time.Time, bucket time.Duration) *AdoptionAccumulator {
	a := &AdoptionAccumulator{family: family, targetMajor: targetMajor, start: start, bucket: bucket}
	for t := start; t.Before(end); t = t.Add(bucket) {
		a.series = append(a.series, AdoptionPoint{Start: t})
	}
	return a
}

// Add feeds one dynamics; only updates to the target major version
// within the family count.
func (a *AdoptionAccumulator) Add(d *dynamics.Dynamics) {
	if !d.Delta.Has(fingerprint.FeatUserAgent) {
		return
	}
	from, err1 := useragent.CachedParse(d.From.FP.UserAgent)
	to, err2 := useragent.CachedParse(d.To.FP.UserAgent)
	if err1 != nil || err2 != nil {
		return
	}
	if to.Browser != a.family || from.Browser != a.family {
		return
	}
	if to.BrowserVersion.Major != a.targetMajor || from.BrowserVersion.Major >= a.targetMajor {
		return
	}
	i := int(d.To.Time.Sub(a.start) / a.bucket)
	if i >= 0 && i < len(a.series) {
		a.series[i].Count++
	}
}

// Series returns the curve as a percentage of totalInstances.
func (a *AdoptionAccumulator) Series(totalInstances int) []AdoptionPoint {
	if totalInstances > 0 {
		for i := range a.series {
			a.series[i].Pct = 100 * float64(a.series[i].Count) / float64(totalInstances)
		}
	}
	return a.series
}
