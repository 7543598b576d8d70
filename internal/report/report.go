// Package report renders every table and figure of the paper's
// evaluation to an io.Writer. cmd/fpreport is a thin flag wrapper over
// this package; keeping the rendering here makes each artifact
// regenerable (and testable) programmatically:
//
//	r := report.New(ds, os.Stdout)
//	r.Table2()
//	r.Fig12()
package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/canvas"
	"fpdyn/internal/correlate"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/inference"
	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/stats"
	"fpdyn/internal/stemming"
	"fpdyn/internal/textplot"
	"fpdyn/internal/useragent"
)

// Reporter holds the processed dataset every section draws from.
type Reporter struct {
	w       io.Writer
	ds      *population.Dataset
	gt      *browserid.GroundTruth
	dyns    []*dynamics.Dynamics
	changed []*dynamics.Dynamics
	cl      *dynamics.Classifier
}

// New processes a dataset once (ground truth + dynamics + classifier)
// and returns a Reporter writing to w.
func New(ds *population.Dataset, w io.Writer) *Reporter {
	return NewWorkers(ds, w, 0)
}

// NewWorkers is New with the processing pipeline fanned out over a
// worker pool: ground-truth key hashing, per-instance diff chains and
// the batch classification of every changed dynamics all run on up to
// `workers` goroutines (1 = serial; 0 or negative = NumCPU, via
// parallel.Resolve). The processed state — and therefore every table
// and figure — is identical for every worker count; the batch pass
// also warms the classifier's memo so the report sections reuse
// classifications instead of re-deriving them.
func NewWorkers(ds *population.Dataset, w io.Writer, workers int) *Reporter {
	return NewWorkersTimed(ds, w, workers, nil)
}

// NewWorkersTimed is NewWorkers with per-stage wall-time observability:
// each pipeline stage (ground truth, dynamics, classify) is timed into
// timings with its record count, so cmd/fpreport can emit the
// machine-readable stage-timing JSON alongside BENCH_pipeline.json. A
// nil timings is a no-op.
func NewWorkersTimed(ds *population.Dataset, w io.Writer, workers int, timings *obs.Timings) *Reporter {
	stop := timings.Start("ground_truth")
	gt := browserid.BuildParallel(ds.Records, workers)
	stop(len(ds.Records))

	stop = timings.Start("dynamics")
	dyns := dynamics.GenerateParallel(gt, workers)
	stop(len(dyns))

	changed := dynamics.Changed(dyns)
	cl := &dynamics.Classifier{Images: dynamics.MapImages(ds.CanvasImages)}
	stop = timings.Start("classify")
	cl.ClassifyAll(changed, workers)
	stop(len(changed))
	return &Reporter{
		w:       w,
		ds:      ds,
		gt:      gt,
		dyns:    dyns,
		changed: changed,
		cl:      cl,
	}
}

// GroundTruth exposes the processed ground truth (cmd tools reuse it).
func (r *Reporter) GroundTruth() *browserid.GroundTruth { return r.gt }

// Summary prints the dataset header line.
func (r *Reporter) Summary() {
	renderSummary(r.w, len(r.ds.Records), r.gt.NumInstances(), len(r.gt.UserInstances), len(r.dyns), len(r.changed))
}

// renderSummary is the header line both the in-memory and the streaming
// reporter print — byte-identical given the same counts.
func renderSummary(w io.Writer, records, instances, users, dyns, changed int) {
	fmt.Fprintf(w, "dataset: %d fingerprints, %d browser instances, %d users, %d dynamics (%d changed)\n\n",
		records, instances, users, dyns, changed)
}

// Estimate prints the §2.3.3 browser-ID error estimation.
func (r *Reporter) Estimate() {
	renderEstimate(r.w, r.gt.Estimate(), r.gt.MultiBrowserUserShare())
}

func renderEstimate(w io.Writer, e browserid.Rates, multiShare float64) {
	fmt.Fprintln(w, "§2.3.3 browser-ID error estimation")
	fmt.Fprintf(w, "  abnormal shared-cookie rate: %.3f%% (paper: ~0.5%%)\n", 100*e.AbnormalSharedCookieRate)
	fmt.Fprintf(w, "  cookie-clearing share:       %.1f%%  (paper: ~32%%)\n", 100*e.CookieClearingShare)
	fmt.Fprintf(w, "  estimated false negatives:   %.3f%% (paper: ~0.3%%)\n", 100*e.FalseNegativeRate)
	fmt.Fprintf(w, "  estimated false positives:   %.3f%% (paper: ~0.1%%)\n", 100*e.FalsePositiveRate)
	fmt.Fprintf(w, "  multi-browser users:         %.1f%%  (paper: 14%%+)\n\n", 100*multiShare)
}

// Fig2 prints the identifiability-vs-anonymous-set-size table.
func (r *Reporter) Fig2() {
	inst := func(i int) string { return r.gt.IDs[i] }
	curve := stats.AnonymitySets(r.ds.Records, inst, true, 10)
	fmt.Fprintln(r.w, "Figure 2: % identifiable fingerprints vs anonymous-set size (with IP features)")
	rows := [][]string{{"set size ≤", "overall"}}
	type split struct {
		name string
		keep func(*fingerprint.Record) bool
	}
	splits := []split{
		{"desktop", func(rec *fingerprint.Record) bool { return !rec.Mobile }},
		{"mobile", func(rec *fingerprint.Record) bool { return rec.Mobile }},
		{"Firefox Mobile", func(rec *fingerprint.Record) bool { return rec.Browser == useragent.FirefoxMobile }},
		{"Mobile Safari", func(rec *fingerprint.Record) bool { return rec.Browser == useragent.MobileSafari }},
	}
	curves := make([]stats.AnonymityCurve, len(splits))
	for i, s := range splits {
		idx := stats.Filter(r.ds.Records, s.keep)
		sub := stats.Select(r.ds.Records, idx)
		curves[i] = stats.AnonymitySets(sub, func(j int) string { return r.gt.IDs[idx[j]] }, true, 10)
		rows[0] = append(rows[0], s.name)
	}
	for k := 1; k <= 10; k++ {
		row := []string{fmt.Sprintf("%d", k), fmt.Sprintf("%.1f%%", curve.PctIdentifiable[k-1])}
		for i := range splits {
			row = append(row, fmt.Sprintf("%.1f%%", curves[i].PctIdentifiable[k-1]))
		}
		rows = append(rows, row)
	}
	textplot.Table(r.w, rows)
	fmt.Fprintln(r.w)
}

// Table1 prints the per-feature distinct/unique statistics.
func (r *Reporter) Table1() {
	rows := stats.FeatureTable(r.ds.Records, r.dyns)
	out := [][]string{{"Feature", "Distinct #", "Unique #", "Dyn Distinct #", "Dyn Unique #"}}
	for _, row := range rows {
		name := row.Name
		if !row.IsGroup {
			name = "  " + name
		}
		out = append(out, []string{
			name,
			fmt.Sprintf("%d", row.Distinct), fmt.Sprintf("%d", row.Unique),
			fmt.Sprintf("%d", row.DynDistinct), fmt.Sprintf("%d", row.DynUnique),
		})
	}
	fmt.Fprintln(r.w, "Table 1: static and dynamics value statistics per feature")
	textplot.Table(r.w, out)
	fmt.Fprintln(r.w)
}

// Fig3 prints the identifier breakdowns. Each histogram's total is
// computed once and the per-bucket shares read through the cached-sum
// path (Histogram.ShareOf).
func (r *Reporter) Fig3() {
	perUser, perBrowser := stats.UserBrowserCookie(r.gt)
	userTotal := perUser.Total()
	browserTotal := perBrowser.Total()
	fmt.Fprintln(r.w, "Figure 3: identifier breakdowns")
	one, two := perUser.ShareOf(1, userTotal), perUser.ShareOf(2, userTotal)
	fmt.Fprintf(r.w, "  # browser IDs per user ID:  1: %.1f%%  2: %.1f%%  3+: %.1f%%  (paper: 86%% have one)\n",
		100*one, 100*two, 100*(1-one-two))
	multi := 1 - perBrowser.ShareOf(0, browserTotal) - perBrowser.ShareOf(1, browserTotal)
	fmt.Fprintf(r.w, "  # cookies per browser ID:   1: %.1f%%  >1: %.1f%%  (paper: 32%% have more than one)\n\n",
		100*perBrowser.ShareOf(1, browserTotal), 100*multi)
}

// Fig4 prints the weekly first-time/returning visit series.
func (r *Reporter) Fig4() {
	series := stats.VisitSeries(r.ds.Records, r.gt.IDs, 7*24*time.Hour)
	xs := make([]string, len(series))
	first := make([]float64, len(series))
	ret := make([]float64, len(series))
	for i, b := range series {
		xs[i] = b.Start.Format("01-02")
		first[i] = float64(b.FirstTime)
		ret[i] = float64(b.Returning)
	}
	textplot.Series(r.w, "Figure 4: first-time visits per week", xs, first, 5)
	textplot.Series(r.w, "Figure 4: returning visits per week", xs, ret, 5)
	fmt.Fprintln(r.w)
}

// Fig5 prints the browser-type breakdown; Fig6 the OS-type breakdown.
func (r *Reporter) Fig5() {
	byBrowser, _ := stats.TypeBreakdown(r.gt)
	textplot.BarMap(r.w, "Figure 5: browser instances by browser type", byBrowser, 46)
	fmt.Fprintln(r.w)
}

// Fig6 prints the OS-type breakdown.
func (r *Reporter) Fig6() {
	_, byOS := stats.TypeBreakdown(r.gt)
	textplot.BarMap(r.w, "Figure 6: browser instances by OS type", byOS, 46)
	fmt.Fprintln(r.w)
}

// Fig7 prints fingerprint stability by visit count.
func (r *Reporter) Fig7() {
	cells := stats.StabilityBreakdown(r.gt, 12)
	fmt.Fprintln(r.w, "Figure 7: fingerprint stability by visit count (share of instances with 0 dynamics)")
	rows := [][]string{{"visits", "instances", "stable share"}}
	for v := 2; v <= 12; v++ {
		total := 0
		for cell, n := range cells {
			if cell.Visits == v {
				total += n
			}
		}
		if total == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", v), fmt.Sprintf("%d", total),
			fmt.Sprintf("%.1f%%", 100*stats.StableShareAtVisits(cells, v)),
		})
	}
	textplot.Table(r.w, rows)
	fmt.Fprintln(r.w)
}

// Table2 prints the classification of fingerprint dynamics.
func (r *Reporter) Table2() {
	renderTable2(r.w, dynamics.Analyze(r.changed, r.cl, r.gt.NumInstances()))
}

// renderTable2 renders a Breakdown as Table 2. The streaming reporter
// produces the same Breakdown from its bounded-memory accumulator, so
// both paths print identical bytes.
func renderTable2(w io.Writer, b *dynamics.Breakdown) {
	fmt.Fprintln(w, "Table 2: classification of fingerprint dynamics")
	rows := [][]string{{"Category", "% of Changes", "% of Browser IDs"}}
	subRows := func(byKey, instByKey map[string]int) {
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if byKey[keys[i]] != byKey[keys[j]] {
				return byKey[keys[i]] > byKey[keys[j]]
			}
			return keys[i] < keys[j]
		})
		for _, k := range keys {
			rows = append(rows, []string{
				"  " + k,
				fmt.Sprintf("%.2f%%", b.PctChanges(byKey[k])),
				fmt.Sprintf("%.2f%%", b.PctInstances(instByKey[k])),
			})
		}
	}
	for _, cat := range []dynamics.Category{
		dynamics.CatOSUpdate, dynamics.CatBrowserUpdate,
		dynamics.CatUserAction, dynamics.CatEnvironment,
	} {
		rows = append(rows, []string{
			string(cat),
			fmt.Sprintf("%.2f%%", b.PctChanges(b.PureCategory[cat])),
			fmt.Sprintf("%.2f%%", b.PctInstances(b.CategoryInstances[cat])),
		})
		switch cat {
		case dynamics.CatOSUpdate:
			subRows(b.OSUpdatesByOS, b.OSUpdateInstancesByOS)
		case dynamics.CatBrowserUpdate:
			subRows(b.BrowserUpdatesByFamily, b.BrowserUpdateInstancesByFamily)
		}
		var causes []dynamics.Cause
		for cause := range b.CauseChanges {
			if cause.Category() == cat {
				causes = append(causes, cause)
			}
		}
		sort.Slice(causes, func(i, j int) bool {
			if b.CauseChanges[causes[i]] != b.CauseChanges[causes[j]] {
				return b.CauseChanges[causes[i]] > b.CauseChanges[causes[j]]
			}
			return causes[i] < causes[j]
		})
		for _, cause := range causes {
			if cause == dynamics.CauseOSUpdate || cause == dynamics.CauseBrowserUpdate {
				continue
			}
			rows = append(rows, []string{
				"  " + string(cause),
				fmt.Sprintf("%.2f%%", b.PctChanges(b.CauseChanges[cause])),
				fmt.Sprintf("%.2f%%", b.PctInstances(b.CauseInstances[cause])),
			})
		}
	}
	for _, label := range b.ComboLabels() {
		rows = append(rows, []string{
			label, fmt.Sprintf("%.2f%%", b.PctChanges(b.Combo[label])), "",
		})
	}
	rows = append(rows, []string{
		"Total (instances with ≥1 change)", "100%",
		fmt.Sprintf("%.2f%%", b.PctInstances(b.InstancesWithChange)),
	})
	textplot.Table(w, rows)
	if b.Unclassified > 0 {
		fmt.Fprintf(w, "(unclassified: %d of %d)\n", b.Unclassified, b.TotalChanged)
	}
	fmt.Fprintln(w)
}

// Fig8 renders the Samsung 6.2 emoji update and its pixel diff.
func (r *Reporter) Fig8() {
	fmt.Fprintln(r.w, "Figure 8: Samsung Browser 6.2 emoji update as seen from a co-installed browser")
	before := canvas.Render(canvas.Params{TextEngine: 3, TextWidth: 2, EmojiMajor: 6, EmojiMinor: 0})
	after := canvas.Render(canvas.Params{TextEngine: 3, TextWidth: 2, EmojiMajor: 7, EmojiMinor: 0})
	d := canvas.Diff(before, after)
	fmt.Fprintf(r.w, "  canvas hash before: %s\n", before.Hash())
	fmt.Fprintf(r.w, "  canvas hash after:  %s\n", after.Hash())
	fmt.Fprintf(r.w, "  changed pixels: %d (text band: %d, emoji band: %d)\n",
		d.Changed, d.TextChanged, d.EmojiChanged)
	fmt.Fprintf(r.w, "  subtypes: %v, emoji-only: %v\n", d.Subtypes(), d.EmojiOnly())
	fmt.Fprintln(r.w, "  pixel difference map (right band = emoji glyph):")
	for y := 0; y < canvas.Height; y += 2 {
		fmt.Fprint(r.w, "    ")
		for x := 0; x < canvas.Width; x += 2 {
			if before.Pix[y][x] != after.Pix[y][x] {
				fmt.Fprint(r.w, "X")
			} else {
				fmt.Fprint(r.w, ".")
			}
		}
		fmt.Fprintln(r.w)
	}
	fmt.Fprintln(r.w)
}

// Table3 prints update-correlated features.
func (r *Reporter) Table3() {
	rows := correlate.UpdateCorrelations(r.changed, r.cl)
	fmt.Fprintln(r.w, "Table 3: feature correlations with browser/OS updates")
	out := [][]string{{"Update", "Platform", "Correlated feature", "Count"}}
	limit := 25
	for _, row := range rows {
		if limit == 0 {
			break
		}
		limit--
		out = append(out, []string{row.Update, row.Platform, row.Feature, fmt.Sprintf("%d", row.Count)})
	}
	textplot.Table(r.w, out)
	fmt.Fprintln(r.w)
}

// Fig12 prints adoption curves for the marked releases.
func (r *Reporter) Fig12() {
	fmt.Fprintln(r.w, "Figure 12: % of instances with update dynamics per week")
	week := 7 * 24 * time.Hour
	type curve struct {
		family  string
		major   int
		release time.Time
	}
	curves := []curve{
		{useragent.Chrome, 64, time.Date(2018, 1, 24, 0, 0, 0, 0, time.UTC)},
		{useragent.Chrome, 65, time.Date(2018, 3, 6, 0, 0, 0, 0, time.UTC)},
		{useragent.Chrome, 66, time.Date(2018, 4, 17, 0, 0, 0, 0, time.UTC)},
		{useragent.Firefox, 58, time.Date(2018, 1, 23, 0, 0, 0, 0, time.UTC)},
		{useragent.Firefox, 59, time.Date(2018, 3, 13, 0, 0, 0, 0, time.UTC)},
		{useragent.Firefox, 60, time.Date(2018, 5, 9, 0, 0, 0, 0, time.UTC)},
	}
	for _, c := range curves {
		series := correlate.AdoptionSeries(r.changed, c.family, c.major,
			r.ds.Cfg.Start, r.ds.Cfg.End, week, r.gt.NumInstances())
		xs := make([]string, len(series))
		ys := make([]float64, len(series))
		for i, p := range series {
			xs[i] = p.Start.Format("01-02")
			ys[i] = p.Pct
		}
		textplot.Series(r.w,
			fmt.Sprintf("%s → %d (released %s)", c.family, c.major, c.release.Format("2006-01-02")),
			xs, ys, 4)
	}
	fmt.Fprintln(r.w)
}

// Insight1 prints the privacy-leak analyses.
func (r *Reporter) Insight1() {
	fmt.Fprintln(r.w, "Insight 1.1: emoji leaks (canvas changes revealing co-installed software updates)")
	rep := inference.EmojiLeaks(r.changed, r.cl)
	for fam, n := range rep.LeakingDynamics {
		fmt.Fprintf(r.w, "  %-18s %d leaking dynamics, %d instances\n", fam, n, rep.LeakingInstances[fam])
	}
	patch := inference.UnpatchedWindows7(r.changed, r.cl, r.gt.Instances)
	if patch.UpdateObserved > 0 {
		fmt.Fprintf(r.w, "  Windows 7 emoji patch: %d transitions observed (paper: 9); %d instances still unpatched (paper: 6,968)\n",
			patch.UpdateObserved, patch.UnpatchedInstances)
	}

	fmt.Fprintln(r.w, "Insight 1.2: software inference from fonts")
	latest := map[string]*fingerprint.Fingerprint{}
	for id, recs := range r.gt.Instances {
		latest[id] = recs[len(recs)-1].FP
	}
	sw := inference.SoftwareFromFonts(r.changed, latest)
	fmt.Fprintf(r.w, "  Office update (MT Extra added):   %d instances (paper: 1,199)\n", sw.OfficeUpdateInstances)
	fmt.Fprintf(r.w, "  Office install observed:          %d dynamics (paper: 7)\n", sw.OfficeInstallDynamics)
	fmt.Fprintf(r.w, "  Office installed (static fonts):  %d instances (paper: 50,869)\n", sw.OfficeInstalledInstances)
	fmt.Fprintf(r.w, "  Adobe/Libre/WPS installs:         %d / %d / %d instances\n",
		sw.AdobeInstances, sw.LibreInstances, sw.WPSInstances)

	fmt.Fprintln(r.w, "Insight 1.3: GPU image → renderer inference")
	gpu := inference.GPUInference(r.ds.Records, r.ds.GPUImageInfo)
	fmt.Fprintf(r.w, "  distinct images: %d; unique→renderer: %.0f%% (paper: 32%%); ≤3 renderers: %.0f%% (paper: 38%%)\n",
		gpu.DistinctImages, 100*gpu.UniqueShare, 100*gpu.WithinThreeShare)
	vendors := make([]string, 0, len(gpu.VendorAccuracy))
	for v := range gpu.VendorAccuracy {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)
	for _, v := range vendors {
		fmt.Fprintf(r.w, "    %-28s %.0f%%\n", v, 100*gpu.VendorAccuracy[v])
	}

	fmt.Fprintln(r.w, "Insight 1.4: IP velocity / VPN detection")
	vel := inference.Velocity(r.gt.Instances, r.ds.Geo)
	fmt.Fprintf(r.w, "  movement pairs: %d (slow <150km/h: %d, 150–2000: %d, impossible >2000: %d)\n",
		vel.Pairs, vel.Slow, vel.Mid, vel.Impossible)
	fmt.Fprintf(r.w, "  VPN/proxy instances: %d (paper: 2,916)\n", len(vel.VPNInstances))
	for i, c := range vel.Cases {
		if i == 3 {
			break
		}
		fmt.Fprintf(r.w, "    case: %s → %s in %s (%.0f km/h)\n", c.FromCity, c.ToCity, c.Gap, c.SpeedKmh)
	}
	fmt.Fprintln(r.w)
}

// Insight3 prints the implicit dynamics correlations.
func (r *Reporter) Insight3() {
	fmt.Fprintln(r.w, "Insight 3: implicit dynamics correlations (top by lift, ≥3 joint)")
	cors := correlate.Implicit(r.changed, 3)
	for i, c := range cors {
		if i == 12 {
			break
		}
		fmt.Fprintf(r.w, "  %-52s together=%d lift=%.1f\n", c.Label(), c.Together, c.Lift)
	}
	fmt.Fprintln(r.w)
}

// Compression prints the §2.3 delta-vs-pair ablation.
func (r *Reporter) Compression() {
	pairs, deltas, ratio := stats.DeltaCompression(r.changed)
	fmt.Fprintf(r.w, "§2.3 delta ablation: %d distinct fingerprint pairs vs %d distinct deltas (%.2fx compression)\n\n",
		pairs, deltas, ratio)
}

// Tradeoff prints the uniqueness/linkability frontier.
func (r *Reporter) Tradeoff() {
	rows := stats.UniquenessLinkability(stats.FirstRecords(r.gt.Instances), r.changed)
	fmt.Fprintln(r.w, "Future work: uniqueness (entropy) vs linkability (stability) per feature")
	out := [][]string{{"Feature", "Entropy (bits)", "Instability (% of dynamics)", "Utility"}}
	for _, row := range rows {
		out = append(out, []string{
			row.Name,
			fmt.Sprintf("%.2f", row.EntropyBits),
			fmt.Sprintf("%.1f%%", row.InstabilityPct),
			fmt.Sprintf("%.2f", row.Utility),
		})
	}
	textplot.Table(r.w, out)
	fmt.Fprintln(r.w)
}

// Stemming prints the §6.1 feature-stemming comparison.
func (r *Reporter) Stemming() {
	rawChanged, stemChanged, pairs := stemming.StabilityGain(r.gt.Instances)
	fmt.Fprintln(r.w, "§6.1 feature-stemming baseline (Pugliese et al.)")
	if pairs > 0 {
		fmt.Fprintf(r.w, "  consecutive pairs changed: raw %d/%d (%.1f%%), stemmed %d/%d (%.1f%%)\n",
			rawChanged, pairs, 100*float64(rawChanged)/float64(pairs),
			stemChanged, pairs, 100*float64(stemChanged)/float64(pairs))
	}
	inst := func(i int) string { return r.gt.IDs[i] }
	raw := stats.AnonymitySets(r.ds.Records, inst, false, 1)
	stemmed := make([]*fingerprint.Record, len(r.ds.Records))
	for i, rec := range r.ds.Records {
		cp := *rec
		cp.FP = stemming.Stem(rec.FP)
		stemmed[i] = &cp
	}
	st := stats.AnonymitySets(stemmed, inst, false, 1)
	fmt.Fprintf(r.w, "  identifiable at anonymous-set size 1: raw %.1f%%, stemmed %.1f%%\n",
		raw.PctIdentifiable[0], st.PctIdentifiable[0])
	fmt.Fprintln(r.w, "  (stability improves but uniqueness drops — the paper's trade-off critique)")
	fmt.Fprintln(r.w)
}
