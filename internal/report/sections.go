package report

import (
	"fmt"
	"sort"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/correlate"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/inference"
	"fpdyn/internal/stats"
	"fpdyn/internal/stemming"
	"fpdyn/internal/textplot"
	"fpdyn/internal/useragent"
)

// sectionOrder is every section fpreport's -what accepts, in print
// order.
var sectionOrder = []string{"estimate", "fig2", "table1", "fig3", "fig4", "fig5", "fig6", "fig7",
	"table2", "fig8", "table3", "fig12", "insight1", "insight3", "compression", "tradeoff", "stemming"}

// sectionBuilders builds each section's fold. estimate, fig3 and table2
// render what the core accumulators always count; fig8 is static.
var sectionBuilders = map[string]func(*Reporter) fold{
	"estimate":    func(r *Reporter) fold { return fold{render: r.estimate} },
	"fig2":        (*Reporter).fig2,
	"table1":      (*Reporter).table1,
	"fig3":        func(r *Reporter) fold { return fold{render: r.fig3} },
	"fig4":        (*Reporter).fig4,
	"fig5":        (*Reporter).fig5,
	"fig6":        (*Reporter).fig6,
	"fig7":        (*Reporter).fig7,
	"table2":      func(r *Reporter) fold { return fold{render: r.table2} },
	"fig8":        func(r *Reporter) fold { return fold{render: r.fig8} },
	"table3":      (*Reporter).table3,
	"fig12":       (*Reporter).fig12,
	"insight1":    (*Reporter).insight1,
	"insight3":    (*Reporter).insight3,
	"compression": (*Reporter).compression,
	"tradeoff":    (*Reporter).tradeoff,
	"stemming":    (*Reporter).stemming,
}

// Sections returns every section name NewStream accepts, in print
// order.
func Sections() []string { return append([]string(nil), sectionOrder...) }

// Estimate prints the §2.3.3 browser-ID error estimation.
func (r *Reporter) Estimate() { r.Render("estimate") }

// Table2 prints the classification of fingerprint dynamics.
func (r *Reporter) Table2() { r.Render("table2") }

func (r *Reporter) estimate() {
	e := r.est.Rates()
	fmt.Fprintln(r.w, "§2.3.3 browser-ID error estimation")
	fmt.Fprintf(r.w, "  abnormal shared-cookie rate: %.3f%% (paper: ~0.5%%)\n", 100*e.AbnormalSharedCookieRate)
	fmt.Fprintf(r.w, "  cookie-clearing share:       %.1f%%  (paper: ~32%%)\n", 100*e.CookieClearingShare)
	fmt.Fprintf(r.w, "  estimated false negatives:   %.3f%% (paper: ~0.3%%)\n", 100*e.FalseNegativeRate)
	fmt.Fprintf(r.w, "  estimated false positives:   %.3f%% (paper: ~0.1%%)\n", 100*e.FalsePositiveRate)
	fmt.Fprintf(r.w, "  multi-browser users:         %.1f%%  (paper: 14%%+)\n", 100*r.est.MultiBrowserUserShare())
}

// fig2 prints the identifiability-vs-anonymous-set-size table.
func (r *Reporter) fig2() fold {
	all := stats.NewAnonymityAccumulator()
	splits := []struct {
		name string
		keep func(*fingerprint.Record) bool
		acc  *stats.AnonymityAccumulator
	}{
		{"desktop", func(rec *fingerprint.Record) bool { return !rec.Mobile }, stats.NewAnonymityAccumulator()},
		{"mobile", func(rec *fingerprint.Record) bool { return rec.Mobile }, stats.NewAnonymityAccumulator()},
		{"Firefox Mobile", func(rec *fingerprint.Record) bool { return rec.Browser == useragent.FirefoxMobile }, stats.NewAnonymityAccumulator()},
		{"Mobile Safari", func(rec *fingerprint.Record) bool { return rec.Browser == useragent.MobileSafari }, stats.NewAnonymityAccumulator()},
	}
	record := func(in *instance, rec *fingerprint.Record) {
		h := rec.FP.Hash(true)
		all.Add(in.ord, h)
		for _, s := range splits {
			if s.keep(rec) {
				s.acc.Add(in.ord, h)
			}
		}
	}
	render := func() {
		curve := all.Curve(10)
		fmt.Fprintln(r.w, "Figure 2: % identifiable fingerprints vs anonymous-set size (with IP features)")
		rows := [][]string{{"set size ≤", "overall"}}
		curves := make([]stats.AnonymityCurve, len(splits))
		for i, s := range splits {
			curves[i] = s.acc.Curve(10)
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
	}
	return fold{record: record, render: render}
}

// table1 prints the per-feature distinct/unique statistics.
func (r *Reporter) table1() fold {
	acc := stats.NewFeatureAccumulator()
	render := func() {
		out := [][]string{{"Feature", "Distinct #", "Unique #", "Dyn Distinct #", "Dyn Unique #"}}
		for _, row := range acc.Rows() {
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
	}
	return fold{
		record: func(_ *instance, rec *fingerprint.Record) { acc.AddRecord(rec.FP) },
		pair:   func(d *dynamics.Dynamics) { acc.AddDelta(d.Delta) },
		render: render,
	}
}

// fig3 prints the identifier breakdowns, which the core estimate
// accumulator already counts. Each histogram's total is computed once
// and the per-bucket shares read through the cached-sum path
// (Histogram.ShareOf).
func (r *Reporter) fig3() {
	users, cookies := r.est.IdentifierCounts()
	perUser, perBrowser := stats.Histogram(users), stats.Histogram(cookies)
	userTotal := perUser.Total()
	browserTotal := perBrowser.Total()
	fmt.Fprintln(r.w, "Figure 3: identifier breakdowns")
	one, two := perUser.ShareOf(1, userTotal), perUser.ShareOf(2, userTotal)
	fmt.Fprintf(r.w, "  # browser IDs per user ID:  1: %.1f%%  2: %.1f%%  3+: %.1f%%  (paper: 86%% have one)\n",
		100*one, 100*two, 100*(1-one-two))
	multi := 1 - perBrowser.ShareOf(0, browserTotal) - perBrowser.ShareOf(1, browserTotal)
	fmt.Fprintf(r.w, "  # cookies per browser ID:   1: %.1f%%  >1: %.1f%%  (paper: 32%% have more than one)\n",
		100*perBrowser.ShareOf(1, browserTotal), 100*multi)
}

// fig4 prints the weekly first-time/returning visit series.
func (r *Reporter) fig4() fold {
	acc := stats.NewVisitAccumulator(7 * 24 * time.Hour)
	render := func() {
		series := acc.Series()
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
	}
	return fold{
		record: func(in *instance, rec *fingerprint.Record) { acc.Add(rec.Time, in.visits == 1) },
		render: render,
	}
}

// typeFold counts instances by their first record's browser and OS
// family (Figures 5 and 6) and renders one of the two maps.
func (r *Reporter) typeFold(title string, pick func(*stats.TypeBreakdown) map[string]int) fold {
	var acc stats.TypeBreakdown
	return fold{
		instance: func(in *instance) { acc.Add(in.first) },
		render:   func() { textplot.BarMap(r.w, title, pick(&acc), 46) },
	}
}

// fig5 prints the browser-type breakdown.
func (r *Reporter) fig5() fold {
	return r.typeFold("Figure 5: browser instances by browser type",
		func(t *stats.TypeBreakdown) map[string]int { return t.ByBrowser })
}

// fig6 prints the OS-type breakdown.
func (r *Reporter) fig6() fold {
	return r.typeFold("Figure 6: browser instances by OS type",
		func(t *stats.TypeBreakdown) map[string]int { return t.ByOS })
}

// fig7 prints fingerprint stability by visit count.
func (r *Reporter) fig7() fold {
	cells := stats.StabilityBreakdown{}
	render := func() {
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
	}
	return fold{
		instance: func(in *instance) { cells.Add(in.visits, in.changes, 12) },
		render:   render,
	}
}

func (r *Reporter) table2() {
	b := r.breakdown
	fmt.Fprintln(r.w, "Table 2: classification of fingerprint dynamics")
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
	textplot.Table(r.w, rows)
	if b.Unclassified > 0 {
		fmt.Fprintf(r.w, "(unclassified: %d of %d)\n", b.Unclassified, b.TotalChanged)
	}
}

// fig8 renders the Samsung 6.2 emoji update and its pixel diff.
func (r *Reporter) fig8() {
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
}

// table3 prints update-correlated features.
func (r *Reporter) table3() fold {
	acc := correlate.NewUpdateAccumulator(r.cl)
	render := func() {
		fmt.Fprintln(r.w, "Table 3: feature correlations with browser/OS updates")
		out := [][]string{{"Update", "Platform", "Correlated feature", "Count"}}
		for i, row := range acc.Rows() {
			if i == 25 {
				break
			}
			out = append(out, []string{row.Update, row.Platform, row.Feature, fmt.Sprintf("%d", row.Count)})
		}
		textplot.Table(r.w, out)
	}
	return fold{
		changed: func(d *dynamics.Dynamics, _ dynamics.Classification) { acc.Add(d) },
		render:  render,
	}
}

// fig12 prints adoption curves for the marked releases.
func (r *Reporter) fig12() fold {
	week := 7 * 24 * time.Hour
	curves := []struct {
		family  string
		major   int
		release time.Time
		acc     *correlate.AdoptionAccumulator
	}{
		{family: useragent.Chrome, major: 64, release: time.Date(2018, 1, 24, 0, 0, 0, 0, time.UTC)},
		{family: useragent.Chrome, major: 65, release: time.Date(2018, 3, 6, 0, 0, 0, 0, time.UTC)},
		{family: useragent.Chrome, major: 66, release: time.Date(2018, 4, 17, 0, 0, 0, 0, time.UTC)},
		{family: useragent.Firefox, major: 58, release: time.Date(2018, 1, 23, 0, 0, 0, 0, time.UTC)},
		{family: useragent.Firefox, major: 59, release: time.Date(2018, 3, 13, 0, 0, 0, 0, time.UTC)},
		{family: useragent.Firefox, major: 60, release: time.Date(2018, 5, 9, 0, 0, 0, 0, time.UTC)},
	}
	for i := range curves {
		curves[i].acc = correlate.NewAdoptionAccumulator(curves[i].family, curves[i].major, r.src.start, r.src.end, week)
	}
	changed := func(d *dynamics.Dynamics, _ dynamics.Classification) {
		for _, c := range curves {
			c.acc.Add(d)
		}
	}
	render := func() {
		fmt.Fprintln(r.w, "Figure 12: % of instances with update dynamics per week")
		for _, c := range curves {
			series := c.acc.Series(r.est.NumInstances())
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
	}
	return fold{changed: changed, render: render}
}

// insight1 prints the privacy-leak analyses.
func (r *Reporter) insight1() fold {
	var emoji inference.EmojiLeakReport
	var sw inference.SoftwareReport
	patch := inference.NewPatchAccumulator()
	gpu := inference.NewGPUAccumulator()
	vel := inference.NewVelocityAccumulator(r.src.geo)
	return fold{
		record: func(_ *instance, rec *fingerprint.Record) { gpu.Add(rec) },
		pair:   func(d *dynamics.Dynamics) { vel.Add(d.BrowserID, d.From, d.To) },
		changed: func(d *dynamics.Dynamics, c dynamics.Classification) {
			emoji.Add(d, c)
			patch.AddDynamics(d, c)
			sw.AddDynamics(d)
		},
		instance: func(in *instance) {
			patch.AddLatest(in.last)
			sw.AddLatest(in.last.FP)
		},
		render: func() {
			r.renderInsight1(emoji, patch.Report(), sw, gpu.Report(r.src.gpu), vel.Report())
		},
	}
}

func (r *Reporter) renderInsight1(rep inference.EmojiLeakReport, patch inference.PatchReport,
	sw inference.SoftwareReport, gpu inference.GPUReport, vel inference.VelocityReport) {
	fmt.Fprintln(r.w, "Insight 1.1: emoji leaks (canvas changes revealing co-installed software updates)")
	fams := make([]string, 0, len(rep.LeakingDynamics))
	for fam := range rep.LeakingDynamics {
		fams = append(fams, fam)
	}
	// Descending leaking-dynamics count, ties by name (textplot.BarMap's order).
	sort.Slice(fams, func(i, j int) bool {
		if a, b := rep.LeakingDynamics[fams[i]], rep.LeakingDynamics[fams[j]]; a != b {
			return a > b
		}
		return fams[i] < fams[j]
	})
	for _, fam := range fams {
		fmt.Fprintf(r.w, "  %-18s %d leaking dynamics, %d instances\n", fam, rep.LeakingDynamics[fam], rep.LeakingInstances[fam])
	}
	if patch.UpdateObserved > 0 {
		fmt.Fprintf(r.w, "  Windows 7 emoji patch: %d transitions observed (paper: 9); %d instances still unpatched (paper: 6,968)\n",
			patch.UpdateObserved, patch.UnpatchedInstances)
	}

	fmt.Fprintln(r.w, "Insight 1.2: software inference from fonts")
	fmt.Fprintf(r.w, "  Office update (MT Extra added):   %d instances (paper: 1,199)\n", sw.OfficeUpdateInstances)
	fmt.Fprintf(r.w, "  Office install observed:          %d dynamics (paper: 7)\n", sw.OfficeInstallDynamics)
	fmt.Fprintf(r.w, "  Office installed (static fonts):  %d instances (paper: 50,869)\n", sw.OfficeInstalledInstances)
	fmt.Fprintf(r.w, "  Adobe/Libre/WPS installs:         %d / %d / %d instances\n",
		sw.AdobeInstances, sw.LibreInstances, sw.WPSInstances)

	fmt.Fprintln(r.w, "Insight 1.3: GPU image → renderer inference")
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
	fmt.Fprintf(r.w, "  movement pairs: %d (slow <150km/h: %d, 150–2000: %d, impossible >2000: %d)\n",
		vel.Pairs, vel.Slow, vel.Mid, vel.Impossible)
	fmt.Fprintf(r.w, "  VPN/proxy instances: %d (paper: 2,916)\n", len(vel.VPNInstances))
	for i, c := range vel.Cases {
		if i == 3 {
			break
		}
		fmt.Fprintf(r.w, "    case: %s → %s in %s (%.0f km/h)\n", c.FromCity, c.ToCity, c.Gap, c.SpeedKmh)
	}
}

// insight3 prints the implicit dynamics correlations.
func (r *Reporter) insight3() fold {
	acc := correlate.NewImplicitAccumulator()
	render := func() {
		fmt.Fprintln(r.w, "Insight 3: implicit dynamics correlations (top by lift, ≥3 joint)")
		for i, c := range acc.Correlations(3) {
			if i == 12 {
				break
			}
			fmt.Fprintf(r.w, "  %-52s together=%d lift=%.1f\n", c.Label(), c.Together, c.Lift)
		}
	}
	return fold{
		changed: func(d *dynamics.Dynamics, _ dynamics.Classification) { acc.Add(d) },
		render:  render,
	}
}

// compression prints the §2.3 delta-vs-pair ablation.
func (r *Reporter) compression() fold {
	acc := stats.NewCompressionAccumulator()
	render := func() {
		pairs, deltas, ratio := acc.Result()
		fmt.Fprintf(r.w, "§2.3 delta ablation: %d distinct fingerprint pairs vs %d distinct deltas (%.2fx compression)\n",
			pairs, deltas, ratio)
	}
	return fold{
		changed: func(d *dynamics.Dynamics, _ dynamics.Classification) { acc.Add(d) },
		render:  render,
	}
}

// tradeoff prints the uniqueness/linkability frontier.
func (r *Reporter) tradeoff() fold {
	acc := stats.NewTradeoffAccumulator()
	render := func() {
		fmt.Fprintln(r.w, "Future work: uniqueness (entropy) vs linkability (stability) per feature")
		out := [][]string{{"Feature", "Entropy (bits)", "Instability (% of dynamics)", "Utility"}}
		for _, row := range acc.Rows() {
			out = append(out, []string{
				row.Name,
				fmt.Sprintf("%.2f", row.EntropyBits),
				fmt.Sprintf("%.1f%%", row.InstabilityPct),
				fmt.Sprintf("%.2f", row.Utility),
			})
		}
		textplot.Table(r.w, out)
	}
	return fold{
		changed:  func(d *dynamics.Dynamics, _ dynamics.Classification) { acc.AddChanged(d) },
		instance: func(in *instance) { acc.AddFirst(in.first.FP) },
		render:   render,
	}
}

// stemming prints the §6.1 feature-stemming comparison.
func (r *Reporter) stemming() fold {
	var gain stemming.GainAccumulator
	raw, stemmed := stats.NewAnonymityAccumulator(), stats.NewAnonymityAccumulator()
	record := func(in *instance, rec *fingerprint.Record) {
		raw.Add(in.ord, rec.FP.Hash(false))
		stemmed.Add(in.ord, stemming.Stem(rec.FP).Hash(false))
	}
	render := func() {
		fmt.Fprintln(r.w, "§6.1 feature-stemming baseline (Pugliese et al.)")
		if pairs := gain.Pairs; pairs > 0 {
			fmt.Fprintf(r.w, "  consecutive pairs changed: raw %d/%d (%.1f%%), stemmed %d/%d (%.1f%%)\n",
				gain.RawChanged, pairs, 100*float64(gain.RawChanged)/float64(pairs),
				gain.StemChanged, pairs, 100*float64(gain.StemChanged)/float64(pairs))
		}
		fmt.Fprintf(r.w, "  identifiable at anonymous-set size 1: raw %.1f%%, stemmed %.1f%%\n",
			raw.Curve(1).PctIdentifiable[0], stemmed.Curve(1).PctIdentifiable[0])
		fmt.Fprintln(r.w, "  (stability improves but uniqueness drops — the paper's trade-off critique)")
	}
	return fold{
		record: record,
		pair:   func(d *dynamics.Dynamics) { gain.Add(d.From.FP, d.To.FP) },
		render: render,
	}
}
