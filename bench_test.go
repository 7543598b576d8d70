package fpdyn

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §3 for the index), plus the
// ablation benches for the design choices called out in DESIGN.md §4.
// Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks measure the *regeneration cost* of each artifact on a
// shared synthetic world; the artifacts themselves are printed by
// cmd/fpreport and cmd/fpstalker.

import (
	"sync"
	"testing"
	"time"

	"fpdyn/internal/browserid"
	"fpdyn/internal/canvas"
	"fpdyn/internal/correlate"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/inference"
	"fpdyn/internal/linker"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/population"
	"fpdyn/internal/stats"
	"fpdyn/internal/useragent"
)

type benchWorld struct {
	ds      *population.Dataset
	gt      *browserid.GroundTruth
	dyns    []*dynamics.Dynamics
	changed []*dynamics.Dynamics
	cl      *dynamics.Classifier
}

var (
	worldOnce sync.Once
	bw        benchWorld
)

func world(b *testing.B) *benchWorld {
	worldOnce.Do(func() {
		cfg := population.DefaultConfig(2500)
		cfg.Seed = 42
		bw.ds = population.Simulate(cfg)
		bw.gt = browserid.Build(bw.ds.Records)
		bw.dyns = dynamics.Generate(bw.gt)
		bw.changed = dynamics.Changed(bw.dyns)
		bw.cl = &dynamics.Classifier{Images: dynamics.MapImages(bw.ds.CanvasImages)}
	})
	return &bw
}

// --- Table/Figure regeneration benches -------------------------------

// BenchmarkFigure2AnonymitySets times the report's Figure 2 fold: one
// AnonymityAccumulator fed each browser instance's records
// contiguously, then the curve up to set size 10.
func BenchmarkFigure2AnonymitySets(b *testing.B) {
	w := world(b)
	groups := make([][]*fingerprint.Record, 0, len(w.gt.Instances))
	for _, recs := range w.gt.Instances {
		groups = append(groups, recs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := stats.NewAnonymityAccumulator()
		for ord, recs := range groups {
			for _, r := range recs {
				acc.Add(ord+1, r.FP.Hash(true))
			}
		}
		acc.Curve(10)
	}
}

func BenchmarkTable1FeatureStats(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := stats.NewFeatureAccumulator()
		for _, r := range w.ds.Records {
			acc.AddRecord(r.FP)
		}
		for _, d := range w.dyns {
			acc.AddDelta(d.Delta)
		}
		acc.Rows()
	}
}

func BenchmarkFigure3IdentifierBreakdown(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.gt.Accumulate().IdentifierCounts()
	}
}

func BenchmarkFigure4VisitSeries(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := stats.NewVisitAccumulator(7 * 24 * time.Hour)
		seen := map[string]bool{}
		for j, r := range w.ds.Records {
			acc.Add(r.Time, !seen[w.gt.IDs[j]])
			seen[w.gt.IDs[j]] = true
		}
		acc.Series()
	}
}

func BenchmarkFigure5And6TypeBreakdown(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var types stats.TypeBreakdown
		for _, recs := range w.gt.Instances {
			types.Add(recs[0])
		}
	}
}

func BenchmarkFigure7Stability(b *testing.B) {
	w := world(b)
	changes := map[string]int{}
	for _, d := range w.changed {
		changes[d.BrowserID]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := stats.StabilityBreakdown{}
		for id, recs := range w.gt.Instances {
			cells.Add(len(recs), changes[id], 12)
		}
	}
}

func BenchmarkTable2Classification(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dynamics.Analyze(w.changed, w.cl, w.gt.NumInstances())
	}
}

func BenchmarkFigure8EmojiPixelDiff(b *testing.B) {
	before := canvas.Render(canvas.Params{TextEngine: 3, TextWidth: 2, EmojiMajor: 6})
	after := canvas.Render(canvas.Params{TextEngine: 3, TextWidth: 2, EmojiMajor: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := canvas.Diff(before, after)
		if !d.EmojiOnly() {
			b.Fatal("figure 8 diff must be emoji-only")
		}
	}
}

// evolvedQuery builds a plausible non-exact query from a known record.
func evolvedQuery(rec *fingerprint.Record) *fingerprint.Record {
	cp := *rec
	fp := rec.FP.Clone()
	fp.CanvasHash = "evolved"
	fp.TimezoneOffset += 60
	cp.FP = fp
	cp.Time = rec.Time.Add(24 * time.Hour)
	return &cp
}

// engineModes are the two matching-engine configurations every Figure 9
// bench compares: the paper's serial linear scan and the blocked,
// parallel engine.
var engineModes = []struct {
	name       string
	noBlocking bool
	workers    int
}{
	{"scan", true, 1},
	{"engine", false, 0},
}

func BenchmarkFigure9MatchTimeRule(b *testing.B) {
	w := world(b)
	for _, size := range []int{1000, 4000, len(w.ds.Records)} {
		for _, mode := range engineModes {
			b.Run(itoa(size)+"/"+mode.name, func(b *testing.B) {
				l := fpstalker.NewRuleLinker()
				l.NoBlocking = mode.noBlocking
				l.Workers = mode.workers
				for i := 0; i < size && i < len(w.ds.Records); i++ {
					l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), w.ds.Records[i])
				}
				q := evolvedQuery(w.ds.Records[size/2])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.TopK(q, 10)
				}
			})
		}
	}
}

func BenchmarkFigure9MatchTimeLearning(b *testing.B) {
	w := world(b)
	n := len(w.ds.Records) / 2
	forest, err := fpstalker.TrainPairModel(w.ds.Records[:n], w.ds.TrueInstance[:n],
		mlearn.ForestConfig{Seed: 1, NumTrees: 10, MaxDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1000, 4000} {
		for _, mode := range engineModes {
			b.Run(itoa(size)+"/"+mode.name, func(b *testing.B) {
				l := fpstalker.NewLearnLinker(forest)
				l.NoBlocking = mode.noBlocking
				l.Workers = mode.workers
				for i := 0; i < size; i++ {
					l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), w.ds.Records[i])
				}
				q := evolvedQuery(w.ds.Records[size/2])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.TopK(q, 10)
				}
			})
		}
	}
}

// BenchmarkTopKBlocked isolates the candidate-blocking lever: serial
// scoring either over the whole table (the paper's scan) or only the
// query's (browser, OS, mobile) bucket.
func BenchmarkTopKBlocked(b *testing.B) {
	w := world(b)
	q := evolvedQuery(w.ds.Records[len(w.ds.Records)/2])
	for _, mode := range []struct {
		name       string
		noBlocking bool
	}{{"scan", true}, {"blocked", false}} {
		b.Run(mode.name, func(b *testing.B) {
			l := fpstalker.NewRuleLinker()
			l.NoBlocking = mode.noBlocking
			l.Workers = 1
			for i, rec := range w.ds.Records {
				l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.TopK(q, 10)
			}
		})
	}
}

// BenchmarkTopKParallel isolates the worker-pool lever: the full
// unblocked table scored serially versus across all cores, for both
// FP-Stalker variants (the learning one's per-pair forest evaluation
// parallelizes best).
func BenchmarkTopKParallel(b *testing.B) {
	w := world(b)
	n := len(w.ds.Records) / 2
	forest, err := fpstalker.TrainPairModel(w.ds.Records[:n], w.ds.TrueInstance[:n],
		mlearn.ForestConfig{Seed: 1, NumTrees: 10, MaxDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	q := evolvedQuery(w.ds.Records[len(w.ds.Records)/2])
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run("rule/"+mode.name, func(b *testing.B) {
			l := fpstalker.NewRuleLinker()
			l.NoBlocking = true
			l.Workers = mode.workers
			for i, rec := range w.ds.Records {
				l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.TopK(q, 10)
			}
		})
		b.Run("learning/"+mode.name, func(b *testing.B) {
			l := fpstalker.NewLearnLinker(forest)
			l.NoBlocking = true
			l.Workers = mode.workers
			for i, rec := range w.ds.Records {
				l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.TopK(q, 10)
			}
		})
	}
}

func BenchmarkFigure10F1Rule(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := fpstalker.Evaluate(fpstalker.NewRuleLinker(), w.ds.Records, w.ds.TrueInstance, 10)
		if res.F1() == 0 {
			b.Fatal("zero F1")
		}
	}
}

func BenchmarkFigure10F1Learning(b *testing.B) {
	w := world(b)
	n := len(w.ds.Records) / 2
	forest, err := fpstalker.TrainPairModel(w.ds.Records[:n], w.ds.TrueInstance[:n],
		mlearn.ForestConfig{Seed: 1, NumTrees: 10, MaxDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpstalker.Evaluate(fpstalker.NewLearnLinker(forest), w.ds.Records, w.ds.TrueInstance, 10)
	}
}

func BenchmarkFigure11CaseStudies(b *testing.B) {
	// The four crafted FP/FN pairs, evaluated against a fresh linker.
	mobile := useragent.UA{Browser: useragent.ChromeMobile, BrowserVersion: useragent.V(77, 0, 3865, 92),
		OS: useragent.Android, OSVersion: useragent.V(9), Device: "SM-N960U", Mobile: true}
	known := &fingerprint.Record{FP: &fingerprint.Fingerprint{
		UserAgent: mobile.String(), CookieEnabled: true, LocalStorage: true, WebGL: true,
		CPUCores: 4, CanvasHash: "c", GPUImageHash: "g",
	}}
	queries := []*fingerprint.Record{}
	q1 := &fingerprint.Record{FP: known.FP.Clone()}
	q1.FP.UserAgent = mobile.RequestDesktop().String()
	q2 := &fingerprint.Record{FP: known.FP.Clone()}
	q2.FP.CookieEnabled, q2.FP.LocalStorage = false, false
	q3 := &fingerprint.Record{FP: known.FP.Clone()}
	q3.FP.CPUCores = 2
	queries = append(queries, q1, q2, q3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fpstalker.NewRuleLinker()
		l.Add("known", known)
		for _, q := range queries {
			l.TopK(q, 10)
		}
	}
}

func BenchmarkTable3UpdateCorrelations(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := correlate.NewUpdateAccumulator(w.cl)
		for _, d := range w.changed {
			acc.Add(d)
		}
		acc.Rows()
	}
}

func BenchmarkFigure12AdoptionSeries(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := correlate.NewAdoptionAccumulator(useragent.Chrome, 64, w.ds.Cfg.Start, w.ds.Cfg.End, 7*24*time.Hour)
		for _, d := range w.changed {
			acc.Add(d)
		}
		acc.Series(w.gt.NumInstances())
	}
}

func BenchmarkInsight1EmojiLeaks(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep inference.EmojiLeakReport
		for _, d := range w.changed {
			rep.Add(d, w.cl.Classify(d))
		}
	}
}

func BenchmarkInsight1SoftwareFromFonts(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep inference.SoftwareReport
		for _, d := range w.changed {
			rep.AddDynamics(d)
		}
		for _, recs := range w.gt.Instances {
			rep.AddLatest(recs[len(recs)-1].FP)
		}
	}
}

func BenchmarkInsight1GPUInference(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := inference.NewGPUAccumulator()
		for _, r := range w.ds.Records {
			acc.Add(r)
		}
		acc.Report(w.ds.GPUImageInfo)
	}
}

// BenchmarkInsight1Velocity times the report's Insight 1.4 fold: one
// VelocityAccumulator fed every instance's consecutive visit pairs.
func BenchmarkInsight1Velocity(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := inference.NewVelocityAccumulator(w.ds.Geo)
		for id, recs := range w.gt.Instances {
			for j := 1; j < len(recs); j++ {
				acc.Add(id, recs[j-1], recs[j])
			}
		}
		acc.Report()
	}
}

func BenchmarkInsight3ImplicitCorrelations(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := correlate.NewImplicitAccumulator()
		for _, d := range w.changed {
			acc.Add(d)
		}
		acc.Correlations(3)
	}
}

func BenchmarkGroundTruthBuild(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		browserid.Build(w.ds.Records)
	}
}

func BenchmarkDynamicsGeneration(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dynamics.Generate(w.gt)
	}
}

// --- Ablation benches (DESIGN.md §4) ----------------------------------

// BenchmarkAblationDeltaVsPair measures the §2.3 representation choice:
// the distinct-value compression that canonical deltas buy over raw
// fingerprint pairs.
func BenchmarkAblationDeltaVsPair(b *testing.B) {
	w := world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := stats.NewCompressionAccumulator()
		for _, d := range w.changed {
			acc.Add(d)
		}
		pairs, deltas, ratio := acc.Result()
		if pairs < deltas || ratio < 1 {
			b.Fatalf("compression inverted: %d pairs, %d deltas", pairs, deltas)
		}
	}
}

// BenchmarkAblationLinkerCache measures Advice 6: the exact-match hash
// index versus the full scan for exact re-presentations.
func BenchmarkAblationLinkerCache(b *testing.B) {
	w := world(b)
	build := func(noIndex bool) *fpstalker.RuleLinker {
		l := fpstalker.NewRuleLinker()
		l.NoExactIndex = noIndex
		for i, rec := range w.ds.Records {
			l.Add(fpstalker.InstanceID(w.ds.TrueInstance[i]), rec)
		}
		return l
	}
	q := w.ds.Records[len(w.ds.Records)-1]
	b.Run("indexed", func(b *testing.B) {
		l := build(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.TopK(q, 10)
		}
	})
	b.Run("scan", func(b *testing.B) {
		l := build(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.TopK(q, 10)
		}
	})
}

// BenchmarkExtensionHybridLinker compares the dynamics-aware hybrid
// linker (the paper's Advices 5–8, implemented in internal/linker)
// against rule-based FP-Stalker on the same replay.
func BenchmarkExtensionHybridLinker(b *testing.B) {
	w := world(b)
	b.Run("rule-evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fpstalker.Evaluate(fpstalker.NewRuleLinker(), w.ds.Records, w.ds.TrueInstance, 10)
		}
	})
	b.Run("hybrid-evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fpstalker.Evaluate(linker.New(), w.ds.Records, w.ds.TrueInstance, 10)
		}
	})
}

// BenchmarkAblationCanvasHashVsPixels measures §2.3.2's choice of hash
// pairs over pixel diffs for canvas dynamics.
func BenchmarkAblationCanvasHashVsPixels(b *testing.B) {
	x := canvas.Render(canvas.Params{EmojiMajor: 1})
	y := canvas.Render(canvas.Params{EmojiMajor: 2})
	hx, hy := x.Hash(), y.Hash()
	b.Run("hash-pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if hx == hy {
				b.Fatal("hashes equal")
			}
		}
	})
	b.Run("pixel-diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if canvas.Diff(x, y).Changed == 0 {
				b.Fatal("no diff")
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
