// Command fpstalker runs the FP-Stalker evaluation sweeps behind the
// paper's Figures 9 and 10: matching time and F1/precision/recall of
// the rule-based and learning-based linkers as the fingerprint database
// grows, plus the Figure 11 false-positive/negative case studies.
//
// Usage:
//
//	fpstalker -bench time -sizes 1000,5000,20000
//	fpstalker -bench f1 -users 3000 -variant both
//	fpstalker -bench cases
//
// By default both FP-Stalker variants run on the blocked, parallel
// matching engine, scoring on GOMAXPROCS workers. To reproduce the
// paper's Figure 9 linear-scan numbers, disable both levers:
//
//	GOMAXPROCS=1 fpstalker -bench time -noblocking
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"os"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linker"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/parallel"
	"fpdyn/internal/population"
	"fpdyn/internal/textplot"
	"fpdyn/internal/useragent"
)

func main() {
	bench := flag.String("bench", "time", "what to run: time (Figure 9), f1 (Figure 10), cases (Figure 11)")
	users := flag.Int("users", 2000, "simulated users for f1 sweep")
	seed := flag.Int64("seed", 1, "simulation seed")
	sizes := flag.String("sizes", "1000,2000,5000,10000", "database sizes for the time sweep")
	variant := flag.String("variant", "both", "rule, learning, or both")
	k := flag.Int("k", 10, "top-k candidates (the paper reports top 10)")
	noBlocking := flag.Bool("noblocking", false, "disable candidate blocking — the paper's full linear scan (Figure 9 ablation)")
	flag.Parse()

	cfg := engineCfg{noBlocking: *noBlocking}
	switch *bench {
	case "time":
		benchTime(parseSizes(*sizes), *variant, *seed, *k, cfg)
	case "f1":
		benchF1(*users, *variant, *seed, *k, cfg)
	case "cases":
		benchCases()
	case "chains":
		benchChains(*users, *seed, cfg)
	default:
		log.Fatalf("fpstalker: unknown bench %q", *bench)
	}
}

// engineCfg carries the matching-engine flag into each sweep. The
// scoring pool follows parallel.Resolve: GOMAXPROCS workers.
type engineCfg struct {
	noBlocking bool
}

func (c engineCfg) rule() *fpstalker.RuleLinker {
	l := fpstalker.NewRuleLinker()
	l.NoBlocking = c.noBlocking
	return l
}

func (c engineCfg) learn(f *mlearn.Forest) *fpstalker.LearnLinker {
	l := fpstalker.NewLearnLinker(f)
	l.NoBlocking = c.noBlocking
	return l
}

// String names the blocking mode and the resolved scoring pool size.
func (c engineCfg) String() string {
	mode := "blocking on"
	if c.noBlocking {
		mode = "linear scan"
	}
	if w := parallel.Resolve(0); w > 1 {
		return fmt.Sprintf("%s, %d scoring workers", mode, w)
	}
	return mode + ", serial"
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			log.Fatalf("fpstalker: bad size %q", part)
		}
		out = append(out, n)
	}
	return out
}

// worldFor simulates enough users to yield at least n records.
func worldFor(n int, seed int64) *population.Dataset {
	users := n / 3
	if users < 200 {
		users = 200
	}
	for {
		cfg := population.DefaultConfig(users)
		cfg.Seed = seed
		ds := population.Simulate(cfg)
		if len(ds.Records) >= n || users > 64*n {
			return ds
		}
		users *= 2
	}
}

// benchTime reproduces Figure 9: mean matching time per query as the
// database grows. Queries are evolved fingerprints (non-exact), the
// expensive path.
func benchTime(sizes []int, variant string, seed int64, k int, cfg engineCfg) {
	maxSize := sizes[len(sizes)-1]
	ds := worldFor(maxSize+100, seed)
	fmt.Printf("Figure 9: matching time vs database size (top-%d; engine: %s)\n", k, cfg)
	rows := [][]string{{"db size", "rule-based", "learning-based", "hybrid (Advices 5-8)"}}

	var forest *mlearn.Forest
	if variant != "rule" {
		var err error
		forest, err = fpstalker.TrainPairModel(ds.Records[:maxSize/2], ds.TrueInstance[:maxSize/2],
			fpstalker.PairModelConfig(seed))
		if err != nil {
			log.Fatalf("fpstalker: train: %v", err)
		}
	}

	queries := evolvedQueries(ds, 30)
	for _, size := range sizes {
		if size > len(ds.Records) {
			break
		}
		row := []string{fmt.Sprintf("%d", size)}
		if variant != "learning" {
			rl := cfg.rule()
			fill(rl, ds, size)
			row = append(row, fpstalker.TimeMatching(rl, queries, k).String())
		} else {
			row = append(row, "-")
		}
		if variant != "rule" {
			ll := cfg.learn(forest)
			fill(ll, ds, size)
			row = append(row, fpstalker.TimeMatching(ll, queries, k).String())
		} else {
			row = append(row, "-")
		}
		hy := linker.New()
		fill(hy, ds, size)
		row = append(row, fpstalker.TimeMatching(hy, queries, k).String())
		rows = append(rows, row)
	}
	textplot.Table(os.Stdout, rows)
	fmt.Println("\n(the paper: rule-based grows from ~100ms at 100K to ~1s at 1M; both exceed the 100ms RTB budget)")
}

func fill(l fpstalker.Linker, ds *population.Dataset, size int) {
	for i := 0; i < size && i < len(ds.Records); i++ {
		l.Add(fpstalker.InstanceID(ds.TrueInstance[i]), ds.Records[i])
	}
}

// evolvedQueries crafts non-exact queries: known fingerprints with a
// plausible update applied.
func evolvedQueries(ds *population.Dataset, n int) []*fingerprint.Record {
	var out []*fingerprint.Record
	for i := 0; i < len(ds.Records) && len(out) < n; i += 97 {
		rec := ds.Records[i]
		cp := *rec
		fp := rec.FP.Clone()
		fp.CanvasHash = "evolved-" + strconv.Itoa(i)
		fp.TimezoneOffset += 60
		cp.FP = fp
		cp.Time = rec.Time.Add(24 * time.Hour)
		out = append(out, &cp)
	}
	return out
}

// benchF1 reproduces Figure 10: precision/recall/F1 of top-k linking
// over a full replay, at increasing dataset sizes.
func benchF1(users int, variant string, seed int64, k int, ecfg engineCfg) {
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	ds := population.Simulate(cfg)
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	fmt.Printf("Figure 10: precision / recall / F1 for top-%d prediction (engine: %s)\n", k, ecfg)
	rows := [][]string{{"records", "variant", "precision", "recall", "F1", "mean match"}}

	for _, frac := range fractions {
		n := int(frac * float64(len(ds.Records)))
		recs, inst := ds.Records[:n], ds.TrueInstance[:n]
		if variant != "learning" {
			res := fpstalker.Evaluate(ecfg.rule(), recs, inst, k)
			rows = append(rows, f1Row(n, "rule", res))
		}
		if variant != "rule" {
			forest, err := fpstalker.TrainPairModel(recs, inst, fpstalker.PairModelConfig(seed))
			if err != nil {
				log.Fatalf("fpstalker: train: %v", err)
			}
			res := fpstalker.Evaluate(ecfg.learn(forest), recs, inst, k)
			rows = append(rows, f1Row(n, "learning", res))
		}
		res := fpstalker.Evaluate(linker.New(), recs, inst, k)
		rows = append(rows, f1Row(n, "hybrid", res))
	}
	textplot.Table(os.Stdout, rows)
	fmt.Println("\n(the paper: rule-based F1 falls 86.1% → 75.9% from 100K to 1M; learning-based cannot scale past 300K)")
}

func f1Row(n int, variant string, res fpstalker.EvalResult) []string {
	return []string{
		fmt.Sprintf("%d", n), variant,
		fmt.Sprintf("%.3f", res.Precision()),
		fmt.Sprintf("%.3f", res.Recall()),
		fmt.Sprintf("%.3f", res.F1()),
		res.MeanMatchTime.String(),
	}
}

// benchChains runs the chain-reconstruction protocol (FP-Stalker's
// original "tracking duration" metric) for each linker.
func benchChains(users int, seed int64, ecfg engineCfg) {
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	ds := population.Simulate(cfg)
	fmt.Printf("Chain reconstruction over %d records (%d true instances; engine: %s)\n",
		len(ds.Records), ds.NumInstances, ecfg)
	rows := [][]string{{"linker", "chains", "avg tracking duration", "chain purity", "split ratio"}}
	for _, v := range []struct {
		name string
		mk   func() fpstalker.Linker
	}{
		{"rule-based", func() fpstalker.Linker { return ecfg.rule() }},
		{"hybrid", func() fpstalker.Linker { return linker.New() }},
	} {
		res := fpstalker.ChainEvaluate(v.mk(), ds.Records, ds.TrueInstance)
		rows = append(rows, []string{
			v.name, fmt.Sprintf("%d", res.Chains),
			res.AvgTrackingDuration.Round(time.Hour).String(),
			fmt.Sprintf("%.3f", res.AvgChainPurity),
			fmt.Sprintf("%.2f", res.SplitRatio),
		})
	}
	textplot.Table(os.Stdout, rows)
	fmt.Println("\n(longer durations and higher purity mean longer, cleaner tracking)")
}

// benchCases walks the four Figure 11 case studies against the
// rule-based linker and prints its verdicts.
func benchCases() {
	fmt.Println("Figure 11: FP-Stalker false positives and negatives")
	base := func() *fingerprint.Record {
		ua := useragent.UA{Browser: useragent.ChromeMobile, BrowserVersion: useragent.V(77, 0, 3865, 92),
			OS: useragent.Android, OSVersion: useragent.V(9), Device: "SM-N960U", Mobile: true}
		return &fingerprint.Record{
			Time: time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC),
			FP: &fingerprint.Fingerprint{
				UserAgent: ua.String(), Accept: "text/html", Encoding: "gzip, deflate, br",
				Language: "en-US,en;q=0.9", HeaderList: []string{"Host"},
				CookieEnabled: true, WebGL: true, LocalStorage: true, TimezoneOffset: 60,
				Languages: []string{"en-US"}, Fonts: []string{"Roboto"}, CanvasHash: "c",
				GPUVendor: "Qualcomm", GPURenderer: "Adreno (TM) 540", GPUType: "OpenGL ES 3.0",
				CPUCores: 4, CPUClass: "ARM", AudioInfo: "channels:2;rate:48000",
				ScreenResolution: "360x740", ColorDepth: 32, PixelRatio: "3",
				ConsLanguage: true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
				GPUImageHash: "g",
			},
		}
	}

	report := func(name string, known, query *fingerprint.Record, expectLinked bool, kind string) {
		l := fpstalker.NewRuleLinker()
		l.Add("known", known)
		cands := l.TopK(query, 10)
		linked := len(cands) > 0
		verdict := "NOT LINKED"
		if linked {
			verdict = "LINKED"
		}
		fmt.Printf("  %-44s → %-10s (%s as the paper reports)\n", name, verdict, kind)
		if linked != expectLinked {
			fmt.Printf("    UNEXPECTED: wanted linked=%v\n", expectLinked)
		}
	}

	// (a) FN: desktop page on a mobile device.
	a1 := base()
	ua, _ := useragent.Parse(a1.FP.UserAgent)
	a2 := base()
	a2.FP.UserAgent = ua.RequestDesktop().String()
	report("(a) desktop page on a mobile browser", a1, a2, false, "false negative")

	// (b) FN: storage disabled.
	b1 := base()
	b2 := base()
	b2.FP.CookieEnabled, b2.FP.LocalStorage = false, false
	report("(b) cookies+localStorage disabled", b1, b2, false, "false negative")

	// (c) FP: different CPU cores.
	c1 := base()
	c2 := base()
	c2.FP.CPUCores = 2
	report("(c) different CPU cores", c1, c2, true, "false positive")

	// (d) FP: different device model.
	d1 := base()
	dua := useragent.UA{Browser: useragent.Samsung, BrowserVersion: useragent.V(6, 2),
		OS: useragent.Android, OSVersion: useragent.V(7, 0), Device: "SM-J330F", Mobile: true}
	d1.FP.UserAgent = dua.String()
	d2 := base()
	dua.Device = "SM-G920F"
	d2.FP.UserAgent = dua.String()
	report("(d) different device model (J330F vs G920F)", d1, d2, true, "false positive")
}
