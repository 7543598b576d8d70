// Command fpreport regenerates every table and figure of the paper's
// evaluation from a synthetic dataset: Tables 1–3, Figures 2–8 and 12,
// the browser-ID error estimation (§2.3.3), the Insight 1/3 analyses,
// and the extension analyses (uniqueness/linkability trade-off, the
// feature-stemming baseline). Figures 9–11 (the FP-Stalker scaling
// evaluation) live in cmd/fpstalker, which owns the linking sweep.
//
// Usage:
//
//	fpreport -users 5000 -seed 1 -what all
//	fpreport -what table2,fig12 -scenario enterprise
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/report"
)

func main() {
	users := flag.Int("users", 3000, "number of simulated users")
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", population.ScenarioPaper,
		"population preset: "+strings.Join(population.Scenarios(), ", "))
	what := flag.String("what", "all", "comma-separated artifacts: table1,table2,table3,fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig12,estimate,insight1,insight3,compression,tradeoff,stemming or all")
	workers := flag.Int("workers", 0, "worker count for the simulate/ground-truth/diff/classify pipeline: 1 = serial, 0 or -1 = NumCPU; the output is the same for every value")
	stageTiming := flag.String("stage-timing", "", "path for the per-stage wall-time/records-per-sec JSON (empty disables)")
	stream := flag.Bool("stream", false, "out-of-core pipeline: spill the simulation to sorted segment files and stream the analyses in bounded memory (sections: summary, estimate, table2)")
	spillDir := flag.String("spill-dir", "", "spill directory for -stream run files (empty = temp dir, removed afterwards)")
	memBudget := flag.Int64("mem-budget", 256, "approximate in-flight memory budget for -stream simulation batching, in MiB")
	flag.Parse()

	want := map[string]bool{}
	for _, w := range strings.Split(*what, ",") {
		want[strings.TrimSpace(w)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	cfg, ok := population.NamedConfig(*scenario, *users)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q; available: %s\n",
			*scenario, strings.Join(population.Scenarios(), ", "))
		os.Exit(2)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	fmt.Printf("simulating %d users (scenario %s, seed %d) over %s → %s ...\n",
		cfg.Users, *scenario, cfg.Seed, cfg.Start.Format("2006-01-02"), cfg.End.Format("2006-01-02"))

	var timings *obs.Timings
	if *stageTiming != "" {
		timings = &obs.Timings{}
	}

	if *stream {
		if err := runStream(cfg, sel, timings, *spillDir, *memBudget, *stageTiming); err != nil {
			fmt.Fprintf(os.Stderr, "fpreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	stop := timings.Start("simulate")
	ds := population.Simulate(cfg)
	stop(len(ds.Records))

	r := report.NewWorkersTimed(ds, os.Stdout, *workers, timings)
	r.Summary()

	sections := []struct {
		name string
		fn   func()
	}{
		{"estimate", r.Estimate},
		{"fig2", r.Fig2},
		{"table1", r.Table1},
		{"fig3", r.Fig3},
		{"fig4", r.Fig4},
		{"fig5", r.Fig5},
		{"fig6", r.Fig6},
		{"fig7", r.Fig7},
		{"table2", r.Table2},
		{"fig8", r.Fig8},
		{"table3", r.Table3},
		{"fig12", r.Fig12},
		{"insight1", r.Insight1},
		{"insight3", r.Insight3},
		{"compression", r.Compression},
		{"tradeoff", r.Tradeoff},
		{"stemming", r.Stemming},
	}
	for _, s := range sections {
		if sel(s.name) {
			s.fn()
		}
	}

	if *stageTiming != "" {
		if err := timings.WriteFile(*stageTiming); err != nil {
			fmt.Fprintf(os.Stderr, "fpreport: stage timing: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote stage timing to %s\n", *stageTiming)
	}
}

// runStream is the -stream path: the simulation spills sorted segment
// runs instead of materializing the dataset, and the report sections
// that stream (summary, estimate, table2) are computed from the merged
// record stream in bounded memory. The printed bytes for those
// sections match the in-memory path exactly.
func runStream(cfg population.Config, sel func(string) bool, timings *obs.Timings, spillDir string, memBudgetMiB int64, stageTiming string) error {
	reg := obs.NewRegistry()
	sd, err := population.SimulateSpill(cfg, population.StreamOptions{
		SpillDir:  spillDir,
		MemBudget: memBudgetMiB << 20,
		Registry:  reg,
		Timings:   timings,
	})
	if err != nil {
		return err
	}
	defer sd.Close()
	fmt.Printf("spilled %d records in %d runs (%.1f MiB)\n",
		sd.Records, sd.Runs(), float64(sd.SpilledBytes())/(1<<20))

	sr, err := report.NewStream(report.SpillSource(sd), dynamics.MapImages(sd.CanvasImages), os.Stdout,
		report.StreamOptions{
			Workers:  cfg.Workers,
			SpillDir: sd.SpillRoot(),
			Registry: reg,
			Timings:  timings,
		})
	if err != nil {
		return err
	}
	sr.Summary()
	if sel("estimate") {
		sr.Estimate()
	}
	if sel("table2") {
		sr.Table2()
	}
	if rss := obs.PeakRSSBytes(); rss > 0 {
		fmt.Printf("peak RSS: %.1f MiB\n", float64(rss)/(1<<20))
	}
	if stageTiming != "" {
		timings.SetSnapshot(reg.Snapshot())
		if err := timings.WriteFile(stageTiming); err != nil {
			return fmt.Errorf("stage timing: %w", err)
		}
		fmt.Printf("wrote stage timing to %s\n", stageTiming)
	}
	return nil
}
