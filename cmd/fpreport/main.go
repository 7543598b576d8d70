// Command fpreport regenerates every table and figure of the paper's
// evaluation from a synthetic dataset: Tables 1–3, Figures 2–8 and 12,
// the browser-ID error estimation (§2.3.3), the Insight 1/3 analyses,
// and the extension analyses (uniqueness/linkability trade-off, the
// feature-stemming baseline). Figures 9–11 (the FP-Stalker scaling
// evaluation) live in cmd/fpstalker, which owns the linking sweep.
//
// The simulation spills one sorted segment run per batch of users
// instead of materializing the dataset. Each run is closed under user
// ID, so the report reads it once as its own ground-truth partition
// and spills nothing: -spill-dir hosts only the simulation's runs, and
// -mem-budget bounds both the simulation batch and the report
// partition. Every section is folded from the partitions' record walk
// in memory bounded by one partition's bytes plus instances, users and
// distinct values (see internal/report), so the same command runs at
// any scale. The pipeline runs on GOMAXPROCS workers; its output is the
// same for every worker count, so GOMAXPROCS=1 gives the serial run.
//
// Usage:
//
//	fpreport -users 5000 -seed 1 -what all
//	fpreport -what table2,fig12 -scenario enterprise
//	fpreport -users 1000000 -what table2 -spill-dir /data/spill -mem-budget 512
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
	what := flag.String("what", "all", "comma-separated artifacts: "+strings.Join(report.Sections(), ",")+" or all")
	stageTiming := flag.String("stage-timing", "", "path for the per-stage wall-time/records-per-sec JSON (empty disables)")
	spillDir := flag.String("spill-dir", "", "directory for the simulation's sorted run files (empty = temp dir, removed afterwards)")
	memBudget := flag.Int64("mem-budget", 256, "approximate in-flight memory budget for a simulation batch, which is also a report partition, in MiB")
	flag.Parse()

	var sections []string
	for _, w := range strings.Split(*what, ",") {
		if w = strings.TrimSpace(w); w == "all" {
			sections = report.Sections()
			break
		}
		sections = append(sections, w)
	}

	cfg, ok := population.NamedConfig(*scenario, *users)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scenario %q; available: %s\n",
			*scenario, strings.Join(population.Scenarios(), ", "))
		os.Exit(2)
	}
	cfg.Seed = *seed
	fmt.Printf("simulating %d users (scenario %s, seed %d) over %s → %s ...\n",
		cfg.Users, *scenario, cfg.Seed, cfg.Start.Format("2006-01-02"), cfg.End.Format("2006-01-02"))

	if err := run(cfg, sections, *spillDir, *memBudget, *stageTiming); err != nil {
		fmt.Fprintf(os.Stderr, "fpreport: %v\n", err)
		os.Exit(1)
	}
}

// run simulates and spills the world, folds the report over the
// spilled runs one at a time and renders the Summary plus the
// requested sections in print order.
func run(cfg population.Config, sections []string, spillDir string, memBudgetMiB int64, stageTiming string) error {
	var timings *obs.Timings
	if stageTiming != "" {
		timings = &obs.Timings{}
	}
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

	r, err := report.NewStream(report.SpillSource(sd), dynamics.MapImages(sd.CanvasImages), os.Stdout,
		report.StreamOptions{Registry: reg, Timings: timings}, sections...)
	if err != nil {
		return err
	}
	r.Summary()
	requested := map[string]bool{}
	for _, name := range sections {
		requested[name] = true
	}
	for _, name := range report.Sections() {
		if requested[name] {
			r.Render(name)
		}
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
