// Command fpgen generates a synthetic raw dataset (the stand-in for
// the paper's NDA-gated deployment data) and writes it as a JSONL
// storage snapshot that cmd/fpserver, cmd/fpstalker and the examples
// can load.
//
// The simulation spills sorted segment runs instead of materializing
// the dataset, and the snapshot (plus the optional truth sidecar) is
// written from the k-way merged record stream in (time, serial) order,
// so memory stays bounded by -mem-budget at any -users. Each output is
// replaced atomically (see storage.WriteFileAtomic): a failed run never
// leaves a truncated snapshot or sidecar behind. The simulation runs on
// GOMAXPROCS workers; its output is the same for every worker count,
// so GOMAXPROCS=1 gives the serial run.
//
// Usage:
//
//	fpgen -users 10000 -seed 1 -o dataset.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"

	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

func main() {
	users := flag.Int("users", 5000, "number of simulated users")
	seed := flag.Int64("seed", 1, "simulation seed")
	scenario := flag.String("scenario", population.ScenarioPaper, "population preset")
	deployment := flag.Bool("deployment", false, "simulate the §2.2.2 hot patches and partial outage")
	out := flag.String("o", "dataset.jsonl", "output snapshot path")
	truth := flag.String("truth", "", "optional path for the ground-truth sidecar (instance serials and cause labels)")
	stageTiming := flag.String("stage-timing", "", "path for the per-stage wall-time/records-per-sec JSON (empty disables)")
	spillDir := flag.String("spill-dir", "", "spill directory for the simulation's run files (empty = temp dir, removed afterwards)")
	memBudget := flag.Int64("mem-budget", 256, "approximate in-flight memory budget for simulation batching, in MiB")
	flag.Parse()

	cfg, ok := population.NamedConfig(*scenario, *users)
	if !ok {
		log.Fatalf("fpgen: unknown scenario %q", *scenario)
	}
	cfg.Seed = *seed
	cfg.SimulateDeployment = *deployment

	var timings *obs.Timings
	if *stageTiming != "" {
		timings = &obs.Timings{}
	}
	if err := run(cfg, timings, *out, *truth, *spillDir, *memBudget, *stageTiming); err != nil {
		log.Fatalf("fpgen: %v", err)
	}
}

// run simulates into spilled runs and exports the merged stream.
func run(cfg population.Config, timings *obs.Timings, out, truth, spillDir string, memBudgetMiB int64, stageTiming string) error {
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

	stop := timings.Start("snapshot_write")
	var n int
	write := func(w, tw io.Writer) (err error) {
		n, err = export(sd, w, tw)
		return err
	}
	err = storage.WriteFileAtomic(out, func(w io.Writer) error {
		if truth == "" {
			return write(w, nil)
		}
		return storage.WriteFileAtomic(truth, func(tw io.Writer) error { return write(w, tw) })
	})
	if err != nil {
		return err
	}
	stop(n)
	fmt.Printf("wrote %d records (%d instances, %d users) to %s\n",
		n, sd.NumInstances, cfg.Users, out)
	if truth != "" {
		fmt.Printf("wrote ground truth sidecar to %s\n", truth)
	}
	if rss := obs.PeakRSSBytes(); rss > 0 {
		fmt.Printf("peak RSS: %.1f MiB, spilled %.1f MiB in %d runs\n",
			float64(rss)/(1<<20), float64(sd.SpilledBytes())/(1<<20), sd.Runs())
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

// export walks the merged record stream once, writing each record to
// the snapshot w and, when tw is non-nil, its truth line — the true
// instance serial followed by the cause labels — to tw. It returns the
// record count.
func export(sd *population.SpilledDataset, w, tw io.Writer) (int, error) {
	st, err := sd.Stream()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	sw := storage.NewSnapshotWriter(w)
	var bw *bufio.Writer
	if tw != nil {
		bw = bufio.NewWriter(tw)
	}
	n := 0
	for {
		item, ok, err := st.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		if err := sw.Record(item.Rec); err != nil {
			return n, err
		}
		if bw != nil {
			fmt.Fprintf(bw, "%d", item.Instance)
			for _, ev := range item.Truth {
				fmt.Fprintf(bw, " %s", ev)
			}
			fmt.Fprintln(bw)
		}
		n++
	}
	if err := sw.Close(); err != nil {
		return n, err
	}
	if bw != nil {
		// bufio's sticky error: Flush surfaces any failed truth write.
		return n, bw.Flush()
	}
	return n, nil
}
