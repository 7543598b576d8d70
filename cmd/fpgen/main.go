// Command fpgen generates a synthetic raw dataset (the stand-in for
// the paper's NDA-gated deployment data) and writes it as a JSONL
// storage snapshot that cmd/fpserver, cmd/fpstalker and the examples
// can load.
//
// Usage:
//
//	fpgen -users 10000 -seed 1 -o dataset.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

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
	workers := flag.Int("workers", 0, "simulation worker count: 1 = serial, 0 or -1 = NumCPU; the output is the same for every value")
	stageTiming := flag.String("stage-timing", "", "path for the per-stage wall-time/records-per-sec JSON (empty disables)")
	stream := flag.Bool("stream", false, "out-of-core mode: spill the simulation to sorted segment files and stream the snapshot (and truth sidecar) from the merged runs in bounded memory")
	spillDir := flag.String("spill-dir", "", "spill directory for -stream run files (empty = temp dir, removed afterwards)")
	memBudget := flag.Int64("mem-budget", 256, "approximate in-flight memory budget for -stream simulation batching, in MiB")
	flag.Parse()

	cfg, ok := population.NamedConfig(*scenario, *users)
	if !ok {
		log.Fatalf("fpgen: unknown scenario %q", *scenario)
	}
	cfg.Seed = *seed
	cfg.SimulateDeployment = *deployment
	cfg.Workers = *workers

	var timings *obs.Timings
	if *stageTiming != "" {
		timings = &obs.Timings{}
	}

	if *stream {
		if err := runStream(cfg, timings, *out, *truth, *spillDir, *memBudget, *stageTiming); err != nil {
			log.Fatalf("fpgen: %v", err)
		}
		return
	}

	stop := timings.Start("simulate")
	ds := population.Simulate(cfg)
	stop(len(ds.Records))

	stop = timings.Start("snapshot_write")
	store := storage.NewStore()
	for _, rec := range ds.Records {
		store.Append(rec)
	}
	if err := store.SaveFile(*out); err != nil {
		log.Fatalf("fpgen: %v", err)
	}
	stop(len(ds.Records))
	fmt.Printf("wrote %d records (%d instances, %d users) to %s\n",
		len(ds.Records), ds.NumInstances, cfg.Users, *out)

	if *truth != "" {
		stop = timings.Start("truth_sidecar")
		if err := writeTruth(*truth, ds); err != nil {
			log.Fatalf("fpgen: %v", err)
		}
		stop(len(ds.Records))
		fmt.Printf("wrote ground truth sidecar to %s\n", *truth)
	}
	if *stageTiming != "" {
		if err := timings.WriteFile(*stageTiming); err != nil {
			log.Fatalf("fpgen: stage timing: %v", err)
		}
		fmt.Printf("wrote stage timing to %s\n", *stageTiming)
	}
}

// runStream is the -stream path: the simulation spills sorted per-shard
// segment runs instead of materializing the dataset, and the snapshot
// (plus the optional truth sidecar) is written from the k-way merged
// record stream. The output bytes match the in-memory path exactly —
// both walk records in (time, serial) order.
func runStream(cfg population.Config, timings *obs.Timings, out, truth, spillDir string, memBudgetMiB int64, stageTiming string) error {
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
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	sw := storage.NewSnapshotWriter(f)
	var tf *os.File
	var tw *bufio.Writer
	if truth != "" {
		if tf, err = os.Create(truth); err != nil {
			f.Close()
			return err
		}
		tw = bufio.NewWriter(tf)
	}
	closeAll := func() {
		f.Close()
		if tf != nil {
			tf.Close()
		}
	}

	st, err := sd.Stream()
	if err != nil {
		closeAll()
		return err
	}
	n := 0
	for {
		item, ok, err := st.Next()
		if err != nil {
			st.Close()
			closeAll()
			return err
		}
		if !ok {
			break
		}
		if err := sw.Record(item.Rec); err != nil {
			st.Close()
			closeAll()
			return err
		}
		if tw != nil {
			fmt.Fprintf(tw, "%d", item.Instance)
			for _, ev := range item.Truth {
				fmt.Fprintf(tw, " %s", ev)
			}
			fmt.Fprintln(tw)
		}
		n++
	}
	if err := st.Close(); err != nil {
		closeAll()
		return err
	}
	if err := sw.Close(); err != nil {
		closeAll()
		return err
	}
	if err := f.Close(); err != nil {
		if tf != nil {
			tf.Close()
		}
		return err
	}
	stop(n)
	fmt.Printf("wrote %d records (%d instances, %d users) to %s\n",
		n, sd.NumInstances, cfg.Users, out)
	if tw != nil {
		if err := tw.Flush(); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
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

// writeTruth writes the ground-truth sidecar through a buffered
// writer. bufio's sticky error means the Flush at the end surfaces any
// write failure along the way (a full disk no longer yields a silently
// truncated sidecar).
func writeTruth(path string, ds *population.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i := range ds.Records {
		fmt.Fprintf(bw, "%d", ds.TrueInstance[i])
		for _, ev := range ds.Truth[i] {
			fmt.Fprintf(bw, " %s", ev)
		}
		fmt.Fprintln(bw)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
