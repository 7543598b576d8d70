package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

// TestOutputMatchesInMemoryOracle pins fpgen's two outputs for a small
// world, with and without the deployment events. The snapshot must
// equal a SnapshotWriter over the records population.Simulate returns
// for the same config, in its (time) order, and the truth sidecar must
// equal the per-record TrueInstance/Truth lines of that dataset.
func TestOutputMatchesInMemoryOracle(t *testing.T) {
	for _, deployment := range []bool{false, true} {
		t.Run(fmt.Sprintf("deployment=%v", deployment), func(t *testing.T) {
			cfg := population.DefaultConfig(150)
			cfg.Seed = 4
			cfg.SimulateDeployment = deployment
			dir := t.TempDir()
			out := filepath.Join(dir, "ds.jsonl")
			truth := filepath.Join(dir, "truth.txt")
			// A small budget spills several runs, so the k-way merge is
			// what the comparison exercises.
			if err := run(cfg, nil, out, truth, filepath.Join(dir, "spill"), 1, ""); err != nil {
				t.Fatal(err)
			}

			ds := population.Simulate(cfg)
			var wantSnap, wantTruth bytes.Buffer
			sw := storage.NewSnapshotWriter(&wantSnap)
			for i, rec := range ds.Records {
				if err := sw.Record(rec); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&wantTruth, "%d", ds.TrueInstance[i])
				for _, ev := range ds.Truth[i] {
					fmt.Fprintf(&wantTruth, " %s", ev)
				}
				fmt.Fprintln(&wantTruth)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}

			gotSnap, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.Records) == 0 || !bytes.Equal(gotSnap, wantSnap.Bytes()) {
				t.Fatalf("snapshot: %d bytes, oracle %d bytes over %d records", len(gotSnap), wantSnap.Len(), len(ds.Records))
			}
			gotTruth, err := os.ReadFile(truth)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotTruth, wantTruth.Bytes()) {
				t.Fatalf("truth sidecar: %d bytes, oracle %d bytes", len(gotTruth), wantTruth.Len())
			}
		})
	}
}
