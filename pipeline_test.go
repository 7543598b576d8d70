package fpdyn

// End-to-end golden test for the parallel analytic pipeline: the full
// report rendered from a Workers:1 spilled world must be byte-identical
// to the one rendered from a Workers:NumCPU world. Run under -race
// (make check does) this also exercises every concurrent stage —
// sharded simulation and its spilled runs, the per-partition ground
// truth, diff fan-out, batch classification — for data races.

import (
	"bytes"
	"testing"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/population"
	"fpdyn/internal/report"
)

func renderAll(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := population.DefaultConfig(250)
	cfg.Seed = 11
	cfg.Workers = workers
	sd, err := population.SimulateSpill(cfg, population.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	var buf bytes.Buffer
	r, err := report.NewStream(report.SpillSource(sd), dynamics.MapImages(sd.CanvasImages), &buf,
		report.StreamOptions{Workers: workers, SpillDir: sd.SpillRoot()}, report.Sections()...)
	if err != nil {
		t.Fatal(err)
	}
	r.Summary()
	for _, name := range report.Sections() {
		r.Render(name)
	}
	return buf.Bytes()
}
func TestPipelineParallelReportByteIdentical(t *testing.T) {
	serial := renderAll(t, 1)
	parallel := renderAll(t, -1) // NumCPU
	if !bytes.Equal(serial, parallel) {
		i := 0
		for i < len(serial) && i < len(parallel) && serial[i] == parallel[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		hiS, hiP := i+80, i+80
		if hiS > len(serial) {
			hiS = len(serial)
		}
		if hiP > len(parallel) {
			hiP = len(parallel)
		}
		t.Fatalf("report output diverges at byte %d:\n  Workers:1      ...%s...\n  Workers:NumCPU ...%s...",
			i, serial[lo:hiS], parallel[lo:hiP])
	}
}
