package report

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/faultinject"
	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

// goldenPath holds every section — Summary, then fpreport's -what all
// order — for DefaultConfig(900) at seed 6, as the in-memory reporter
// this package used to have printed it.
const goldenPath = "testdata/all_users900_seed6.golden"

func goldenConfig() population.Config {
	cfg := population.DefaultConfig(900)
	cfg.Seed = 6
	return cfg
}

// renderAll runs the pipeline over src with every section requested
// and renders the Summary and each section in print order.
func renderAll(t *testing.T, src RecordSource, images dynamics.ImageProvider, opts StreamOptions) string {
	t.Helper()
	var buf bytes.Buffer
	r, err := NewStream(src, images, &buf, opts, Sections()...)
	if err != nil {
		t.Fatal(err)
	}
	r.Summary()
	for _, name := range Sections() {
		r.Render(name)
	}
	return buf.String()
}

func checkGolden(t *testing.T, label, got string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: output differs from %s at line %d:\n got: %q\nwant: %q", label, goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output has %d lines, %s has %d", label, len(gl), goldenPath, len(wl))
}

// TestStreamReportMatchesInMemory is the determinism gate over an
// in-memory dataset: every section must print the golden bytes for
// every worker count and chunk size, including chunk sizes small
// enough to split instances across chunks.
func TestStreamReportMatchesInMemory(t *testing.T) {
	ds := population.Simulate(goldenConfig())
	for _, tc := range []struct {
		workers, chunk int
	}{
		{1, 8192},
		{1, 17}, // chunks split instance runs
		{8, 8192},
		{8, 17},
	} {
		got := renderAll(t, DatasetSource(ds), dynamics.MapImages(ds.CanvasImages),
			StreamOptions{Workers: tc.workers, ChunkSize: tc.chunk})
		checkGolden(t, "dataset source", got)
	}
}

// TestStreamReportFromSpill runs the full out-of-core chain — spilled
// simulation feeding the report — with batches and chunks small enough
// that both sorts spill many runs and chunks split instances, and
// checks every section against the golden bytes.
func TestStreamReportFromSpill(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 2
	reg := obs.NewRegistry()
	sd, err := population.SimulateSpill(cfg, population.StreamOptions{UsersPerBatch: 40, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()

	got := renderAll(t, SpillSource(sd), dynamics.MapImages(sd.CanvasImages),
		StreamOptions{Workers: 2, ChunkSize: 64, SpillDir: sd.SpillRoot(), Registry: reg})
	checkGolden(t, "spill source", got)

	snap := reg.Snapshot()
	for _, sort := range []string{"simulate", "regroup"} {
		if n := snap.Counters[`extsort_runs_total{sort="`+sort+`"}`]; n < 2 {
			t.Fatalf("%s sort spilled %d runs, want several", sort, n)
		}
	}
}

// TestRenderUnrequestedSection: a section not requested from NewStream
// accumulated nothing, so rendering it must panic instead of printing
// zeros; an unknown name is refused up front.
func TestRenderUnrequestedSection(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(40))
	var buf bytes.Buffer
	r, err := NewStream(DatasetSource(ds), dynamics.MapImages(ds.CanvasImages), &buf, StreamOptions{}, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	r.Render("fig3")
	r.Render("table2") // always computed
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rendering an unrequested section did not panic")
			}
		}()
		r.Render("fig2")
	}()
	if _, err := NewStream(DatasetSource(ds), nil, &buf, StreamOptions{}, "fig99"); err == nil {
		t.Error("unknown section accepted")
	}
}

// TestStreamReportSpillFault injects a write failure into the regroup
// spill: the pipeline must surface it, not drop records.
func TestStreamReportSpillFault(t *testing.T) {
	cfg := population.DefaultConfig(80)
	ds := population.Simulate(cfg)
	_, err := NewStream(DatasetSource(ds), dynamics.MapImages(ds.CanvasImages), os.Stderr,
		StreamOptions{
			ChunkSize: 32,
			OpenFile: func(path string) (storage.SegmentFile, error) {
				f, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				return &faultinject.File{F: f, Script: &faultinject.Script{FailAfter: 1024}}, nil
			},
		})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected spill error, got %v", err)
	}
}
