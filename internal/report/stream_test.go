package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
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
// that the simulation spills many runs and chunks split instances, and
// checks every section against the golden bytes. The report reads the
// runs as they are and spills nothing of its own: no regroup sort, and
// nothing but the simulation's runs under the spill root.
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
	if n := snap.Counters[`extsort_runs_total{sort="simulate"}`]; n < 2 {
		t.Fatalf("simulate sort spilled %d runs, want several", n)
	}
	for name := range snap.Counters {
		if strings.Contains(name, `sort="regroup"`) {
			t.Fatalf("the report registered a regroup sort: %s", name)
		}
	}
	entries, err := os.ReadDir(sd.SpillRoot())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sim" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("spill root holds %v, want only sim", names)
	}
}

// partitionedSource splits ds into partitions closed under user ID,
// each "-shared" account folded into its user: the users are shuffled
// with seed and cut into groups of perPart, and each partition keeps
// its records in time order.
func partitionedSource(ds *population.Dataset, perPart int, seed int64) RecordSource {
	byUser := map[string][]int{}
	var users []string
	for i, rec := range ds.Records {
		u := strings.TrimSuffix(rec.UserID, "-shared")
		if _, ok := byUser[u]; !ok {
			users = append(users, u)
		}
		byUser[u] = append(byUser[u], i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	src := DatasetSource(ds)
	src.parts = func(fn func([][]byte) error) error {
		for p := 0; p < len(users); p += perPart {
			var idx []int
			for _, u := range users[p:min(p+perPart, len(users))] {
				idx = append(idx, byUser[u]...)
			}
			sort.Ints(idx)
			raws := make([][]byte, len(idx))
			for k, i := range idx {
				raws[k] = fingerprint.AppendRecord(nil, ds.Records[i])
			}
			if err := fn(raws); err != nil {
				return err
			}
		}
		return nil
	}
	return src
}

// TestStreamReportPartitionOrder: the report does not depend on how
// the users are split into partitions or in what order the partitions
// come. The golden world, cut into user-closed partitions of two sizes,
// each in three seeded orders and at both worker counts, prints the
// golden bytes.
func TestStreamReportPartitionOrder(t *testing.T) {
	ds := population.Simulate(goldenConfig())
	images := dynamics.MapImages(ds.CanvasImages)
	for _, tc := range []struct {
		perPart, workers int
		seed             int64
	}{
		{7, 1, 1}, {7, 2, 2}, {7, 1, 3},
		{200, 2, 1}, {200, 1, 2}, {200, 2, 3},
	} {
		got := renderAll(t, partitionedSource(ds, tc.perPart, tc.seed), images,
			StreamOptions{Workers: tc.workers, ChunkSize: 97})
		checkGolden(t, fmt.Sprintf("%d users per partition, order seed %d, workers %d", tc.perPart, tc.seed, tc.workers), got)
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

// TestStreamReportCorruptRun flips one byte of a spilled simulation
// run: the report must fail with the frame error naming the run, not
// drop the run's records.
func TestStreamReportCorruptRun(t *testing.T) {
	sd, err := population.SimulateSpill(population.DefaultConfig(80), population.StreamOptions{UsersPerBatch: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	path := filepath.Join(sd.SpillRoot(), "sim", "run-000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // inside the first frame's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewStream(SpillSource(sd), dynamics.MapImages(sd.CanvasImages), io.Discard, StreamOptions{ChunkSize: 32})
	if !errors.Is(err, storage.ErrChecksum) || !strings.Contains(err.Error(), "run-000001.seg") {
		t.Fatalf("want a checksum error naming run-000001.seg, got %v", err)
	}
}

// TestStreamReportBadRecordBytes: a record whose encoded bytes do not
// decode fails the pipeline with the codec's error, at every worker
// count, instead of being dropped.
func TestStreamReportBadRecordBytes(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(40))
	src := DatasetSource(ds)
	parts := src.parts
	src.parts = func(fn func([][]byte) error) error {
		return parts(func(raws [][]byte) error {
			raws[50] = raws[50][:len(raws[50])-1]
			return fn(raws)
		})
	}
	for _, workers := range []int{1, 2} {
		_, err := NewStream(src, dynamics.MapImages(ds.CanvasImages), os.Stderr, StreamOptions{Workers: workers, ChunkSize: 16})
		if !errors.Is(err, fingerprint.ErrMalformedRecord) {
			t.Fatalf("workers=%d: want ErrMalformedRecord, got %v", workers, err)
		}
	}
}
