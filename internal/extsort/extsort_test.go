package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

func decodeInt() func([]byte) (int, error) {
	return func(p []byte) (int, error) { return strconv.Atoi(string(p)) }
}

// intSorter builds a Sorter[int] over a test directory.
func intSorter(t *testing.T, reg *obs.Registry) *Sorter[int] {
	t.Helper()
	s, err := New(Options[int]{
		Dir:        filepath.Join(t.TempDir(), "spill"),
		Less:       func(a, b int) bool { return a < b },
		Encode:     func(dst []byte, v int) ([]byte, error) { return strconv.AppendInt(dst, int64(v), 10), nil },
		NewDecoder: decodeInt,
		Registry:   reg,
		Name:       "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeRuns cuts items into runs of runLen in arrival order, sorts
// each run and spills it with WriteRun.
func writeRuns(t *testing.T, s *Sorter[int], items []int, runLen int) {
	t.Helper()
	for len(items) > 0 {
		run := append([]int(nil), items[:min(runLen, len(items))]...)
		items = items[len(run):]
		sort.Ints(run)
		if err := s.WriteRun(run); err != nil {
			t.Fatal(err)
		}
	}
}

func drain(t *testing.T, st *Stream[int]) []int {
	t.Helper()
	var out []int
	for {
		v, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// TestWriteRunMergeSorts: random items spilled as sorted runs of 64
// merge back into one sorted stream.
func TestWriteRunMergeSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := intSorter(t, nil)
	defer s.Close()
	var want []int
	for i := 0; i < 1000; i++ {
		want = append(want, rng.Intn(10000))
	}
	writeRuns(t, s, want, 64)
	sort.Ints(want)
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := drain(t, st)
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if s.Runs() < 10 {
		t.Fatalf("expected many runs of 64 items, got %d", s.Runs())
	}
}

// TestMergeRestream asserts Merge can be called repeatedly and replays
// the identical sequence, as SpilledDataset.Stream promises.
func TestMergeRestream(t *testing.T) {
	s := intSorter(t, nil)
	defer s.Close()
	var items []int
	for i := 100; i > 0; i-- {
		items = append(items, i)
	}
	writeRuns(t, s, items, 16)
	st1, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	first := drain(t, st1)
	st1.Close()
	st2, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	second := drain(t, st2)
	st2.Close()
	if len(first) != 100 || len(second) != 100 {
		t.Fatalf("lengths %d, %d; want 100", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("restream diverged at %d: %d vs %d", i, first[i], second[i])
		}
	}
	if err := s.WriteRun([]int{1}); err == nil {
		t.Fatal("WriteRun after Merge should fail")
	}
}

// TestEachRun: EachRun yields the runs in run order and each run's
// items in written order, not merged; its payloads stay intact after
// the pass; and a torn frame fails the pass, naming the run, before
// any of that run reaches fn.
func TestEachRun(t *testing.T) {
	s := intSorter(t, nil)
	defer s.Close()
	runs := [][]int{{1, 4, 7, 10}, {2, 3, 8}, {0, 5, 6, 9}}
	for _, run := range runs {
		if err := s.WriteRun(run); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]int
	var kept []byte
	err := s.EachRun(func(payloads [][]byte) error {
		var run []int
		for _, p := range payloads {
			v, err := strconv.Atoi(string(p))
			if err != nil {
				return err
			}
			run = append(run, v)
		}
		if kept == nil {
			kept = payloads[0]
		}
		got = append(got, run)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(runs) {
		t.Fatalf("EachRun yielded %v, want %v", got, runs)
	}
	if string(kept) != "1" {
		t.Fatalf("a kept payload changed after the pass: %q", kept)
	}
	if err := s.WriteRun([]int{1}); err == nil {
		t.Fatal("WriteRun after EachRun should fail")
	}

	path := filepath.Join(s.opts.Dir, "run-000001.seg")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = s.EachRun(func([][]byte) error { calls++; return nil })
	if !errors.Is(err, storage.ErrTornFrame) || !strings.Contains(err.Error(), "run-000001.seg") {
		t.Fatalf("want a torn-frame error naming run-000001.seg, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times before the torn run, want 1", calls)
	}
}

// TestWriteRunPresorted exercises the direct run-writer path the
// simulator uses: per-batch sorted runs, merged across runs.
func TestWriteRunPresorted(t *testing.T) {
	s := intSorter(t, nil)
	defer s.Close()
	if err := s.WriteRun([]int{1, 4, 7, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun([]int{2, 3, 8}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun([]int{0, 5, 6, 9}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := drain(t, st)
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d: got %d", i, v)
		}
	}
}

// TestTornRunFails truncates a run file mid-frame: the merge must
// surface a torn-frame error instead of silently dropping the tail.
func TestTornRunFails(t *testing.T) {
	s := intSorter(t, nil)
	defer s.Close()
	big := make([]int, 200)
	for i := range big {
		big[i] = i * 3
	}
	if err := s.WriteRun(big); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.opts.Dir, "run-000000.seg")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sawErr := false
	for {
		_, ok, err := st.Next()
		if err != nil {
			if !errors.Is(err, storage.ErrTornFrame) {
				t.Fatalf("want ErrTornFrame, got %v", err)
			}
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("truncated run merged without error")
	}
}

// TestCorruptRunFails flips a payload byte: checksum error, not bad data.
func TestCorruptRunFails(t *testing.T) {
	s := intSorter(t, nil)
	defer s.Close()
	if err := s.WriteRun([]int{11111, 22222, 33333}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.opts.Dir, "run-000000.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xFF // inside the first payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err == nil {
		// The first advance happens inside Merge; depending on which
		// frame is hit the error can surface on Next instead.
		_, _, err = st.Next()
		st.Close()
	}
	if !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

// TestSpillWriteFault scripts a write failure through faultinject: the
// spill must fail loudly, not produce a short run.
func TestSpillWriteFault(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options[int]{
		Dir:        filepath.Join(dir, "spill"),
		Less:       func(a, b int) bool { return a < b },
		Encode:     func(dst []byte, v int) ([]byte, error) { return strconv.AppendInt(dst, int64(v), 10), nil },
		NewDecoder: decodeInt,
		OpenFile: func(path string) (storage.SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, Script: &faultinject.Script{FailAfter: 10}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	if err := s.WriteRun(items); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected write error, got %v", err)
	}
	if s.Runs() != 0 {
		t.Fatalf("failed run was recorded: %d runs", s.Runs())
	}
}

// TestMetrics checks the obs wiring: runs, bytes, items and the heap
// gauge move as the sorter works.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := intSorter(t, reg)
	defer s.Close()
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	writeRuns(t, s, items, 8)
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	key := func(name string) string { return fmt.Sprintf("%s{sort=%q}", name, "test") }
	if got := snap.Counters[key("extsort_items_total")]; got != 50 {
		t.Fatalf("items counter = %d, want 50", got)
	}
	if got := snap.Counters[key("extsort_runs_total")]; got < 6 {
		t.Fatalf("runs counter = %d, want >= 6", got)
	}
	if got := snap.Gauges[key("extsort_merge_heap_size")]; got <= 0 {
		t.Fatalf("heap gauge = %v, want > 0", got)
	}
	drain(t, st)
	st.Close()
	snap = reg.Snapshot()
	if got := snap.Gauges[key("extsort_merge_heap_size")]; got != 0 {
		t.Fatalf("heap gauge after drain = %v, want 0", got)
	}
}

// TestFrameErrorOffsets pins the offset a failing frame is reported at:
// a payload that passes its CRC but fails to decode, and a payload whose
// CRC fails, both name the start of their own frame. Each frame of
// "10", "20", ... is 8 header bytes plus 2 payload bytes, so the third
// frame starts at byte 20.
func TestFrameErrorOffsets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt bool
	}{{"decode", false}, {"checksum", true}} {
		t.Run(tc.name, func(t *testing.T) {
			merges := 0
			s, err := New(Options[int]{
				Dir:    filepath.Join(t.TempDir(), "spill"),
				Less:   func(a, b int) bool { return a < b },
				Encode: func(dst []byte, v int) ([]byte, error) { return strconv.AppendInt(dst, int64(v), 10), nil },
				NewDecoder: func() func([]byte) (int, error) {
					merges++
					return func(p []byte) (int, error) {
						if string(p) == "30" {
							return 0, errors.New("undecodable")
						}
						return strconv.Atoi(string(p))
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			items := []int{10, 20, 40, 50}
			if !tc.corrupt {
				items = []int{10, 20, 30, 40}
			}
			if err := s.WriteRun(items); err != nil {
				t.Fatal(err)
			}
			if tc.corrupt {
				path := filepath.Join(s.opts.Dir, "run-000000.seg")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[28] ^= 0xFF // first payload byte of the third frame
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for pass := 1; pass <= 2; pass++ {
				st, err := s.Merge()
				if err != nil {
					t.Fatal(err)
				}
				for err == nil {
					var ok bool
					if _, ok, err = st.Next(); !ok && err == nil {
						t.Fatal("bad frame merged without error")
					}
				}
				st.Close()
				if want := "run-000000.seg at byte 20:"; !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
				if merges != pass {
					t.Fatalf("%d merges built %d decoders", pass, merges)
				}
			}
		})
	}
}
