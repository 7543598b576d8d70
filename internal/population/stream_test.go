package population

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/storage"
)

// Load drains the stream into an in-memory Dataset: the oracle the
// digest-equality tests hold the spill path to against Simulate.
func (sd *SpilledDataset) Load() (*Dataset, error) {
	ds := &Dataset{
		Cfg:          sd.Cfg,
		CanvasImages: sd.CanvasImages,
		GPUImageInfo: sd.GPUImageInfo,
		Geo:          sd.Geo,
		NumInstances: sd.NumInstances,
	}
	st, err := sd.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for {
		item, ok, err := st.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return ds, nil
		}
		ds.Records = append(ds.Records, item.Rec)
		ds.TrueInstance = append(ds.TrueInstance, item.Instance)
		ds.VisitIndex = append(ds.VisitIndex, item.VisitIndex)
		ds.Truth = append(ds.Truth, item.Truth)
	}
}

func streamTestConfig(workers int) Config {
	cfg := DefaultConfig(150)
	cfg.Seed = 42
	cfg.Workers = workers
	return cfg
}

// datasetDigest hashes the full dataset through JSON — record bytes,
// ground truth, image stores — so byte-identical means byte-identical
// after the spill round-trip too (reflect.DeepEqual would trip over
// time.Time monotonic clocks).
func datasetDigest(t *testing.T, ds *Dataset) uint64 {
	t.Helper()
	var parts []string
	for i, r := range ds.Records {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := json.Marshal(ds.Truth[i])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, string(b), string(truth))
		parts = append(parts,
			string(rune(ds.TrueInstance[i])),
			string(rune(ds.VisitIndex[i])))
	}
	imgs, err := json.Marshal(ds.CanvasImages)
	if err != nil {
		t.Fatal(err)
	}
	gpus, err := json.Marshal(ds.GPUImageInfo)
	if err != nil {
		t.Fatal(err)
	}
	parts = append(parts, string(imgs), string(gpus))
	return hashutil.HashStrings(parts...)
}

// TestSpillDigestEquality is the tentpole determinism gate: the spill
// path must reproduce the in-memory Simulate byte-for-byte at every
// worker count (0 resolves to NumCPU, like -1).
func TestSpillDigestEquality(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		cfg := streamTestConfig(workers)
		want := Simulate(cfg)
		sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: 32})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := sd.Load()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sd.NumInstances != want.NumInstances {
			t.Fatalf("workers=%d: NumInstances %d, want %d", workers, sd.NumInstances, want.NumInstances)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got.Records), len(want.Records))
		}
		if dg, dw := datasetDigest(t, got), datasetDigest(t, want); dg != dw {
			t.Fatalf("workers=%d: stream digest %016x != in-memory %016x", workers, dg, dw)
		}
		if sd.Records != len(want.Records) {
			t.Fatalf("workers=%d: spilled %d records, want %d", workers, sd.Records, len(want.Records))
		}
		if err := sd.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillBatchInvariance asserts batch size changes spill layout but
// never output: tiny batches and one giant batch stream identically.
func TestSpillBatchInvariance(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := streamTestConfig(workers)
		var digests []uint64
		var runs []int
		for _, batch := range []int{7, 1000} {
			sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := sd.Load()
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, datasetDigest(t, ds))
			runs = append(runs, sd.Runs())
			sd.Close()
		}
		if digests[0] != digests[1] {
			t.Fatalf("workers=%d: batch=7 digest %016x != batch=1000 digest %016x",
				workers, digests[0], digests[1])
		}
		if runs[0] <= runs[1] {
			t.Fatalf("workers=%d: expected more runs at batch=7 (%d) than batch=1000 (%d)",
				workers, runs[0], runs[1])
		}
	}
}

// TestSpillStreamOrder checks the merged stream is globally
// (time, serial)-ordered and restreamable.
func TestSpillStreamOrder(t *testing.T) {
	cfg := streamTestConfig(4)
	sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	for pass := 0; pass < 2; pass++ {
		st, err := sd.Stream()
		if err != nil {
			t.Fatal(err)
		}
		var prev StreamItem
		n := 0
		for {
			item, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if n > 0 && itemLess(item, prev) {
				t.Fatalf("pass %d: stream out of order at record %d", pass, n)
			}
			prev = item
			n++
		}
		st.Close()
		if n != sd.Records {
			t.Fatalf("pass %d: streamed %d records, want %d", pass, n, sd.Records)
		}
	}
}

// TestSpillEachBatch: every batch EachBatch yields is closed under
// user ID, with "-shared" second accounts folded into their user, and
// the batches, merged on (time, serial), are Stream's sequence: split
// by batch, Stream's records are each batch's raw bytes in order.
func TestSpillEachBatch(t *testing.T) {
	sd, err := SimulateSpill(streamTestConfig(2), StreamOptions{UsersPerBatch: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	base := func(user string) string { return strings.TrimSuffix(user, "-shared") }
	owner := map[string]int{} // base user → its batch
	shared := 0
	var batches [][][]byte
	d := fingerprint.NewDecoder()
	err = sd.EachBatch(func(raws [][]byte) error {
		b := len(batches)
		for _, raw := range raws {
			var rec fingerprint.Record
			if _, err := d.Decode(raw, &rec); err != nil {
				return err
			}
			if strings.HasSuffix(rec.UserID, "-shared") {
				shared++
			}
			if o, ok := owner[base(rec.UserID)]; ok && o != b {
				t.Fatalf("user %s has records in batches %d and %d", rec.UserID, o, b)
			}
			owner[base(rec.UserID)] = b
		}
		batches = append(batches, append([][]byte(nil), raws...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != sd.Runs() || len(batches) < 2 {
		t.Fatalf("EachBatch yielded %d batches over %d runs, want one per run and several", len(batches), sd.Runs())
	}
	if shared == 0 {
		t.Fatal("no -shared account in the world; the closure check does not cover them")
	}
	ds, err := sd.Load()
	if err != nil {
		t.Fatal(err)
	}
	next := make([]int, len(batches))
	for i, rec := range ds.Records {
		b := owner[base(rec.UserID)]
		if next[b] == len(batches[b]) {
			t.Fatalf("record %d: batch %d has no record left for it", i, b)
		}
		var got fingerprint.Record
		if rest, err := d.Decode(batches[b][next[b]], &got); err != nil || len(rest) != 0 {
			t.Fatalf("record %d: raw bytes: err %v, %d trailing bytes", i, err, len(rest))
		}
		if !reflect.DeepEqual(&got, rec) {
			t.Fatalf("record %d: batch %d's record %d differs from Stream's", i, b, next[b])
		}
		next[b]++
	}
	for b, n := range next {
		if n != len(batches[b]) {
			t.Fatalf("batch %d: Stream holds %d of its %d records", b, n, len(batches[b]))
		}
	}
}

// TestSpillWriteFailure scripts a spill-file write fault: SimulateSpill
// must fail loudly instead of recording a short run.
func TestSpillWriteFailure(t *testing.T) {
	cfg := streamTestConfig(1)
	sd, err := SimulateSpill(cfg, StreamOptions{
		UsersPerBatch: 50,
		openFile: func(path string) (storage.SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, Script: &faultinject.Script{FailAfter: 4096}}, nil
		},
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		if sd != nil {
			sd.Close()
		}
		t.Fatalf("want injected write error, got %v", err)
	}
	if sd != nil {
		t.Fatal("SimulateSpill returned a dataset alongside an error")
	}
}

// TestSpillTornSegment truncates a spilled run mid-frame: the merge
// must surface a torn-frame error, never silently drop the tail.
func TestSpillTornSegment(t *testing.T) {
	cfg := streamTestConfig(1)
	dir := t.TempDir()
	sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: 50, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	path := filepath.Join(dir, "sim", "run-000000.seg")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	st, err := sd.Stream()
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
		t.Fatal("torn spill segment streamed without error")
	}
}

// jsonItem is the JSON form the run files carried before the binary
// codec, omitempty Truth included.
type jsonItem struct {
	Rec        *fingerprint.Record `json:"rec"`
	Instance   int                 `json:"inst"`
	VisitIndex int                 `json:"vi"`
	Truth      []EventType         `json:"truth,omitempty"`
}

// TestSpillCodecMatchesJSON is the JSON-equivalence property on the
// spill codec: for every simulated item plus the edge cases, the binary
// round trip is reflect.DeepEqual to the JSON round trip the run files
// used to make.
func TestSpillCodecMatchesJSON(t *testing.T) {
	ds := Simulate(streamTestConfig(2))
	items := make([]StreamItem, 0, len(ds.Records)+8)
	for i, r := range ds.Records {
		items = append(items, StreamItem{Rec: r, Instance: ds.TrueInstance[i], VisitIndex: ds.VisitIndex[i], Truth: ds.Truth[i]})
	}
	edge := func(mut func(*StreamItem)) {
		it := StreamItem{Rec: ds.Records[0], Instance: 7, VisitIndex: -1, Truth: []EventType{EvBrowserUpdate}}
		rec := *it.Rec
		fp := rec.FP.Clone()
		rec.FP = fp
		it.Rec = &rec
		mut(&it)
		items = append(items, it)
	}
	edge(func(it *StreamItem) { it.Truth = []EventType{} })
	edge(func(it *StreamItem) { it.Truth = nil; it.Rec.FP = nil })
	edge(func(it *StreamItem) { it.Rec.FP.Fonts, it.Rec.FP.Plugins = []string{}, nil })
	edge(func(it *StreamItem) { it.Rec.Time = time.Time{} })
	edge(func(it *StreamItem) { it.Rec.Time = it.Rec.Time.In(time.FixedZone("", -(3*3600 + 1800))) })
	edge(func(it *StreamItem) {
		it.Rec.UserID, it.Rec.FP.Fonts = "ユーザー", []string{"微软雅黑", "😀"}
	})
	edge(func(it *StreamItem) { it.Truth = []EventType{"", "ünïcode"}; it.Instance = 1 << 40 })

	dec := newItemDecoder()
	for i, it := range items {
		p, err := encodeItem(nil, it)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec(p)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		b, err := json.Marshal(jsonItem{it.Rec, it.Instance, it.VisitIndex, it.Truth})
		if err != nil {
			t.Fatal(err)
		}
		var want jsonItem
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, StreamItem{Rec: want.Rec, Instance: want.Instance, VisitIndex: want.VisitIndex, Truth: want.Truth}) {
			t.Fatalf("item %d: binary round trip\n%+v\nJSON round trip\n%+v", i, got, want)
		}
	}
}

// TestSpillConcurrentStreams drains two merges of the same spill from
// two goroutines (opening them stays on one, as the sorter requires):
// each stream has its own decoder, so under -race this shows the
// intern tables are not shared.
func TestSpillConcurrentStreams(t *testing.T) {
	sd, err := SimulateSpill(streamTestConfig(2), StreamOptions{UsersPerBatch: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	counts := make([]int, 2)
	errs := make(chan error, len(counts))
	for i := range counts {
		st, err := sd.Stream()
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		go func(i int) {
			for {
				_, ok, err := st.Next()
				if err != nil || !ok {
					errs <- err
					return
				}
				counts[i]++
			}
		}(i)
	}
	for range counts {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range counts {
		if n != sd.Records {
			t.Fatalf("stream %d yielded %d records, want %d", i, n, sd.Records)
		}
	}
}

// BenchmarkSimulateSpill runs simulate-and-spill at the shape of
// perfbench's pipeline workload: 4,000 users under a 6 MiB budget
// (several spilled runs), sharded across every core.
func BenchmarkSimulateSpill(b *testing.B) {
	cfg := DefaultConfig(4000)
	cfg.Seed = 1
	cfg.Workers = -1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sd, err := SimulateSpill(cfg, StreamOptions{MemBudget: 6 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sd.Records), "records/op")
		if err := sd.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
