package population

// Streaming, out-of-core simulation. The in-memory Simulate materializes
// the whole Dataset — records, ground-truth slices, canvas stores — which
// caps runs around ~20k users while the paper's dataset is 7.2M
// fingerprints. SimulateSpill runs the same generative model in bounded
// memory: users are simulated in batches, each batch's visit timeline is
// sorted and spilled as one CRC-framed run file (the storage WAL
// framing, via internal/extsort), and Stream() k-way merges the runs on
// (time, serial) back into the global record order. Only one batch of
// per-user simulation state plus one merge head per run is ever live.
//
// Determinism discipline: the streamed sequence is byte-identical to the
// in-memory path at the same Config — Workers == 0 threads the single
// legacy RNG through the batched creation passes (the visit loops
// already draw from per-instance streams keyed by global serial, so
// partitioning is invisible), and Workers != 0 reproduces the sharded
// path's per-user sub-RNGs and prefix-sum serial numbering. Batch size
// only decides when state is spilled, never what is emitted.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"fpdyn/internal/canvas"
	"fpdyn/internal/extsort"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/geoip"
	"fpdyn/internal/obs"
	"fpdyn/internal/parallel"
	"fpdyn/internal/storage"
)

// StreamItem is one record of the spilled dataset: the visit record
// plus its ground truth, the unit the run files frame and the merged
// stream yields.
type StreamItem struct {
	Rec        *fingerprint.Record
	Instance   int
	VisitIndex int
	Truth      []EventType
}

// StreamOptions configures the out-of-core path. The zero value works:
// a temp spill directory and a default memory budget.
type StreamOptions struct {
	// SpillDir hosts the run files. Empty means a fresh temp directory
	// (removed on Close). A caller-provided directory is created if
	// absent and only its fpdyn-owned subdirectories are removed.
	SpillDir string
	// MemBudget bounds the memory the simulation phase holds in flight,
	// in bytes; it is translated into a users-per-batch count with a
	// calibrated per-user estimate (default 256 MiB). The budget covers
	// the batched simulation state and spill buffers — the merge side
	// adds only one read head per run file.
	MemBudget int64
	// UsersPerBatch overrides the derived batch size directly (takes
	// precedence over MemBudget). Batch size never changes the output,
	// only peak memory and run count.
	UsersPerBatch int
	// Registry receives spill/merge metrics (runs, bytes, heap size,
	// records in flight). Nil disables.
	Registry *obs.Registry
	// Timings, when non-nil, records the simulate+spill stage.
	Timings *obs.Timings
	// OpenFile opens run files for writing (fault-injection hook);
	// defaults to os.Create.
	OpenFile func(path string) (storage.SegmentFile, error)
}

// bytesPerUserEstimate is the calibrated in-flight cost of one user in
// a simulation batch: instance + device state, the batch's records
// (~3.3 per user) and the sort/spill buffers.
const bytesPerUserEstimate = 16 << 10

func (o *StreamOptions) usersPerBatch() int {
	if o.UsersPerBatch > 0 {
		return o.UsersPerBatch
	}
	budget := o.MemBudget
	if budget <= 0 {
		budget = 256 << 20
	}
	n := int(budget / bytesPerUserEstimate)
	if n < 16 {
		n = 16
	}
	return n
}

// SpilledDataset is the out-of-core counterpart of Dataset: the scalar
// ground truth (instance count, dedup image stores, geo DB) stays in
// memory — it is bounded by the world's distinct states, not by visit
// volume — while the records live in spilled, sorted run files and are
// consumed through Stream.
type SpilledDataset struct {
	Cfg          Config
	NumInstances int
	CanvasImages map[string]*canvas.Image
	GPUImageInfo map[string]canvas.GPUInfo
	Geo          *geoip.DB
	Records      int // total records spilled

	renders *renderMemo // the run's render memo, spanning every batch
	sorter  *extsort.Sorter[StreamItem]
	root    string // spill root; removed on Close when ownRoot
	ownRoot bool
}

func itemLess(a, b StreamItem) bool {
	if !a.Rec.Time.Equal(b.Rec.Time) {
		return a.Rec.Time.Before(b.Rec.Time)
	}
	return a.Instance < b.Instance
}

var errBadItem = errors.New("population: malformed spilled item")

// encodeItem is the run files' item codec: Instance and VisitIndex as
// varints, the Truth events as a count plus strings, then the record in
// the fingerprint binary codec. An empty Truth reads back as nil.
func encodeItem(dst []byte, v StreamItem) ([]byte, error) {
	dst = binary.AppendVarint(dst, int64(v.Instance))
	dst = binary.AppendVarint(dst, int64(v.VisitIndex))
	dst = binary.AppendUvarint(dst, uint64(len(v.Truth)))
	for _, e := range v.Truth {
		dst = fingerprint.AppendString(dst, string(e))
	}
	return fingerprint.AppendRecord(dst, v.Rec), nil
}

// newItemDecoder returns the decoder for one merge stream; its
// fingerprint.Decoder interns strings across the stream's records.
func newItemDecoder() func([]byte) (StreamItem, error) {
	d := fingerprint.NewDecoder()
	return func(p []byte) (StreamItem, error) { return decodeItem(d, p) }
}

func decodeItem(d *fingerprint.Decoder, p []byte) (StreamItem, error) {
	var v StreamItem
	inst, n1 := binary.Varint(p)
	if n1 <= 0 {
		return v, errBadItem
	}
	vi, n2 := binary.Varint(p[n1:])
	if n2 <= 0 {
		return v, errBadItem
	}
	p = p[n1+n2:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)-n) {
		return v, errBadItem
	}
	p = p[n:]
	if count > 0 {
		v.Truth = make([]EventType, count)
	}
	for i := range v.Truth {
		s, rest, err := d.String(p)
		if err != nil {
			return v, err
		}
		v.Truth[i], p = EventType(s), rest
	}
	v.Rec = new(fingerprint.Record)
	rest, err := d.Decode(p, v.Rec)
	if err != nil {
		return v, err
	}
	if len(rest) != 0 {
		return v, errBadItem
	}
	v.Instance, v.VisitIndex = int(inst), int(vi)
	return v, nil
}

// NewSpillSorter builds an extsort sorter for StreamItem runs under
// dir, ordered by (time, serial), with the binary item codec.
func NewSpillSorter(dir, name string, reg *obs.Registry, open func(string) (storage.SegmentFile, error)) (*extsort.Sorter[StreamItem], error) {
	return extsort.New(extsort.Options[StreamItem]{
		Dir:        dir,
		Less:       itemLess,
		Encode:     encodeItem,
		NewDecoder: newItemDecoder,
		OpenFile:   open,
		Registry:   reg,
		Name:       name,
	})
}

// SimulateSpill generates the dataset out-of-core: every batch of users
// is simulated, sorted by (time, serial) and spilled as one run, then
// the per-batch state is dropped. The result streams the identical
// record sequence the in-memory Simulate would return for the same
// Config — for the legacy serial path (Workers == 0) and the sharded
// path (any other worker count) alike.
func SimulateSpill(cfg Config, opts StreamOptions) (sd *SpilledDataset, err error) {
	stop := opts.Timings.Start("simulate_spill")
	root := opts.SpillDir
	ownRoot := false
	if root == "" {
		root, err = os.MkdirTemp("", "fpdyn-spill-*")
		if err != nil {
			return nil, fmt.Errorf("population: spill dir: %w", err)
		}
		ownRoot = true
	} else if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("population: spill dir: %w", err)
	}
	sorter, err := NewSpillSorter(filepath.Join(root, "sim"), "simulate", opts.Registry, opts.OpenFile)
	if err != nil {
		return nil, err
	}
	out := &SpilledDataset{
		Cfg:          cfg,
		CanvasImages: make(map[string]*canvas.Image),
		GPUImageInfo: make(map[string]canvas.GPUInfo),
		Geo:          geoip.New(cfg.Cities),
		renders:      new(renderMemo),
		sorter:       sorter,
		root:         root,
		ownRoot:      ownRoot,
	}
	sd = out
	defer func() {
		if err != nil {
			out.Close()
			sd = nil
		}
	}()

	// Workers == 0 is the legacy serial reproduction path: one shared
	// RNG threads through every user's creation in order, across batch
	// boundaries. Any other value reproduces the sharded path.
	var serialRNG *rand.Rand
	if cfg.Workers == 0 {
		serialRNG = rand.New(rand.NewSource(cfg.Seed))
	}
	visitWorkers := cfg.Workers
	if visitWorkers == 0 {
		visitWorkers = 1
	}

	// gpuBest tracks, per GPU image hash, the earliest (time, serial)
	// render claim seen so far across batches — the serial path's
	// global-timeline first-wins, reconstructed from per-shard maps.
	// Only the Workers == 0 reproduction path needs it: the sharded
	// in-memory path merges in shard order, which the batch loop's
	// user-ordered fold already matches.
	var gpuBest map[string]gpuFirstKey
	if cfg.Workers == 0 {
		gpuBest = make(map[string]gpuFirstKey)
	}

	batchSize := opts.usersPerBatch()
	instBase, devBase := 0, 0
	for u0 := 0; u0 < cfg.Users; u0 += batchSize {
		u1 := u0 + batchSize
		if u1 > cfg.Users {
			u1 = cfg.Users
		}
		n := u1 - u0

		// Creation. The serial path draws from the shared stream in user
		// order; the sharded path builds each user from its own sub-RNG
		// with shard-local serials, renumbered by the running prefix sums
		// — the exact numbering simulateSharded assigns.
		var shards []*userShard
		if cfg.Workers == 0 {
			shards = make([]*userShard, n)
			for i := 0; i < n; i++ {
				ins, devs := buildUser(serialRNG, cfg, sd.Geo, u0+i, instBase, devBase)
				shards[i] = &userShard{instances: ins, devices: devs}
				instBase += len(ins)
				devBase += len(devs)
			}
		} else {
			shards = parallel.Map(cfg.Workers, n, func(i int) *userShard {
				rng := rand.New(rand.NewSource(userSeed(cfg, u0+i)))
				ins, devs := buildUser(rng, cfg, sd.Geo, u0+i, 0, 0)
				return &userShard{instances: ins, devices: devs}
			})
			for _, sh := range shards {
				for _, in := range sh.instances {
					in.serial += instBase
				}
				for _, dv := range sh.devices {
					dv.serial += devBase
					for i := range dv.schedule {
						if dv.schedule[i].except >= 0 {
							dv.schedule[i].except += instBase
						}
					}
				}
				instBase += len(sh.instances)
				devBase += len(sh.devices)
			}
		}

		// Visits: per-shard loops into private outputs (per-instance RNG
		// streams keyed by global serial make the partitioning invisible).
		parallel.ForEach(visitWorkers, n, func(i int) {
			sh := shards[i]
			sh.out = &Dataset{
				Cfg:          cfg,
				CanvasImages: make(map[string]*canvas.Image),
				GPUImageInfo: make(map[string]canvas.GPUInfo),
				Geo:          sd.Geo,
				renders:      sd.renders,
			}
			if gpuBest != nil {
				sh.out.gpuFirst = make(map[string]gpuFirstKey)
			}
			simulateVisits(cfg, sh.instances, sh.out)
		})

		// Collect the batch timeline, sort by (time, serial), spill as
		// one run; fold the dedup image stores (identical hash →
		// identical content, so first-wins is exact).
		total := 0
		for _, sh := range shards {
			total += len(sh.out.Records)
		}
		items := make([]StreamItem, 0, total)
		for _, sh := range shards {
			out := sh.out
			for i := range out.Records {
				items = append(items, StreamItem{
					Rec:        out.Records[i],
					Instance:   out.TrueInstance[i],
					VisitIndex: out.VisitIndex[i],
					Truth:      out.Truth[i],
				})
			}
			for h, img := range out.CanvasImages {
				if _, ok := sd.CanvasImages[h]; !ok {
					sd.CanvasImages[h] = img
				}
			}
			// GPU image hashes can collide across distinct GPUInfo values
			// (integrated GPUs cluster), so the winner matters. Workers ==
			// 0 reproduces the serial path's global-timeline first-wins
			// via the recorded claim keys; the sharded path merges in
			// shard (user) order exactly like simulateSharded.
			for h, info := range out.GPUImageInfo {
				if gpuBest != nil {
					k := out.gpuFirst[h]
					if old, ok := gpuBest[h]; !ok || k.before(old) {
						gpuBest[h] = k
						sd.GPUImageInfo[h] = info
					}
				} else if _, ok := sd.GPUImageInfo[h]; !ok {
					sd.GPUImageInfo[h] = info
				}
			}
		}
		sort.Slice(items, func(i, j int) bool { return itemLess(items[i], items[j]) })
		if err := sorter.WriteRun(items); err != nil {
			return nil, err
		}
		sd.Records += len(items)
	}
	sd.NumInstances = instBase
	stop(sd.Records)
	return sd, nil
}

// Stream returns a bounded-memory iterator over the merged (time,
// serial) record sequence. It can be called repeatedly; each call
// replays the identical sequence from the spilled runs (the two-pass
// ground-truth build streams twice).
func (sd *SpilledDataset) Stream() (*RecordStream, error) {
	st, err := sd.sorter.Merge()
	if err != nil {
		return nil, err
	}
	return &RecordStream{st: st}, nil
}

// SpilledBytes returns the bytes written to run files.
func (sd *SpilledDataset) SpilledBytes() int64 { return sd.sorter.SpilledBytes() }

// Runs returns the number of spilled run files.
func (sd *SpilledDataset) Runs() int { return sd.sorter.Runs() }

// SpillRoot returns the spill root directory (the report's by-instance
// re-sort spills its runs under the same root).
func (sd *SpilledDataset) SpillRoot() string { return sd.root }

// Registry returns nothing; metrics are registered on the Registry the
// caller passed in StreamOptions.

// Close deletes the spilled runs (and the temp root, when owned).
func (sd *SpilledDataset) Close() error {
	var err error
	if sd.sorter != nil {
		err = sd.sorter.Close()
	}
	if sd.ownRoot && sd.root != "" {
		if rerr := os.RemoveAll(sd.root); err == nil {
			err = rerr
		}
	}
	return err
}

// Load drains the stream into an in-memory Dataset — the legacy slice
// adapter. It exists for the digest-equality tests and for callers that
// want the spill-path generation but the slice-consuming analyses; at
// large scale use Stream instead.
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

// RecordStream iterates the merged record sequence.
type RecordStream struct {
	st *extsort.Stream[StreamItem]
}

// Next yields the next item in (time, serial) order; ok=false at the
// end. Errors (torn or corrupt run files) poison the stream.
func (rs *RecordStream) Next() (StreamItem, bool, error) { return rs.st.Next() }

// Close releases the merge readers.
func (rs *RecordStream) Close() error { return rs.st.Close() }
