package population

// Streaming, out-of-core simulation. The in-memory Simulate materializes
// the whole Dataset — records, ground-truth slices, canvas stores — which
// caps runs around ~20k users while the paper's dataset is 7.2M
// fingerprints. SimulateSpill runs the same generative model in bounded
// memory: users are simulated in batches, each batch's visit timeline is
// sorted and spilled as one CRC-framed run file (the storage WAL
// framing, via internal/extsort). Stream() k-way merges the runs on
// (time, serial) back into the global record order, with one merge
// head per run live; EachBatch hands out one whole run at a time,
// unmerged. Only one batch of per-user simulation state is ever live.
//
// Determinism discipline: the streamed sequence is byte-identical to
// Simulate at the same Config. Both run the same batch generator
// (sharded.go), whose per-user sub-RNGs and prefix-sum serial
// numbering do not depend on where the batch boundaries fall, and the
// per-instance visit streams are keyed by global serial. Batch size
// only decides when state is spilled, never what is emitted.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fpdyn/internal/canvas"
	"fpdyn/internal/extsort"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/geoip"
	"fpdyn/internal/obs"
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
	//
	// api: TestSimulateGolden and the report's stream tests split small
	// populations into several runs with it.
	UsersPerBatch int
	// Registry receives spill/merge metrics (runs, bytes, heap size,
	// records in flight). Nil disables.
	Registry *obs.Registry
	// Timings, when non-nil, records the simulate+spill stage.
	Timings *obs.Timings
	// openFile opens run files for writing (fault-injection hook);
	// defaults to os.Create.
	openFile func(path string) (storage.SegmentFile, error)
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
	return func(p []byte) (StreamItem, error) {
		var v StreamItem
		inst, vi, truth, p, err := splitItem(p)
		if err != nil {
			return v, err
		}
		if truth > 0 {
			v.Truth = make([]EventType, truth)
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
}

// splitItem reads an item's Instance, VisitIndex and Truth count, and
// returns the rest: the Truth strings, then the record.
func splitItem(p []byte) (inst, vi int64, truth int, rest []byte, err error) {
	inst, n1 := binary.Varint(p)
	if n1 <= 0 {
		return 0, 0, 0, nil, errBadItem
	}
	vi, n2 := binary.Varint(p[n1:])
	if n2 <= 0 {
		return 0, 0, 0, nil, errBadItem
	}
	p = p[n1+n2:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(len(p)-n) {
		return 0, 0, 0, nil, errBadItem
	}
	return inst, vi, int(count), p[n:], nil
}

// recordBytes returns the record's encoded bytes within an item,
// skipping the ground truth undecoded.
func recordBytes(p []byte) ([]byte, error) {
	_, _, truth, p, err := splitItem(p)
	for ; err == nil && truth > 0; truth-- {
		n, k := binary.Uvarint(p)
		if k <= 0 || n > uint64(len(p)-k) {
			return nil, errBadItem
		}
		p = p[k+int(n):]
	}
	return p, err
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
// Config.
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
	sorter, err := NewSpillSorter(filepath.Join(root, "sim"), "simulate", opts.Registry, opts.openFile)
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

	batchSize := opts.usersPerBatch()
	instBase := 0
	for u0 := 0; u0 < cfg.Users; u0 += batchSize {
		u1 := min(u0+batchSize, cfg.Users)
		var shards []*userShard
		shards, instBase = simulateBatch(cfg, sd.Geo, sd.renders, u0, u1, instBase)
		items := mergeBatch(shards, sd.CanvasImages, sd.GPUImageInfo)
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
// replays the identical sequence from the spilled runs. Next yields
// items in (time, serial) order, ok=false at the end; a torn or
// corrupt run file poisons the stream. Close releases the merge
// readers.
func (sd *SpilledDataset) Stream() (*extsort.Stream[StreamItem], error) {
	return sd.sorter.Merge()
}

// EachBatch hands fn the records of one simulation batch at a time, in
// the fingerprint binary codec and in (time, serial) order: each
// spilled run read once, unmerged. A batch is a contiguous range of
// users and holds each one's "-shared" second account too, so every
// batch is closed under user ID; merged on (time, serial), the batches
// replay Stream's sequence. fn may keep a record's bytes but not raws
// itself, which is reused; only one batch is resident if fn keeps
// nothing. It stops at the first error.
func (sd *SpilledDataset) EachBatch(fn func(raws [][]byte) error) error {
	var raws [][]byte
	batch := 0
	return sd.sorter.EachRun(func(payloads [][]byte) error {
		raws = raws[:0]
		for _, p := range payloads {
			raw, err := recordBytes(p)
			if err != nil {
				return fmt.Errorf("population: batch %d: %w", batch, err)
			}
			raws = append(raws, raw)
		}
		batch++
		err := fn(raws)
		clear(raws)
		return err
	})
}

// SpilledBytes returns the bytes written to run files.
func (sd *SpilledDataset) SpilledBytes() int64 { return sd.sorter.SpilledBytes() }

// Runs returns the number of spilled run files.
func (sd *SpilledDataset) Runs() int { return sd.sorter.Runs() }

// SpillRoot returns the spill root directory; the runs are in its
// "sim" subdirectory.
func (sd *SpilledDataset) SpillRoot() string { return sd.root }

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
