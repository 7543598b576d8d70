package main

import (
	"encoding/json"
	"io/fs"
	"path/filepath"
	"runtime"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
)

// memDelta measures the runtime around one phase: GC pause time and
// bytes allocated, process-wide.
type memDelta struct{ pauseNs, allocBytes uint64 }

func memSample() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memSample()
	return memDelta{pauseNs: m1.PauseTotalNs - m0.PauseTotalNs, allocBytes: m1.TotalAlloc - m0.TotalAlloc}
}

// runtimeLayer fills the runtime.* per-layer metrics for a phase of ops
// operations.
func runtimeLayer(o *outcome, d memDelta, ops int) {
	o.layer["runtime.gc_pause_ms"] = float64(d.pauseNs) / 1e6
	if ops > 0 {
		o.layer["runtime.alloc_bytes_per_op"] = float64(d.allocBytes) / float64(ops)
	}
}

// dirSize sums the sizes of the regular files under root.
func dirSize(root string) int64 {
	var n int64
	filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// simulate generates the seeded population on every core and reports
// the bytes the simulator allocated per record.
func simulate(users int, seed int64) (*population.Dataset, float64) {
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	cfg.Workers = -1
	m0 := memSample()
	ds := population.Simulate(cfg)
	d := memSince(m0)
	return ds, float64(d.allocBytes) / float64(len(ds.Records))
}

// codecCost times json.Marshal and json.Unmarshal — the record codec
// every durable and wire path uses — over recs, and returns the total
// time of each. The decoded copies are checked against the input.
func codecCost(recs []*fingerprint.Record) (enc, dec time.Duration, err error) {
	bufs := make([][]byte, len(recs))
	t0 := time.Now()
	for i, r := range recs {
		if bufs[i], err = json.Marshal(r); err != nil {
			return 0, 0, err
		}
	}
	enc = time.Since(t0)
	t0 = time.Now()
	for _, b := range bufs {
		var r fingerprint.Record
		if err = json.Unmarshal(b, &r); err != nil {
			return 0, 0, err
		}
	}
	dec = time.Since(t0)
	return enc, dec, nil
}

// medianSetup runs setup n times, each from a settled heap, and returns
// the median wall time and the last result.
func medianSetup[T any](n int, setup func() (T, error)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return medianOf(secs), last, nil
}
