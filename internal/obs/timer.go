package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// StageTiming is the wall time and throughput of one named pipeline
// stage — the schema of the machine-readable stage-timing JSON emitted
// by cmd/fpreport and cmd/fpgen -stage-timing.
type StageTiming struct {
	Stage      string  `json:"stage"`
	Records    int     `json:"records"`
	Seconds    float64 `json:"seconds"`
	RecsPerSec float64 `json:"records_per_sec"`
}

// Timings collects named stage timings in completion order. A nil
// *Timings is a valid no-op collector, so pipeline code can thread one
// through unconditionally and pay nothing when timing is off.
type Timings struct {
	mu     sync.Mutex
	stages []StageTiming
	snap   *Snapshot
}

// Observe appends one finished stage.
func (t *Timings) Observe(stage string, records int, elapsed time.Duration) {
	if t == nil {
		return
	}
	sec := elapsed.Seconds()
	rps := 0.0
	if sec > 0 {
		rps = float64(records) / sec
	}
	t.mu.Lock()
	t.stages = append(t.stages, StageTiming{Stage: stage, Records: records, Seconds: sec, RecsPerSec: rps})
	t.mu.Unlock()
}

// Start begins timing a stage; the returned func stops the clock and
// records the stage with the given record count:
//
//	stop := timings.Start("ground_truth")
//	gt := browserid.Build(records)
//	stop(len(records))
func (t *Timings) Start(stage string) func(records int) {
	if t == nil {
		return func(int) {}
	}
	begin := time.Now()
	return func(records int) {
		t.Observe(stage, records, time.Since(begin))
	}
}

// Stages returns a copy of the recorded stages in completion order.
func (t *Timings) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageTiming, len(t.stages))
	copy(out, t.stages)
	return out
}

// TotalSeconds sums the recorded stage durations.
func (t *Timings) TotalSeconds() float64 {
	var total float64
	for _, s := range t.Stages() {
		total += s.Seconds
	}
	return total
}

// SetSnapshot attaches a metrics snapshot to the stage-timing document
// — the streaming pipeline stores its final registry scrape (spill
// runs/bytes, merge heap peaks) here so the `-stage-timing` JSON
// carries the counters alongside the wall times.
func (t *Timings) SetSnapshot(s Snapshot) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.snap = &s
	t.mu.Unlock()
}

// stageTimingDoc is the on-disk JSON envelope.
type stageTimingDoc struct {
	TotalSeconds float64       `json:"total_seconds"`
	Stages       []StageTiming `json:"stages"`
	Metrics      *Snapshot     `json:"metrics,omitempty"`
}

// WriteJSON renders the stage-timing document.
func (t *Timings) WriteJSON(w io.Writer) error {
	doc := stageTimingDoc{TotalSeconds: t.TotalSeconds(), Stages: t.Stages()}
	if t != nil {
		t.mu.Lock()
		doc.Metrics = t.snap
		t.mu.Unlock()
	}
	if doc.Stages == nil {
		doc.Stages = []StageTiming{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteFile writes the stage-timing document to path.
func (t *Timings) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
