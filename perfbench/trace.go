package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span times one call the benchmark makes into a layer of the
// program, or one request as its client sees it. The layer is the name
// up to the first dot: "request.query" is a request root,
// "linkd.roundtrip" the linkd layer, "fpstalker.TopKCtx" the matching
// engine.
//
// Derived spans are not timed around the call they stand for: the
// program runs that work inside a call the benchmark cannot open
// (server-side decode, the WAL append behind an ACK, the stages inside
// report.NewStream). They carry a duration measured in the same run —
// by the program's own obs.Timings stages, or by calling the same
// public function on the same input (a "twin") — and are laid out
// back to back from their parent's start.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// Every root span is a request: an end-to-end operation as its client
// sees it. The load generator's own time inside a request (waiting for
// its lane, waking up late) is the loadgen layer: part of the ledger,
// but not of the program.
const (
	layerRequest = "request"
	layerLoadgen = "loadgen"
)

// tracer collects spans. A nil *tracer is the untraced run: every
// method is a no-op, so workloads call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span that ran from start to end and returns its id.
func (t *tracer) add(req, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.put(span{Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// derive records a derived span of duration d starting at *cursor and
// advances the cursor past it.
func (t *tracer) derive(req, parent int64, name string, cursor *time.Time, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	start := *cursor
	*cursor = start.Add(d)
	return t.put(span{Parent: parent, Req: req, Name: name, Derived: true,
		Start: int64(start.Sub(t.origin)), End: int64(cursor.Sub(t.origin))})
}

func (t *tracer) put(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s.ID = t.nextID
	if s.Req == 0 {
		s.Req = s.ID // a root span names its request
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the trace as one JSON document.
func (t *tracer) writeFile(path string, stamp any) error {
	data, err := json.Marshal(struct {
		Stamp any    `json:"stamp"`
		Spans []span `json:"spans"`
	}{stamp, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ledger is the self-time arithmetic over a trace.
type ledger struct {
	// Self is each layer's self time: the summed duration of its spans
	// minus the summed duration of their direct children. Derived
	// children that overshoot their parent make it negative; it is
	// reported as measured, not clamped, so the self times inside a
	// request add up to the request.
	Self map[string]time.Duration
	// EndToEnd is the summed duration of request roots.
	EndToEnd time.Duration
	// Covered is the summed self time of every layer except the
	// request roots themselves.
	Covered time.Duration
}

func computeLedger(spans []span) ledger {
	lg := ledger{Self: map[string]time.Duration{}}
	childSum := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		layer := layerOf(s.Name)
		self := s.dur() - childSum[s.ID]
		lg.Self[layer] += self
		if s.Parent == 0 {
			lg.EndToEnd += s.dur()
		}
		if layer != layerRequest {
			lg.Covered += self
		}
	}
	return lg
}

// coverage is the share of end-to-end request time attributed to a
// layer rather than left as a gap in the request's own span: ROADMAP's
// ledger rule asks for at least 0.9.
func (lg ledger) coverage() float64 {
	if lg.EndToEnd <= 0 {
		return 0
	}
	return float64(lg.Covered) / float64(lg.EndToEnd)
}

// shares is each layer's self time inside requests as a share of
// end-to-end time; the request layer's share is the unattributed gap.
func (lg ledger) shares() map[string]float64 {
	m := map[string]float64{}
	if lg.EndToEnd <= 0 {
		return m
	}
	for l, d := range lg.Self {
		m[l] = float64(d) / float64(lg.EndToEnd)
	}
	return m
}

// topLayers names the program layers with the largest self time inside
// requests, largest first.
func (lg ledger) topLayers(n int) []string {
	var ls []string
	for l := range lg.Self {
		if l != layerRequest && l != layerLoadgen {
			ls = append(ls, l)
		}
	}
	sort.Slice(ls, func(i, j int) bool {
		if lg.Self[ls[i]] != lg.Self[ls[j]] {
			return lg.Self[ls[i]] > lg.Self[ls[j]]
		}
		return ls[i] < ls[j]
	})
	if len(ls) > n {
		ls = ls[:n]
	}
	return ls
}
