package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// spanAt builds a span from millisecond offsets.
func spanAt(id, parent, req int64, name string, startMs, endMs float64, derived bool) span {
	ms := float64(time.Millisecond)
	return span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(startMs * ms), End: int64(endMs * ms), Derived: derived}
}

func TestLedgerSelfTimes(t *testing.T) {
	spans := []span{
		// A 10ms request: 1ms late, a 9ms round trip holding a 2ms
		// decode and a 5ms query whose 4ms is the engine.
		spanAt(1, 0, 1, "request.query", 0, 10, false),
		spanAt(2, 1, 1, "loadgen.wake", 0, 1, false),
		spanAt(3, 1, 1, "linkd.roundtrip", 1, 10, false),
		spanAt(4, 3, 1, "linkd.decode", 1, 3, true),
		spanAt(5, 3, 1, "linkd.Service.Query", 3, 8, true),
		spanAt(6, 5, 1, "fpstalker.TopKCtx", 3, 7, true),
	}
	lg := computeLedger(spans)
	want := map[string]time.Duration{
		"request":   0,
		"loadgen":   1 * time.Millisecond,
		"linkd":     (9 - 2 - 5 + 2 + 1) * time.Millisecond, // roundtrip, decode, query self
		"fpstalker": 4 * time.Millisecond,
	}
	if !reflect.DeepEqual(lg.Self, want) {
		t.Fatalf("self times %v, want %v", lg.Self, want)
	}
	var sum time.Duration
	for _, d := range lg.Self {
		sum += d
	}
	if sum != 10*time.Millisecond || lg.EndToEnd != 10*time.Millisecond {
		t.Fatalf("self times sum to %v over %v end to end; they must telescope to the request", sum, lg.EndToEnd)
	}
	if got := lg.coverage(); got != 1 {
		t.Fatalf("coverage %v, want 1 when every instant is inside a layer", got)
	}
	if got := lg.topLayers(2); !reflect.DeepEqual(got, []string{"linkd", "fpstalker"}) {
		t.Fatalf("top layers %v", got)
	}
}

func TestLedgerCoverageCountsGaps(t *testing.T) {
	spans := []span{
		// A 10ms request with only 6ms inside layers: a 4ms gap.
		spanAt(1, 0, 1, "request.batch", 0, 10, false),
		spanAt(2, 1, 1, "collector.SubmitBatch", 2, 8, false),
		// A second request, fully covered: 10ms more end to end.
		spanAt(3, 0, 3, "request.batch", 20, 30, false),
		spanAt(4, 3, 3, "collector.SubmitBatch", 20, 30, false),
	}
	lg := computeLedger(spans)
	if got := lg.coverage(); got != 0.8 {
		t.Fatalf("coverage %v, want 16ms of 20ms", got)
	}
	if got := lg.shares()["request"]; got != 0.2 {
		t.Fatalf("unattributed share %v, want 0.2", got)
	}
}

func TestLedgerOvershootIsNegativeNotClamped(t *testing.T) {
	// A twin measured slower than the call it stands for.
	spans := []span{
		spanAt(1, 0, 1, "request.pipeline", 0, 10, false),
		spanAt(2, 1, 1, "report.NewStream", 0, 10, false),
		spanAt(3, 2, 1, "extsort.pass", 0, 12, true),
	}
	lg := computeLedger(spans)
	if lg.Self["report"] != -2*time.Millisecond {
		t.Fatalf("report self %v, want -2ms", lg.Self["report"])
	}
	if got := lg.coverage(); got != 1 {
		t.Fatalf("coverage %v: overshoot and undershoot must cancel within a request", got)
	}
}

func TestTracerDeriveLaysSpansBackToBack(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin.Add(time.Second)
	req := tr.add(0, 0, "request.batch", t0, t0.Add(10*time.Millisecond))
	call := tr.add(req, req, "collector.SubmitBatch", t0, t0.Add(10*time.Millisecond))
	cur := t0
	a := tr.derive(req, call, "fingerprint.decode", &cur, 3*time.Millisecond)
	b := tr.derive(req, call, "storage.AppendBatchDurable", &cur, 4*time.Millisecond)
	spans := tr.snapshot()
	if spans[0].Req != req || spans[0].ID != req {
		t.Fatalf("root span must name its own request: %+v", spans[0])
	}
	if spans[a-1].End != spans[b-1].Start || !spans[b-1].Derived {
		t.Fatalf("derived spans not back to back: %+v %+v", spans[a-1], spans[b-1])
	}
	if got := computeLedger(spans).Self["collector"]; got != 3*time.Millisecond {
		t.Fatalf("collector residual %v, want 3ms", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeFile(path, map[string]string{"workload": "ingest"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &doc) != nil || len(doc.Spans) != 4 {
		t.Fatalf("trace file round trip: %v, %d spans", err, len(doc.Spans))
	}
	var nilTracer *tracer
	if nilTracer.add(0, 0, "request.x", t0, t0) != 0 || nilTracer.snapshot() != nil {
		t.Fatal("the untraced (nil) tracer must record nothing")
	}
}
