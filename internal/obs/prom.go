package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every metric in the text exposition format
// (version 0.0.4): one # HELP/# TYPE pair per metric name, then one
// line per series. Histograms expand into the standard _bucket
// (cumulative, le-labelled), _sum and _count series. Samplers run
// first, so scrape-time gauges (runtime stats, client queue depths)
// are fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.snapshotMetrics()
	emitted := map[string]bool{}
	for _, m := range ms {
		if !emitted[m.name] {
			emitted[m.name] = true
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, promType(m.kind)); err != nil {
				return err
			}
		}
		if err := writeSeries(w, m); err != nil {
			return err
		}
	}
	return nil
}

func promType(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	}
	return "gauge"
}

// writeSeries emits the sample lines of one metric.
func writeSeries(w io.Writer, m *metric) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", m.key, m.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", m.key, formatFloat(m.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %s\n", m.key, formatFloat(m.gfn()))
		return err
	case kindHistogram:
		s := m.hist.Snapshot()
		for _, b := range s.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = formatFloat(b.UpperBound)
			}
			key := metricKey(m.name+"_bucket", append(append([]string(nil), m.labels...), "le", le))
			if _, err := fmt.Fprintf(w, "%s %d\n", key, b.Cumulative); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", metricKey(m.name+"_sum", m.labels), formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", metricKey(m.name+"_count", m.labels), s.Count)
		return err
	}
	return nil
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trip representation, no exponent for small ints.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the /varz JSON view: every series keyed by its canonical
// name (labels included), counters and gauges as numbers, histograms
// as {count, sum, p50, p95, p99} objects.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Samplers run first.
func (r *Registry) Snapshot() Snapshot {
	ms := r.snapshotMetrics()
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, m := range ms {
		switch m.kind {
		case kindCounter:
			s.Counters[m.key] = m.counter.Value()
		case kindGauge:
			s.Gauges[m.key] = m.gauge.Value()
		case kindGaugeFunc:
			s.Gauges[m.key] = m.gfn()
		case kindHistogram:
			s.Histograms[m.key] = m.hist.Snapshot()
		}
	}
	return s
}

// MergeSnapshots combines per-subsystem snapshots (server, WAL,
// runtime) into one /varz document. Later snapshots win on key
// collisions; subsystems use distinct metric prefixes so collisions do
// not occur in practice.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range s.Histograms {
			out.Histograms[k] = v
		}
	}
	return out
}

// WriteJSON renders the snapshot with sorted keys (encoding/json sorts
// map keys) and a trailing newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
