package main

import (
	"math"
	"sort"
	"time"
)

// samples holds every observation of one latency-like quantity in
// milliseconds. Percentiles are exact (nearest rank over the sorted
// samples), never interpolated from histogram buckets. A failed
// operation is stored as +Inf: it counts as a sample that missed every
// latency limit.
type samples struct {
	ms     []float64 // in the order taken
	sorted []float64 // sorted copy, rebuilt after adds
}

func (s *samples) add(d time.Duration) { s.addMs(float64(d) / float64(time.Millisecond)) }

func (s *samples) addMs(v float64) {
	s.ms = append(s.ms, v)
	s.sorted = nil
}

// addFailed records an operation that produced no valid answer.
func (s *samples) addFailed() { s.addMs(math.Inf(1)) }

func (s *samples) n() int { return len(s.ms) }

// rank returns the 1-based nearest rank of quantile q over n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the exact q-quantile (nearest rank) and how many
// samples lie strictly above its rank. It returns 0, 0 when empty.
func (s *samples) quantile(q float64) (v float64, beyond int) {
	if len(s.ms) == 0 {
		return 0, 0
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.ms...)
		sort.Float64s(s.sorted)
	}
	r := rank(q, len(s.ms))
	return s.sorted[r-1], len(s.ms) - r
}

// median is quantile(0.5) without the tail count.
func (s *samples) median() float64 {
	v, _ := s.quantile(0.5)
	return v
}

// pct is one reported percentile with the evidence behind it.
type pct struct {
	Value     float64   `json:"value"`
	Samples   int       `json:"samples"`
	Beyond    int       `json:"beyond"`            // samples above the rank (fewest in any window)
	Windows   int       `json:"windows,omitempty"` // windows the value is the median of
	PerWindow []float64 `json:"per_window,omitempty"`
}

// report returns the q-quantile with its sample count. A percentile
// that lands on a failed sample is reported as limitMs, the latency
// limit every failure missed, so the value stays a finite number.
func (s *samples) report(q, limitMs float64) pct {
	v, beyond := s.quantile(q)
	if math.IsInf(v, 1) {
		v = limitMs
	}
	return pct{Value: v, Samples: s.n(), Beyond: beyond}
}

// tailWindow is the smallest window a tail percentile is computed over:
// p99 of 1000 samples has ten samples beyond it.
const tailWindow = 1000

// reportTail returns the q-quantile robustly against clustered stalls:
// the samples, in the order they were taken, are cut into windows of
// at least tailWindow samples, the exact q-quantile is computed in each,
// and the median over windows is reported. With fewer than two windows'
// worth of samples it is the plain exact quantile.
func (s *samples) reportTail(q, limitMs float64) pct {
	k := len(s.ms) / tailWindow
	if k < 2 {
		return s.report(q, limitMs)
	}
	vals := make([]float64, 0, k)
	minBeyond := len(s.ms)
	for w := 0; w < k; w++ {
		lo, hi := w*len(s.ms)/k, (w+1)*len(s.ms)/k
		win := samples{ms: s.ms[lo:hi]}
		p := win.report(q, limitMs)
		vals = append(vals, p.Value)
		minBeyond = min(minBeyond, p.Beyond)
	}
	return pct{Value: medianOf(vals), Samples: len(s.ms), Beyond: minBeyond, Windows: k, PerWindow: vals}
}

// medianOf returns the median of vs (mean of the middle pair when even).
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
