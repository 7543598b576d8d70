package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // taken out of order
		s.addMs(float64(i))
	}
	for _, c := range []struct {
		q            float64
		want         float64
		beyond, rank int
	}{
		{0.50, 50, 50, 50},
		{0.99, 99, 1, 99},
		{1.00, 100, 0, 100},
		{0.001, 1, 99, 1},
	} {
		v, beyond := s.quantile(c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("q=%v: got %v (%d beyond), want %v (%d beyond)", c.q, v, beyond, c.want, c.beyond)
		}
	}
	if s.ms[0] != 100 {
		t.Errorf("quantile reordered the samples: first is %v", s.ms[0])
	}
}

func TestFailedSampleMissesEveryLimit(t *testing.T) {
	var s samples
	for i := 0; i < 98; i++ {
		s.add(time.Millisecond)
	}
	s.addFailed()
	s.addFailed()
	if v, _ := s.quantile(0.99); !math.IsInf(v, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", v)
	}
	p := s.report(0.99, 5000)
	if p.Value != 5000 || p.Samples != 100 || p.Beyond != 1 {
		t.Fatalf("report = %+v, want the 5000ms limit over 100 samples with 1 beyond", p)
	}
	if got := s.report(0.50, 5000).Value; got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
}

func TestReportTailIsMedianOfWindowQuantiles(t *testing.T) {
	var s samples
	// Three windows of 1000: the middle one holds a burst of stalls.
	for w := 0; w < 3; w++ {
		for i := 0; i < tailWindow; i++ {
			v := float64(i%100) / 100 // p99 of a clean window: 0.98
			if w == 1 && i < 50 {
				v = 50 // 5% stalled: p99 of this window is 50
			}
			s.addMs(v)
		}
	}
	p := s.reportTail(0.99, 1e9)
	if p.Windows != 3 || p.Samples != 3000 {
		t.Fatalf("windows %d over %d samples, want 3 over 3000", p.Windows, p.Samples)
	}
	if p.Value != 0.98 {
		t.Fatalf("tail p99 = %v, want the median window's 0.98", p.Value)
	}
	if p.Beyond != 10 {
		t.Fatalf("beyond = %d, want 10 in every window", p.Beyond)
	}
	// Fewer than two windows' worth is the plain exact quantile.
	var small samples
	for i := 1; i <= 1500; i++ {
		small.addMs(float64(i))
	}
	if got := small.reportTail(0.99, 0); got.Value != 1485 || got.Windows != 0 {
		t.Fatalf("small tail = %+v, want plain p99 1485", got)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
