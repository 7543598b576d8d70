package linkd

import (
	"math"
	"math/rand"
	"testing"

	"fpdyn/internal/obs"
)

// refOverload is an independent model of the overload controller's
// decision: the interval p99 read from the query histogram's buckets
// (the first bound whose interval count reaches ⌈0.99·n⌉, +Inf clamped
// to the largest finite bound), then hysteresis over the watermarks
// shed 10 % / 1 %, p99 0.5 s / 0.1 s, with 3 bad samples to degrade and
// 5 good ones to recover.
type refOverload struct {
	degraded             bool
	bad, good            int
	degrades, recoveries int
}

func refIntervalP99(lats []float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(lats)) * 0.99))
	maxFinite := obs.DefBuckets[len(obs.DefBuckets)-1]
	for _, ub := range obs.DefBuckets {
		n := 0
		for _, v := range lats {
			if v <= ub {
				n++
			}
		}
		if n >= rank {
			return ub
		}
	}
	return maxFinite
}

func (r *refOverload) sample(shed, ok int, lats []float64) bool {
	rate := 0.0
	if shed+ok > 0 {
		rate = float64(shed) / float64(shed+ok)
	}
	p99 := refIntervalP99(lats)
	switch {
	case rate > 0.10 || p99 > 0.5:
		r.bad, r.good = r.bad+1, 0
	case rate <= 0.01 && p99 <= 0.1:
		r.bad, r.good = 0, r.good+1
	default:
		r.bad, r.good = 0, 0
	}
	if !r.degraded && r.bad >= 3 {
		r.degraded = true
		r.degrades++
	}
	if r.degraded && r.good >= 5 {
		r.degraded = false
		r.recoveries++
	}
	return r.degraded
}

// TestOverloadDecisionsPinned holds the service's overload controller,
// at its default policy, to refOverload over seeded random intervals.
// Each interval's latency tail sits near the 1 % rank that decides the
// p99, with values exactly on the 0.1 s and 0.5 s bounds and beyond the
// largest finite bound, and its shed rate straddles both watermarks
// and sometimes sits exactly on one.
func TestOverloadDecisionsPinned(t *testing.T) {
	svc := openTest(t, nil)
	rng := rand.New(rand.NewSource(2025))
	fast := func() float64 { // ≤ 0.1 s
		if rng.Intn(4) == 0 {
			return 0.1
		}
		return 0.1 * (1 - rng.Float64())
	}
	mid := func() float64 { // (0.1 s, 0.5 s]
		if rng.Intn(3) == 0 {
			return 0.5
		}
		return math.Nextafter(0.1, 1) + 0.39*rng.Float64()
	}
	slow := func() float64 { // > 0.5 s, some in +Inf
		switch rng.Intn(4) {
		case 0:
			return 10 // the largest finite bound
		case 1:
			return 10.5 + 100*rng.Float64()
		}
		return math.Nextafter(0.5, 1) + 9*rng.Float64()
	}
	tail := func(n, scale int) int { return rng.Intn(n*scale/100 + 2) }

	var ref refOverload
	regime := 0
	for i := 0; i < 3000; i++ {
		if rng.Intn(8) == 0 {
			regime = rng.Intn(3) // 0 calm, 1 near the 1 % ranks, 2 overloaded
		}
		n := rng.Intn(250)
		if rng.Intn(20) == 0 {
			n = 0
		}
		var nSlow, nMid, shed int
		switch regime {
		case 0:
			if rng.Intn(3) == 0 {
				nSlow, nMid = tail(n, 0), tail(n, 0)
				shed = tail(n, 1)
			}
		case 1:
			nSlow, nMid = tail(n, 1), tail(n, 2)
			shed = tail(n, 2)
			switch k := 1 + rng.Intn(2); rng.Intn(4) {
			case 0: // shed rate exactly on the low watermark
				n, shed = 99*k, k
			case 1: // exactly on the high one
				n, shed = 9*k, k
			}
		case 2:
			nSlow, nMid = tail(n, 3), tail(n, 3)
			shed = tail(n, 25)
		}
		if nSlow+nMid > n {
			nSlow, nMid = 0, 0
		}
		lats := make([]float64, 0, n)
		for j := 0; j < n; j++ {
			v := fast()
			switch {
			case j < nSlow:
				v = slow()
			case j < nSlow+nMid:
				v = mid()
			}
			lats = append(lats, v)
			svc.m.querySeconds.Observe(v)
		}
		svc.m.queriesOK.Add(int64(n))
		svc.m.queriesShed.Add(int64(shed))

		want := ref.sample(shed, n, lats)
		if got := svc.SampleOverload(); got != want {
			t.Fatalf("interval %d (n=%d slow=%d mid=%d shed=%d): SampleOverload = %v, want %v",
				i, n, nSlow, nMid, shed, got, want)
		}
		if got := svc.degraded.Load(); got != want {
			t.Fatalf("interval %d: Degraded = %v, want %v", i, got, want)
		}
	}
	t.Logf("%d degrades, %d recoveries", ref.degrades, ref.recoveries)
	if ref.degrades < 20 || ref.recoveries < 20 {
		t.Fatalf("weak drive: %d degrades, %d recoveries; want ≥ 20 each", ref.degrades, ref.recoveries)
	}
	if got := svc.m.transitions.Value(); got != int64(ref.degrades+ref.recoveries) {
		t.Fatalf("transitions = %d, want %d", got, ref.degrades+ref.recoveries)
	}
}
