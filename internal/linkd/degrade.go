package linkd

import "math"

// The overload controller's policy: enter rule mode after degradeAfter
// consecutive samples with shed rate > shedHigh or query p99 > p99High;
// recover after recoverAfter consecutive samples with shed rate ≤
// shedLow and p99 ≤ p99Low. Both p99 watermarks are bounds of the
// linkd_query_seconds histogram (obs.DefBuckets), so an interval's
// bucket counts decide them exactly.
const (
	shedHigh     = 0.10
	p99High      = 0.5 // seconds
	shedLow      = 0.01
	p99Low       = 0.1 // seconds
	degradeAfter = 3
	recoverAfter = 5
)

// degrader is the hysteretic overload controller: it watches interval
// samples of the shed rate and query latency and decides which linker
// variant serves queries. The gap between watermarks plus the
// consecutive-sample requirement is what prevents mode flapping when
// load hovers near a threshold — a single spike changes nothing, and a
// sample in the dead band resets both streaks, holding the current
// mode.
//
// The controller is pure state over explicit inputs (no clocks, no
// metric reads), so tests drive it sample by sample.
type degrader struct {
	degraded  bool
	badStreak int
	okStreak  int
}

// sample feeds one interval observation — its shed rate, and of its n
// served queries how many took at most p99Low and p99High — and
// reports the mode after it plus whether this sample flipped it.
func (d *degrader) sample(shedRate float64, n, underLow, underHigh uint64) (degraded, changed bool) {
	// The interval's p99 is at most a bound exactly when at least
	// ⌈0.99·n⌉ of its queries took at most that bound.
	rank := uint64(math.Ceil(float64(n) * 0.99))
	bad := shedRate > shedHigh || underHigh < rank
	good := shedRate <= shedLow && underLow >= rank
	switch {
	case bad:
		d.badStreak++
		d.okStreak = 0
	case good:
		d.okStreak++
		d.badStreak = 0
	default: // dead band: hold the current mode, restart both streaks
		d.badStreak = 0
		d.okStreak = 0
	}
	if !d.degraded && d.badStreak >= degradeAfter {
		d.degraded = true
		return true, true
	}
	if d.degraded && d.okStreak >= recoverAfter {
		d.degraded = false
		return false, true
	}
	return d.degraded, false
}
