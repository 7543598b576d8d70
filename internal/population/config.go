package population

import "time"

// Config controls the synthetic world. Defaults are calibrated so the
// generated dataset reproduces the marginal shapes of the paper's
// Figures 3–7 and the cause mix of Table 2 at any scale.
type Config struct {
	Seed  int64
	Users int

	// Workers is the simulation's worker-pool size, resolved by
	// parallel.Resolve: 1 runs serially, 0 (the zero value) or negative
	// uses runtime.GOMAXPROCS(0). Every user draws from its own sub-RNG, so
	// the output is identical for every value.
	Workers int

	// Deployment window; defaults to the paper's Stage-3 window,
	// December 2017 through July 2018.
	Start, End time.Time

	// Cities is the size of the synthetic geolocation database.
	Cities int

	// MultiDeviceShare is the fraction of users with a second device
	// (paper: 14% of users visit from more than one device).
	MultiDeviceShare float64
	// SecondBrowserShare is the fraction of devices with a second
	// browser installed.
	SecondBrowserShare float64

	// ReturnProb is the per-visit probability that the instance comes
	// back again; it controls the visit-count distribution (paper:
	// roughly half of instances visit more than once).
	ReturnProb float64
	// MaxVisits caps the visit count per instance.
	MaxVisits int

	// NeverUpdateShare is the fraction of instances that never adopt
	// browser/OS updates.
	NeverUpdateShare float64
	// MeanUpdateLagDays is the mean adoption lag after a release.
	MeanUpdateLagDays float64
	// SafariLagFactor multiplies the lag for desktop Safari (manual App
	// Store updates are slower — Figure 12's second observation).
	SafariLagFactor float64

	// SimulateDeployment reproduces the §2.2.2 deployment artifacts:
	// the HTTP header list was only collected from day 7 (first hot
	// patch), the Accept header was collected incorrectly until day 29
	// (second hot patch), and the collection server was partially down
	// for eight days in the first month (half the records of that
	// window are lost). Off by default — the paper itself excludes the
	// affected statistics; enable it to study collection-artifact
	// robustness.
	SimulateDeployment bool
}

// Deployment-artifact constants of §2.2.2.
const (
	// HotPatchHeaderListDay is the deployment day the header-list
	// collection was added.
	HotPatchHeaderListDay = 7
	// HotPatchAcceptDay is the deployment day the Accept-header
	// collection bug was fixed.
	HotPatchAcceptDay = 29
	// OutageStartDay / OutageEndDay bound the partial server outage.
	OutageStartDay = 14
	OutageEndDay   = 22
)

// DefaultConfig returns the calibrated default world at the given user
// scale.
func DefaultConfig(users int) Config {
	return Config{
		Seed:               1,
		Users:              users,
		Start:              time.Date(2017, 12, 1, 0, 0, 0, 0, time.UTC),
		End:                time.Date(2018, 7, 31, 0, 0, 0, 0, time.UTC),
		Cities:             400,
		MultiDeviceShare:   0.14,
		SecondBrowserShare: 0.06,
		ReturnProb:         0.62,
		MaxVisits:          60,
		NeverUpdateShare:   0.35,
		MeanUpdateLagDays:  21,
		SafariLagFactor:    2.5,
	}
}
