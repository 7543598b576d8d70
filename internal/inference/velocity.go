package inference

import (
	"sort"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/geoip"
)

// VelocityReport is the Insight 1.4 analysis: movement speeds implied
// by consecutive visits' IP geolocations.
type VelocityReport struct {
	// Pairs is the number of consecutive-visit pairs examined.
	Pairs int
	// Slow counts pairs under 150 km/h (ordinary movement).
	Slow int
	// Mid counts pairs between 150 and the VPN threshold — the paper
	// observes this band is empty because proxies sit far away.
	Mid int
	// Impossible counts pairs above the 2,000 km/h threshold.
	Impossible int
	// VPNInstances lists browser IDs with at least one impossible hop,
	// sorted (the paper: 2,916 instances).
	VPNInstances []string
	// Cases holds one example hop per VPN instance for manual review.
	Cases []VelocityCase
}

// VelocityCase is one impossible-travel example (the paper's
// Kaluga→Lagos case study format).
type VelocityCase struct {
	BrowserID string
	FromCity  string
	ToCity    string
	Gap       time.Duration
	SpeedKmh  float64
}

// VelocityAccumulator computes implied movement speeds for consecutive
// visit pairs. Cities are resolved through the geolocation database by
// name.
type VelocityAccumulator struct {
	geo *geoip.DB
	rep VelocityReport
	vpn map[string]VelocityCase // first impossible hop per browser ID
}

// NewVelocityAccumulator returns an empty accumulator over geo.
func NewVelocityAccumulator(geo *geoip.DB) *VelocityAccumulator {
	return &VelocityAccumulator{geo: geo, vpn: map[string]VelocityCase{}}
}

// Add feeds one consecutive visit pair of instance id. Each instance's
// pairs must arrive in time order, so its case is its first impossible
// hop.
func (a *VelocityAccumulator) Add(id string, from, to *fingerprint.Record) {
	x, okA := a.geo.ByName(from.FP.IPCity)
	y, okB := a.geo.ByName(to.FP.IPCity)
	if !okA || !okB || x.Name == y.Name {
		return
	}
	gap := to.Time.Sub(from.Time)
	v := geoip.Velocity(x, y, gap)
	a.rep.Pairs++
	switch {
	case v < 150:
		a.rep.Slow++
	case v <= geoip.VPNThresholdKmh:
		a.rep.Mid++
	default:
		a.rep.Impossible++
		if _, seen := a.vpn[id]; !seen {
			a.vpn[id] = VelocityCase{
				BrowserID: id, FromCity: x.Name, ToCity: y.Name,
				Gap: gap, SpeedKmh: v,
			}
		}
	}
}

// Report returns the speeds with the VPN instances and their cases
// sorted by browser ID.
func (a *VelocityAccumulator) Report() VelocityReport {
	rep := a.rep
	rep.VPNInstances = make([]string, 0, len(a.vpn))
	for id := range a.vpn {
		rep.VPNInstances = append(rep.VPNInstances, id)
	}
	sort.Strings(rep.VPNInstances)
	for _, id := range rep.VPNInstances {
		rep.Cases = append(rep.Cases, a.vpn[id])
	}
	return rep
}
