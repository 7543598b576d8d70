// Package browserid implements the paper's ground-truth identifier
// (§2.3.1): the browser ID, a combination of the anonymized user ID and
// stable, hardware-flavoured browser features. Browser IDs beat the two
// obvious alternatives the paper discards —
//
//   - cookies: 32% of browser instances clear cookies at least once
//     (intelligent tracking prevention, private browsing), fragmenting
//     one instance into many cookie identities;
//   - user IDs alone: 14%+ of users visit from more than one device or
//     browser, merging several instances into one identity.
//
// Construction has two steps. First, an initial browser ID is derived
// from the user ID plus stable features (CPU class and cores, device
// and OS family, browser family, GPU vendor/renderer). Second,
// exceptional cases observed via cookies are linked: when the same
// (user, cookie) pair appears under two initial IDs — e.g. a mobile
// browser requesting the desktop version of a page, which rewrites the
// user agent wholesale — the two IDs are unioned.
//
// The package also implements the §2.3.3 estimation of how often
// browser IDs are wrong, using cookie appearance patterns: a cookie
// shared across two final browser IDs signals a false negative (they
// should have been linked); two interleaved cookies inside one browser
// ID signal a false positive (it should have been split).
package browserid

import (
	"fmt"
	"sort"
	"strconv"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/parallel"
)

// StableKey is the tuple of stable features that seeds the initial
// browser ID. Software toggles the user controls (cookie/localStorage
// support) are deliberately excluded — §2.3.1 notes their changes are
// user-driven and unpredictable.
type StableKey struct {
	UserID      string
	CPUClass    string
	CPUCores    int
	OS          string // OS family from the parsed user agent
	Device      string // device model; empty on desktop
	Browser     string // browser family
	GPUVendor   string
	GPURenderer string
}

// KeyOf extracts the stable key from a visit record.
func KeyOf(r *fingerprint.Record) StableKey {
	return StableKey{
		UserID:      r.UserID,
		CPUClass:    r.FP.CPUClass,
		CPUCores:    r.FP.CPUCores,
		OS:          r.OS,
		Device:      r.Device,
		Browser:     r.Browser,
		GPUVendor:   r.FP.GPUVendor,
		GPURenderer: r.FP.GPURenderer,
	}
}

// InitialID derives the initial browser ID string for a record.
func InitialID(r *fingerprint.Record) string {
	k := KeyOf(r)
	return fmt.Sprintf("bid-%016x", hashutil.HashStrings(
		k.UserID, k.CPUClass, strconv.Itoa(k.CPUCores),
		k.OS, k.Device, k.Browser, k.GPUVendor, k.GPURenderer,
	))
}

// GroundTruth is the result of building browser IDs over a full raw
// dataset. Records are grouped per canonical (post-linking) browser ID
// in time order.
type GroundTruth struct {
	// IDs holds the canonical browser ID of each input record, in input
	// order.
	IDs []string
	// Instances groups records by canonical browser ID, each group in
	// time order.
	Instances map[string][]*fingerprint.Record
}

// Build constructs browser IDs for a raw dataset. Records must be in
// time order (the collection server stores them that way); Build does
// not reorder.
func Build(records []*fingerprint.Record) *GroundTruth {
	return BuildParallel(records, 1)
}

// BuildParallel is Build with the per-record stable-key hashing fanned
// out over a worker pool. The cookie-linking union pass is inherently
// order-dependent (the first initial ID seen with a (user, cookie)
// pair becomes the owner), so it stays serial over the precomputed
// IDs; its cost is a map probe per record, dwarfed by the hashing. The
// result is identical for every worker count.
func BuildParallel(records []*fingerprint.Record, workers int) *GroundTruth {
	b := NewStreamBuilder()
	initial := parallel.Map(workers, len(records), func(i int) string {
		return InitialID(records[i])
	})
	for i, r := range records {
		b.ObserveWithID(r, initial[i])
	}
	b.Seal()

	gt := &GroundTruth{IDs: make([]string, len(records)), Instances: make(map[string][]*fingerprint.Record)}
	for i, r := range records {
		id := b.CanonicalOf(initial[i])
		gt.IDs[i] = id
		gt.Instances[id] = append(gt.Instances[id], r)
	}
	return gt
}

// unionFind is a path-compressing union-find over browser-ID strings.
// The canonical root of every component is its lexicographically
// smallest member, which makes the final assignment independent of
// union order (only WHICH unions happen depends on record order).
type unionFind map[string]string

func (u unionFind) find(x string) string {
	p, ok := u[x]
	if !ok || p == x {
		return x
	}
	root := u.find(p)
	u[x] = root
	return root
}

func (u unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if _, ok := u[ra]; !ok {
		u[ra] = ra
	}
	if _, ok := u[rb]; !ok {
		u[rb] = rb
	}
	if ra == rb {
		return
	}
	// Deterministic canonical root: the lexicographically smaller ID.
	if rb < ra {
		ra, rb = rb, ra
	}
	u[rb] = ra
}

// NumInstances returns the number of distinct canonical browser IDs.
func (gt *GroundTruth) NumInstances() int { return len(gt.Instances) }

// InstanceIDs returns all canonical browser IDs, sorted (stable output
// for reports and tests).
func (gt *GroundTruth) InstanceIDs() []string {
	ids := make([]string, 0, len(gt.Instances))
	for id := range gt.Instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Accumulate feeds every instance, in sorted ID order, to an
// EstimateAccumulator: the §2.3.3 rates, the population shares and the
// Figure 3 identifier counts all read from it.
func (gt *GroundTruth) Accumulate() *EstimateAccumulator {
	e := NewEstimateAccumulator()
	var seq []string
	for _, id := range gt.InstanceIDs() {
		recs := gt.Instances[id]
		seq = seq[:0]
		for _, rec := range recs {
			if rec.Cookie != "" {
				seq = append(seq, rec.Cookie)
			}
		}
		e.AddInstance(id, recs[0].UserID, seq)
	}
	return e
}

// Estimate computes the §2.3.3 false positive/negative rates.
func (gt *GroundTruth) Estimate() Rates { return gt.Accumulate().Rates() }

// MultiBrowserUserShare returns the fraction of users seen with more
// than one browser instance (the paper: 14% of users use multiple
// devices; over 15% use more than one browser).
func (gt *GroundTruth) MultiBrowserUserShare() float64 {
	return gt.Accumulate().MultiBrowserUserShare()
}

// CookieClearingShare returns the fraction of browser instances with
// more than one cookie — the instances that cleared cookies at least
// once (paper: ~32%).
func (gt *GroundTruth) CookieClearingShare() float64 {
	return gt.Accumulate().CookieClearingShare()
}
