package browserid

import "fpdyn/internal/fingerprint"

// StreamBuilder constructs browser IDs over a record stream in two
// passes, holding state proportional to the number of distinct
// instances and (user, cookie) pairs — never the records themselves.
// It is the out-of-core counterpart of Build:
//
//	pass 1: for each record in time order, b.Observe(r)
//	        b.Seal()
//	pass 2: re-stream, b.CanonicalOf(InitialID(r)) per record
//
// Pass 1 runs the same cookie-linking union pass BuildParallel runs (the
// first initial ID seen with a (user, cookie) pair owns it; a second ID
// under the same pair gets unioned), so for the same record order the
// canonical IDs are identical to BuildParallel's gt.IDs.
type StreamBuilder struct {
	uf unionFind
	// cookieOwner maps (user, cookie) to the first initial ID seen with
	// that cookie; a second initial ID under the same pair is an
	// exceptional case and gets linked.
	cookieOwner map[userCookie]string
	sealed      bool
}

type userCookie struct{ user, cookie string }

// NewStreamBuilder returns an empty builder ready for pass 1.
func NewStreamBuilder() *StreamBuilder {
	return &StreamBuilder{
		uf:          make(unionFind),
		cookieOwner: make(map[userCookie]string),
	}
}

// Observe feeds one pass-1 record. Records must arrive in time order —
// the owner of a (user, cookie) pair is the first initial ID seen with
// it, which is what makes the linking deterministic.
func (b *StreamBuilder) Observe(r *fingerprint.Record) { b.ObserveWithID(r, InitialID(r)) }

// ObserveWithID is Observe with the initial ID precomputed — callers
// (BuildParallel, the streaming report) hash IDs on a worker pool and
// keep only this bookkeeping serial. id must equal InitialID(r).
func (b *StreamBuilder) ObserveWithID(r *fingerprint.Record, id string) {
	if b.sealed {
		panic("browserid: Observe after Seal")
	}
	b.uf.union(id, id) // ensure present
	if r.Cookie == "" {
		return
	}
	key := userCookie{r.UserID, r.Cookie}
	if owner, ok := b.cookieOwner[key]; ok {
		if owner != id {
			b.uf.union(owner, id)
		}
	} else {
		b.cookieOwner[key] = id
	}
}

// Seal ends pass 1 and releases the cookie-ownership table; only the
// union-find survives into pass 2.
func (b *StreamBuilder) Seal() {
	b.sealed = true
	b.cookieOwner = nil
}

// CanonicalOf resolves an initial ID to its canonical (post-linking)
// root. Valid after Seal; for a record's InitialID it equals the gt.IDs
// entry BuildParallel assigns the same record.
func (b *StreamBuilder) CanonicalOf(initialID string) string {
	if !b.sealed {
		panic("browserid: CanonicalOf before Seal")
	}
	return b.uf.find(initialID)
}

// EstimateAccumulator computes the §2.3.3 browser-ID error estimate,
// the user/cookie population shares and the Figure 3 identifier counts
// from per-instance summaries, so a stream grouped by canonical browser
// ID needs no records; GroundTruth.Accumulate feeds it the same way.
// Feed one AddInstance call per canonical browser ID, in sorted ID
// order (the grouped merge yields that order;
// Rates.InterleavedInstances preserves it).
type EstimateAccumulator struct {
	instances   int
	cookies     map[int]int // instances by distinct-cookie count
	interleaved []string

	// cookieFirst maps each cookie to the first instance seen with it;
	// a second instance marks both as abnormal (the cookie crossed
	// final browser IDs — §2.3.3's false-negative signal).
	cookieFirst map[string]string
	abnormal    map[string]bool

	// userInstances counts canonical instances per user (each instance
	// maps to exactly one user: the user ID is part of the stable key
	// and cookie links never cross users).
	userInstances map[string]int
}

// NewEstimateAccumulator returns an empty accumulator.
func NewEstimateAccumulator() *EstimateAccumulator {
	return &EstimateAccumulator{
		cookies:       make(map[int]int),
		cookieFirst:   make(map[string]string),
		abnormal:      make(map[string]bool),
		userInstances: make(map[string]int),
	}
}

// AddInstance feeds one instance's summary: its user, and its
// time-ordered sequence of non-empty cookies.
func (e *EstimateAccumulator) AddInstance(id, user string, cookieSeq []string) {
	e.instances++
	e.userInstances[user]++
	if hasInterleavedCookies(cookieSeq) {
		e.interleaved = append(e.interleaved, id)
	}
	distinct := make(map[string]bool, len(cookieSeq))
	for _, c := range cookieSeq {
		distinct[c] = true
	}
	e.cookies[len(distinct)]++
	for c := range distinct {
		if first, ok := e.cookieFirst[c]; ok {
			if first != id {
				e.abnormal[first] = true
				e.abnormal[id] = true
			}
		} else {
			e.cookieFirst[c] = id
		}
	}
}

// NumInstances returns the number of instances fed so far.
func (e *EstimateAccumulator) NumInstances() int { return e.instances }

// NumUsers returns the number of distinct users seen.
func (e *EstimateAccumulator) NumUsers() int { return len(e.userInstances) }

// IdentifierCounts returns Figure 3's two histograms: users by their
// number of browser instances, and instances by their number of
// distinct cookies.
func (e *EstimateAccumulator) IdentifierCounts() (instancesPerUser, cookiesPerInstance map[int]int) {
	instancesPerUser = make(map[int]int)
	for _, n := range e.userInstances {
		instancesPerUser[n]++
	}
	return instancesPerUser, e.cookies
}

// MultiBrowserUserShare returns the fraction of users seen with more
// than one browser instance.
func (e *EstimateAccumulator) MultiBrowserUserShare() float64 {
	if len(e.userInstances) == 0 {
		return 0
	}
	multi := 0
	for _, n := range e.userInstances {
		if n > 1 {
			multi++
		}
	}
	return float64(multi) / float64(len(e.userInstances))
}

// CookieClearingShare returns the fraction of instances with more than
// one distinct cookie.
func (e *EstimateAccumulator) CookieClearingShare() float64 {
	if e.instances == 0 {
		return 0
	}
	return float64(e.instances-e.cookies[0]-e.cookies[1]) / float64(e.instances)
}

// Rates returns the §2.3.3 estimate.
func (e *EstimateAccumulator) Rates() Rates {
	var r Rates
	if e.instances == 0 {
		return r
	}
	total := float64(e.instances)
	r.InterleavedInstances = e.interleaved
	r.FalsePositiveRate = float64(len(e.interleaved)) / total
	r.AbnormalSharedCookieRate = float64(len(e.abnormal)) / total
	r.CookieClearingShare = e.CookieClearingShare()
	r.FalseNegativeRate = r.AbnormalSharedCookieRate * r.CookieClearingShare / maxf(1-r.CookieClearingShare, 1e-9)
	if r.FalseNegativeRate > 1 {
		r.FalseNegativeRate = 1
	}
	return r
}
