package fpstalker

import (
	"strconv"
	"time"

	"fpdyn/internal/fingerprint"
)

// The chain-reconstruction protocol: unlike Evaluate, which maintains
// the database with ground-truth identities and scores each query in
// isolation, ChainEvaluate lets the linker maintain its *own* identity
// assignments — exactly how a deployed tracker operates. The original
// FP-Stalker paper reports its results in this form ("average maximum
// tracking duration"); the paper under reproduction argues the metric
// collapses at scale along with F1.

// ChainResult aggregates a chain-reconstruction run.
type ChainResult struct {
	// Chains is the number of identities the linker created.
	Chains int
	// TrueInstances is the number of real instances replayed.
	TrueInstances int

	// AvgTrackingDuration is the mean, over real instances, of the
	// longest continuous correctly-linked span (FP-Stalker's "average
	// maximum tracking duration").
	AvgTrackingDuration time.Duration
	// AvgChainPurity is the mean share of each linker chain occupied by
	// its dominant real instance (1.0 = chains never mix instances).
	AvgChainPurity float64
	// SplitRatio is linker chains per real multi-visit instance — above
	// 1 means instances fragment into several identities.
	SplitRatio float64
}

// ChainEvaluate replays the records through the linker, assigning each
// record to the top candidate (or minting a fresh identity when the
// linker returns none), then scores the resulting chains against the
// true instances. The replay is inherently sequential — each Add
// changes what the next TopK can see — so parallelism lives inside the
// engine's per-query scoring, not across the stream.
func ChainEvaluate(l Linker, records []*fingerprint.Record, instances []int) ChainResult {
	assigned := make([]string, len(records))
	fresh := 0
	for i, rec := range records {
		cands := l.TopK(rec, 1)
		var id string
		if len(cands) > 0 {
			id = cands[0].ID
		} else {
			fresh++
			id = "chain-" + strconv.Itoa(fresh)
		}
		assigned[i] = id
		l.Add(id, rec)
	}
	return scoreChains(records, instances, assigned)
}

func scoreChains(records []*fingerprint.Record, instances []int, assigned []string) ChainResult {
	var res ChainResult

	// Longest correctly-linked span per true instance: the maximal time
	// window over which consecutive visits of the instance kept the
	// same assigned identity.
	type span struct {
		spanStart time.Time
		lastTime  time.Time
		lastID    string
		best      time.Duration
		visits    int
	}
	spans := map[int]*span{}
	for i, rec := range records {
		inst := instances[i]
		s := spans[inst]
		if s == nil {
			spans[inst] = &span{spanStart: rec.Time, lastTime: rec.Time, lastID: assigned[i], visits: 1}
			continue
		}
		s.visits++
		if assigned[i] != s.lastID {
			// Chain broke: close the current span.
			if d := s.lastTime.Sub(s.spanStart); d > s.best {
				s.best = d
			}
			s.spanStart = rec.Time
			s.lastID = assigned[i]
		}
		s.lastTime = rec.Time
	}
	var totalDur time.Duration
	multiVisit := 0
	for _, s := range spans {
		if d := s.lastTime.Sub(s.spanStart); d > s.best {
			s.best = d
		}
		totalDur += s.best
		if s.visits > 1 {
			multiVisit++
		}
	}
	res.TrueInstances = len(spans)
	if len(spans) > 0 {
		res.AvgTrackingDuration = totalDur / time.Duration(len(spans))
	}

	// Chain purity: dominant-instance share per linker identity.
	chainInst := map[string]map[int]int{}
	for i := range records {
		m := chainInst[assigned[i]]
		if m == nil {
			m = map[int]int{}
			chainInst[assigned[i]] = m
		}
		m[instances[i]]++
	}
	res.Chains = len(chainInst)
	purity := 0.0
	for _, m := range chainInst {
		total, best := 0, 0
		for _, c := range m {
			total += c
			if c > best {
				best = c
			}
		}
		purity += float64(best) / float64(total)
	}
	if res.Chains > 0 {
		res.AvgChainPurity = purity / float64(res.Chains)
	}
	if multiVisit > 0 {
		res.SplitRatio = float64(res.Chains) / float64(res.TrueInstances)
	}
	return res
}
