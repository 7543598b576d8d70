package fpstalker

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/parallel"
)

// LearnLinker is the learning-based FP-Stalker variant: a random
// forest scores (known fingerprint, query fingerprint) pairs on a
// similarity feature vector; candidates above Threshold are ranked by
// probability. Candidate generation prefilters on browser family (as
// the original does) — served from the engine's blocking index — and
// each surviving pair costs a feature-vector build plus a forest
// evaluation, so the candidate set is scored on a worker pool. The
// stored side of every pair vector reuses the UA parsed at Add time
// instead of re-parsing O(N) times per query. Add/TopK are safe for
// concurrent callers; set NoBlocking and Workers=1 for the paper's
// Figure 9 scalability-wall measurement.
type LearnLinker struct {
	Forest *mlearn.Forest
	// NoBlocking disables the candidate-blocking index so every query
	// scans the whole table (ablation).
	NoBlocking bool
	// Workers caps the scoring pool: 0 means GOMAXPROCS, 1 is serial.
	Workers int

	eng *engine
}

// linkThreshold is the minimum link probability of a candidate.
const linkThreshold = 0.5

// NewLearnLinker wraps a trained pair model.
func NewLearnLinker(f *mlearn.Forest) *LearnLinker {
	return &LearnLinker{Forest: f, eng: newEngine()}
}

// Len implements Linker.
func (l *LearnLinker) Len() int { return l.eng.size() }

// Add implements Linker.
func (l *LearnLinker) Add(id string, rec *fingerprint.Record) {
	e := newPairEntry(id, rec)
	l.eng.mu.Lock()
	l.eng.add(id, e)
	l.eng.mu.Unlock()
}

// Remove implements DynamicLinker: it deletes id's entry from the
// table and the blocking index, releasing its interned payloads, and
// reports whether the instance was known. Safe for concurrent use with
// Add and TopK.
func (l *LearnLinker) Remove(id string) bool {
	l.eng.mu.Lock()
	defer l.eng.mu.Unlock()
	return l.eng.remove(id)
}

// IndexDigest implements DynamicLinker: a canonical digest over the
// entry table and the blocking index. The learning linker never
// consults the engine's exact-match index, so unlike the rule linker's
// digest this one leaves it out.
func (l *LearnLinker) IndexDigest() string {
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	return l.eng.indexDigest()
}

// TopK implements Linker.
func (l *LearnLinker) TopK(rec *fingerprint.Record, k int) []Candidate {
	cands, _ := l.TopKCtx(nil, rec, k) // nil ctx: never canceled
	return cands
}

// TopKCtx is TopK with cooperative cancellation; see
// RuleLinker.TopKCtx for the contract.
func (l *LearnLinker) TopKCtx(ctx context.Context, rec *fingerprint.Record, k int) ([]Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	// One query-side entry per TopK: the UA parse and the feature keys
	// are computed once here instead of once per candidate pair.
	q := newPairEntry("", rec)
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	cs := l.eng.learnCandidates(q, l.NoBlocking)
	// Prefilter: browser family must match when both parse. Kept here
	// (not only in the blocking index) so the NoBlocking scan returns
	// identical results.
	reject := func(e *entry) bool {
		return q.ok && e.ok && (q.ua.Browser != e.ua.Browser || q.ua.Mobile != e.ua.Mobile)
	}
	// Each kept pair's vector is built into one buffer the block
	// reuses, then scored on its own.
	return l.eng.scoreTopK(ctx, cs, l.Workers, k, func(es []*entry, out []Candidate) []Candidate {
		var buf [NumPairFeatures]float64
		for _, e := range es {
			if reject(e) {
				continue
			}
			if p, ok := l.Forest.PredictProbaAtLeast(appendPairVector(buf[:0], e, q), linkThreshold); ok {
				out = append(out, Candidate{ID: e.id, Score: p})
			}
		}
		return out
	})
}

// NumPairFeatures is the dimensionality of the pair vector
// appendPairVector builds.
const NumPairFeatures = 16

// PairFeatureNames labels the pair vector's dimensions, in order —
// used to report the trained model's feature importances.
var PairFeatureNames = [NumPairFeatures]string{
	"same browser family",
	"browser version movement",
	"OS version movement",
	"canvas equal",
	"GPU image equal",
	"font Jaccard",
	"plugin Jaccard",
	"language Jaccard",
	"screen equal",
	"timezone equal",
	"storage toggles equal",
	"GPU renderer equal",
	"audio equal",
	"total diff fraction",
	"rare diff fraction",
	"time gap",
}

// appendPairVector builds the similarity feature vector for a (known,
// query) pair into dst — per-feature equality indicators, Jaccard
// similarities for set features, version movement, and the time gap,
// the same flavour of features the original FP-Stalker model uses.
// The scoring hot path passes one buffer per candidate block, so a
// query over an N-candidate bucket performs no per-pair allocation.
func appendPairVector(dst []float64, known, query *entry) []float64 {
	eq := func(cond bool) float64 {
		if cond {
			return 1
		}
		return 0
	}
	var verAdvance, osAdvance, sameFamily float64
	if known.ok && query.ok {
		kUA, qUA := known.ua, query.ua
		sameFamily = eq(kUA.Browser == qUA.Browser)
		switch qUA.BrowserVersion.Compare(kUA.BrowserVersion) {
		case 0:
			verAdvance = 1 // same version
		case 1:
			verAdvance = 0.5 // plausible update
		default:
			verAdvance = 0 // downgrade
		}
		switch qUA.OSVersion.Compare(kUA.OSVersion) {
		case 0:
			osAdvance = 1
		case 1:
			osAdvance = 0.5
		default:
			osAdvance = 0
		}
	}
	gapDays := 0.0
	if known.hasTime && query.hasTime {
		// Identical to Time.Sub(...).Hours() for any in-range instant;
		// out-of-range timestamps (the zero time) are gated by hasTime.
		gapDays = math.Abs(time.Duration(query.timeNS-known.timeNS).Hours()) / 24
	}
	total, rare := countKeyDiffs(known.keys, query.keys)
	ak, bk := known.keys, query.keys
	return append(dst,
		sameFamily,
		verAdvance,
		osAdvance,
		eq(ak[keyIdxCanvas] == bk[keyIdxCanvas]),
		eq(ak[keyIdxGPUImage] == bk[keyIdxGPUImage]),
		jaccardSorted(known.fonts, query.fonts),
		jaccardSorted(known.plugins, query.plugins),
		jaccardSorted(known.langs, query.langs),
		eq(ak[keyIdxScreen] == bk[keyIdxScreen]),
		eq(ak[keyIdxTimezone] == bk[keyIdxTimezone]),
		eq(known.cookie == query.cookie && known.localStorage == query.localStorage),
		eq(ak[keyIdxGPURenderer] == bk[keyIdxGPURenderer]),
		eq(ak[keyIdxAudio] == bk[keyIdxAudio]),
		float64(total)/float64(fingerprint.NumFeatures),
		float64(rare)/4,
		math.Min(gapDays/120, 1),
	)
}

// jaccardSorted is the Jaccard similarity of two sorted unique hash
// sets (see sortedHashSet): a single merge walk, no allocation. Over
// sortedHashSet of two string lists it is their set Jaccard (both
// sides deduplicated, 1 when both are empty) up to 64-bit element-hash
// collisions.
func jaccardSorted(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// trainPair is one labelled training example.
type trainPair struct {
	x     []float64
	label int
}

// negativeDrawTries bounds the resampling when a negative draw hits the
// query's own instance: with a 4096-record pool the odds of 16 straight
// same-instance draws are negligible unless the pool genuinely contains
// nothing else, in which case the negative is skipped.
const negativeDrawTries = 16

// negPoolSize is the sliding-window size of the negative-sampling pool.
const negPoolSize = 4096

// negPool is the fixed-capacity sliding window of recent records the
// negative sampler draws from. The historical implementation kept a
// slice and re-sliced off its front (`pool = pool[len-4096:]`), which
// pinned the ever-growing backing array for the whole stream; the ring
// writes in place and holds exactly negPoolSize slots. Logical index i
// (0 = oldest retained record) maps onto the same record the sliced
// window exposed at i, so a given RNG stream draws the same records as
// before.
type negPool struct {
	buf   []negPoolRec
	count int // total records ever pushed
}

type negPoolRec struct {
	idx  int32 // index into the record stream
	inst int32
}

func newNegPool() *negPool { return &negPool{buf: make([]negPoolRec, negPoolSize)} }

func (p *negPool) push(idx, inst int32) {
	p.buf[p.count%negPoolSize] = negPoolRec{idx, inst}
	p.count++
}

func (p *negPool) size() int { return min(p.count, negPoolSize) }

func (p *negPool) at(i int) negPoolRec {
	if p.count <= negPoolSize {
		return p.buf[i]
	}
	return p.buf[(p.count+i)%negPoolSize]
}

// pairSpec is one sampled (known, query) pair before its feature vector
// exists: record indices plus the label. Splitting sampling from vector
// construction is what lets the vectors build in parallel while the
// sampled sequence stays identical to the serial RNG stream.
type pairSpec struct {
	known, query int32
	label        int8
}

// samplePairSpecs runs the sequential sampling pass of pairTrainingSet:
// consecutive fingerprints of one instance are positives; records of
// *other* instances drawn from the sliding pool are negatives. Draws
// that land on the query's own instance are rejected and retried a
// bounded number of times — a same-instance pair labelled 0 would
// teach the forest to unlink true matches.
func samplePairSpecs(instances []int, rng *rand.Rand) []pairSpec {
	last := make(map[int]int32) // instance → index of its latest record
	var specs []pairSpec
	pool := newNegPool()
	for i, inst := range instances {
		if prev, ok := last[inst]; ok {
			specs = append(specs, pairSpec{prev, int32(i), 1})
			// Two negatives per positive keeps classes balanced enough.
			for n := 0; n < 2 && pool.size() > 1; n++ {
				for tries := 0; tries < negativeDrawTries; tries++ {
					cand := pool.at(rng.Intn(pool.size()))
					if int(cand.inst) == inst {
						continue
					}
					specs = append(specs, pairSpec{cand.idx, int32(i), 0})
					break
				}
			}
		}
		last[inst] = int32(i)
		pool.push(int32(i), int32(inst))
	}
	return specs
}

// pairTrainingSet builds the labelled pair set TrainPairModel fits, in
// two phases: a sequential sampling pass (samplePairSpecs — cheap, RNG
// order preserved) followed by a parallel construction pass that
// preprocesses each referenced record once (UA parse, feature keys,
// sorted set hashes) and builds the pair vectors on the worker pool.
// The pair-vector builds dominate TrainPairModel preprocessing; both
// the output pairs and their order are identical for every worker
// count, and to the historical fully-serial builder.
func pairTrainingSet(records []*fingerprint.Record, instances []int, rng *rand.Rand, workers int) []trainPair {
	specs := samplePairSpecs(instances, rng)
	used := make([]bool, len(records))
	for _, s := range specs {
		used[s.known] = true
		used[s.query] = true
	}
	entries := make([]*entry, len(records))
	parallel.ForEach(workers, len(records), func(i int) {
		if used[i] {
			entries[i] = newPairEntry("", records[i])
		}
	})
	return parallel.Map(workers, len(specs), func(i int) trainPair {
		s := specs[i]
		return trainPair{
			x:     appendPairVector(make([]float64, 0, NumPairFeatures), entries[s.known], entries[s.query]),
			label: int(s.label),
		}
	})
}

// PairTrainingSet builds the labelled pair-vector training set that
// TrainPairModel fits — rows in sampling order and their 0/1 labels —
// for callers that train or benchmark the forest directly. seed must
// match the ForestConfig seed for the pair stream TrainPairModel would
// draw; workers follows the package convention (1 serial, else GOMAXPROCS)
// and never changes the output.
func PairTrainingSet(records []*fingerprint.Record, instances []int, seed int64, workers int) ([][]float64, []int, error) {
	if len(records) != len(instances) {
		return nil, nil, fmt.Errorf("fpstalker: %d records but %d instance labels", len(records), len(instances))
	}
	rng := rand.New(rand.NewSource(seed + 99))
	pairs := pairTrainingSet(records, instances, rng, workers)
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("fpstalker: no training pairs (need repeat visits)")
	}
	X := make([][]float64, len(pairs))
	y := make([]int, len(pairs))
	for i, p := range pairs {
		X[i], y[i] = p.x, p.label
	}
	return X, y, nil
}

// PairModelConfig is the pair-model forest every trainer in the
// repository fits — fplinkd, fpstalker's Figure 9 and 10 sweeps and
// the linking example: 15 trees of depth at most 8, seeded with seed.
func PairModelConfig(seed int64) mlearn.ForestConfig {
	return mlearn.ForestConfig{Seed: seed, NumTrees: 15, MaxDepth: 8}
}

// TrainPairModel builds a training set from a labelled record stream
// (records in time order with their true instance IDs) and fits the
// forest: consecutive fingerprints of one instance are positives;
// fingerprints of other instances sampled at the same time are
// negatives. Preprocessing and tree training both run on cfg.Workers
// workers; the model is identical for every worker count.
func TrainPairModel(records []*fingerprint.Record, instances []int, cfg mlearn.ForestConfig) (*mlearn.Forest, error) {
	X, y, err := PairTrainingSet(records, instances, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return mlearn.TrainForest(X, y, cfg)
}
