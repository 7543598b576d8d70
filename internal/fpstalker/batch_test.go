package fpstalker

import (
	"math/rand"
	"reflect"
	"testing"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
)

// scalarTopK is the per-pair oracle for the learning linker's block
// scorer: the same candidate set, candidate loop and family prefilter,
// but each pair vector built into a fresh slice instead of the buffer
// the linker reuses across a block.
func scalarTopK(l *LearnLinker, rec *fingerprint.Record, k int) []Candidate {
	q := newPairEntry("", rec)
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	cs := l.eng.learnCandidates(q, l.NoBlocking)
	cands, _ := l.eng.scoreTopK(nil, cs, l.Workers, k, func(es []*entry, out []Candidate) []Candidate {
		for _, e := range es {
			if q.ok && e.ok && (q.ua.Browser != e.ua.Browser || q.ua.Mobile != e.ua.Mobile) {
				continue
			}
			if p, ok := l.Forest.PredictProbaAtLeast(pairVectorEntries(e, q), linkThreshold); ok {
				out = append(out, Candidate{ID: e.id, Score: p})
			}
		}
		return out
	})
	return cands
}

// TestScalarBatchTopKEquivalence pins the learning linker's batch
// scoring path against the per-pair scalar oracle: both must return
// identical rankings, with and without blocking, serial and parallel.
// The block form is one PredictProbaAtLeast call per row, the
// prefilter is shared, and blocks preserve candidate order, so
// equality is bitwise.
func TestScalarBatchTopKEquivalence(t *testing.T) {
	records, instances := engineWorld(t, 400, 73)
	forest, err := TrainPairModel(records, instances, mlearn.ForestConfig{Seed: 7, NumTrees: 8, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name       string
		noBlocking bool
		workers    int
	}{
		{"blocked-serial", false, 1},
		{"blocked-parallel", false, 4},
		{"scan-serial", true, 1},
		{"scan-parallel", true, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			l := NewLearnLinker(forest)
			l.NoBlocking = mode.noBlocking
			l.Workers = mode.workers
			for i, rec := range records {
				l.Add(InstanceID(instances[i]), rec)
			}
			ranked := 0
			for qi, q := range goldenQueries(records) {
				want := scalarTopK(l, q, 10)
				got := l.TopK(q, 10)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("query %d: batch ranking diverged\n scalar: %v\n batch:  %v", qi, want, got)
				}
				ranked += len(want)
			}
			if ranked == 0 {
				t.Fatal("no query ranked any candidate: the comparison is vacuous")
			}
		})
	}
}

// TestNegPoolMatchesSliceWindow pins the ring buffer against a
// reference sliding-slice implementation (the historical pool, minus
// its pinned backing array): same pushes, same logical window, same
// record under every index.
func TestNegPoolMatchesSliceWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ring := newNegPool()
	var ref []negPoolRec
	for i := 0; i < 3*negPoolSize+57; i++ {
		r := negPoolRec{int32(i), int32(i % 97)}
		ring.push(r.idx, r.inst)
		ref = append(ref, r)
		if len(ref) > negPoolSize {
			ref = ref[len(ref)-negPoolSize:]
		}
		if ring.size() != len(ref) {
			t.Fatalf("push %d: ring size %d, reference %d", i, ring.size(), len(ref))
		}
		// Spot-check random draws plus the window edges.
		for _, j := range []int{0, len(ref) - 1, rng.Intn(len(ref)), rng.Intn(len(ref))} {
			if got := ring.at(j); got != ref[j] {
				t.Fatalf("push %d: ring.at(%d) = %+v, reference %+v", i, j, got, ref[j])
			}
		}
	}
}

// TestPairTrainingSetWorkerInvariance: the two-phase builder must
// produce the same pairs in the same order for every worker count —
// sampling is sequential, and vector construction is order-collected.
func TestPairTrainingSetWorkerInvariance(t *testing.T) {
	records, instances := engineWorld(t, 200, 51)
	ref := pairTrainingSet(records, instances, rand.New(rand.NewSource(9)), 1)
	if len(ref) == 0 {
		t.Fatal("no pairs sampled")
	}
	for _, workers := range []int{2, 4, 0} {
		got := pairTrainingSet(records, instances, rand.New(rand.NewSource(9)), workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d pairs differ from serial", workers)
		}
	}
}

// TestPairTrainingSetOverflowsPool drives more records than the
// negative pool holds so the ring wraps, then checks sampling
// invariants still hold (regression guard for the wrap arithmetic).
func TestPairTrainingSetOverflowsPool(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := negPoolSize + 500
	records := make([]*fingerprint.Record, 0, n)
	instances := make([]int, 0, n)
	for i := 0; i < n; i++ {
		inst := i % (n / 3) // every instance revisits → positives exist late in the stream
		records = append(records, streamRecord(inst, i))
		instances = append(instances, inst)
	}
	pairs := pairTrainingSet(records, instances, rand.New(rand.NewSource(3)), 0)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, p := range pairs {
		if p.label == 0 && p.knownInst == p.queryInst {
			t.Fatalf("same-instance negative after pool wrap (inst %d)", p.knownInst)
		}
		if p.label == 1 && p.knownInst != p.queryInst {
			t.Fatalf("cross-instance positive (%d vs %d)", p.knownInst, p.queryInst)
		}
	}
}

// TestTrainPairModelWorkerInvariance: the exported trainer must give a
// byte-identical model for every Workers setting — preprocessing and
// tree training are both order-collected.
func TestTrainPairModelWorkerInvariance(t *testing.T) {
	records, instances := engineWorld(t, 200, 52)
	cfg := mlearn.ForestConfig{Seed: 4, NumTrees: 6, MaxDepth: 5}
	cfg.Workers = 1
	ref, err := TrainPairModel(records, instances, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	alt, err := TrainPairModel(records, instances, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, alt) {
		t.Fatal("Workers=4 model differs from Workers=1")
	}
	if !reflect.DeepEqual(ref.Importances(), alt.Importances()) {
		t.Fatal("importances differ across worker counts")
	}
}
