package fpstalker

import (
	"math/rand"
	"reflect"
	"testing"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
)

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
	specs := samplePairSpecs(instances, rand.New(rand.NewSource(3)))
	if len(specs) == 0 {
		t.Fatal("no pairs")
	}
	for _, s := range specs {
		known, query := instances[s.known], instances[s.query]
		if s.label == 0 && known == query {
			t.Fatalf("same-instance negative after pool wrap (inst %d)", known)
		}
		if s.label == 1 && known != query {
			t.Fatalf("cross-instance positive (%d vs %d)", known, query)
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
