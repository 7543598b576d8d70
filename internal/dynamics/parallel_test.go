package dynamics

import (
	"reflect"
	"testing"

	"fpdyn/internal/browserid"
	"fpdyn/internal/population"
)

func simulatedGT(t *testing.T, users int) (*population.Dataset, *browserid.GroundTruth) {
	t.Helper()
	ds := population.Simulate(population.DefaultConfig(users))
	return ds, browserid.Build(ds.Records)
}

// TestGenerateParallelMatchesSerial: the diff chains must be identical
// — same order, same deltas — for every worker count.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	_, gt := simulatedGT(t, 150)
	serial := Generate(gt)
	for _, workers := range []int{2, 8, -1} {
		par := GenerateParallel(gt, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d dynamics, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Fatalf("workers=%d: dynamics %d differs", workers, i)
			}
		}
	}
}

// TestGenerateGroupedParallelMatchesSerial covers the pre-grouped
// entry point (the simulator's true instances).
func TestGenerateGroupedParallelMatchesSerial(t *testing.T) {
	_, gt := simulatedGT(t, 120)
	serial := GenerateGrouped(gt.Instances)
	for _, workers := range []int{3, 8} {
		par := GenerateGroupedParallel(gt.Instances, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: grouped dynamics differ", workers)
		}
	}
}

// TestClassifyAllMatchesClassify: the batch pass must agree with the
// one-at-a-time rules at every worker count.
func TestClassifyAllMatchesClassify(t *testing.T) {
	ds, gt := simulatedGT(t, 150)
	changed := Changed(Generate(gt))
	if len(changed) == 0 {
		t.Fatal("no changed dynamics in the test world")
	}

	ref := &Classifier{Images: MapImages(ds.CanvasImages)}
	want := make([]Classification, len(changed))
	for i, d := range changed {
		want[i] = ref.Classify(d)
	}

	for _, workers := range []int{1, 4, -1} {
		c := &Classifier{Images: MapImages(ds.CanvasImages)}
		got := c.ClassifyAll(changed, workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: batch classifications differ from serial Classify", workers)
		}
	}
}
