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
