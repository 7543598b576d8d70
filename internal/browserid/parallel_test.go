package browserid

import (
	"reflect"
	"testing"

	"fpdyn/internal/population"
)

// TestBuildParallelMatchesSerial is the golden equivalence test: the
// ground truth built on one worker and on many must be identical on a
// realistic simulated dataset (cookie links, desktop requests, shared
// accounts included).
func TestBuildParallelMatchesSerial(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(200))
	serial := Build(ds.Records)
	for _, workers := range []int{2, 7, -1} {
		par := BuildParallel(ds.Records, workers)
		if !reflect.DeepEqual(serial.IDs, par.IDs) {
			t.Fatalf("workers=%d: canonical ID assignment differs", workers)
		}
		if !reflect.DeepEqual(serial.Instances, par.Instances) {
			t.Fatalf("workers=%d: instance grouping differs", workers)
		}
	}
}
