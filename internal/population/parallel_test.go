package population

import (
	"reflect"
	"testing"
)

// TestShardedWorkerCountInvariance is the simulator's determinism
// regression test: the Dataset must be identical at Workers 0 (NumCPU),
// 1 and 8 for several seeds. Records, TrueInstance, VisitIndex and
// Truth are compared structurally against the Workers 1 run.
func TestShardedWorkerCountInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := DefaultConfig(120)
		cfg.Seed = seed
		cfg.SimulateDeployment = seed == 7 // cover the outage/hot-patch path too

		cfg.Workers = 1
		ref := Simulate(cfg)
		for _, workers := range []int{0, 1, 8} {
			cfg.Workers = workers
			got := Simulate(cfg)
			if len(got.Records) != len(ref.Records) {
				t.Fatalf("seed %d: %d records at Workers:%d, %d at Workers:1",
					seed, len(got.Records), workers, len(ref.Records))
			}
			for i := range ref.Records {
				if !reflect.DeepEqual(got.Records[i], ref.Records[i]) {
					t.Fatalf("seed %d: record %d differs:\n  Workers:%d %+v\n  Workers:1 %+v",
						seed, i, workers, got.Records[i], ref.Records[i])
				}
			}
			if !reflect.DeepEqual(got.TrueInstance, ref.TrueInstance) {
				t.Fatalf("seed %d, workers %d: TrueInstance differs", seed, workers)
			}
			if !reflect.DeepEqual(got.VisitIndex, ref.VisitIndex) {
				t.Fatalf("seed %d, workers %d: VisitIndex differs", seed, workers)
			}
			if !reflect.DeepEqual(got.Truth, ref.Truth) {
				t.Fatalf("seed %d, workers %d: Truth differs", seed, workers)
			}
			if got.NumInstances != ref.NumInstances {
				t.Fatalf("seed %d, workers %d: NumInstances %d vs %d", seed, workers, got.NumInstances, ref.NumInstances)
			}
			if !reflect.DeepEqual(got.GPUImageInfo, ref.GPUImageInfo) {
				t.Fatalf("seed %d, workers %d: GPUImageInfo differs", seed, workers)
			}
			if len(got.CanvasImages) != len(ref.CanvasImages) {
				t.Fatalf("seed %d, workers %d: CanvasImages size %d vs %d",
					seed, workers, len(got.CanvasImages), len(ref.CanvasImages))
			}
		}
	}
}

// TestShardedKeepsGlobalTimeOrder checks the merged timeline is sorted
// the way each shard's visit loop emits: by time, ties broken by
// instance serial.
func TestShardedKeepsGlobalTimeOrder(t *testing.T) {
	cfg := DefaultConfig(150)
	cfg.Workers = 4
	ds := Simulate(cfg)
	if len(ds.Records) == 0 {
		t.Fatal("no records")
	}
	for i := 1; i < len(ds.Records); i++ {
		a, b := ds.Records[i-1], ds.Records[i]
		if a.Time.After(b.Time) {
			t.Fatalf("record %d out of time order: %v after %v", i, a.Time, b.Time)
		}
		if a.Time.Equal(b.Time) && ds.TrueInstance[i-1] >= ds.TrueInstance[i] {
			t.Fatalf("record %d: serial tie-break violated (%d then %d at %v)",
				i, ds.TrueInstance[i-1], ds.TrueInstance[i], a.Time)
		}
	}
}
