package population

import "testing"

// goldenDigests pins datasetDigest for goldenConfig at each worker
// setting. The values come from the generator without render or font
// caching, so they catch a caching bug that changes every generation
// path the same way — something the path-versus-path equality tests in
// stream_test.go cannot see.
// -1 (NumCPU) stands for every worker count: the output is worker-count
// invariant (TestShardedWorkerCountInvariance).
var goldenDigests = map[int]uint64{
	-1: 0xe3181f5999a125fc,
}

func goldenConfig(workers int) Config {
	cfg := DefaultConfig(120)
	cfg.Seed = 7
	cfg.Workers = workers
	return cfg
}

// TestSimulateGolden checks the in-memory and the spilled generator
// against the pinned digests.
func TestSimulateGolden(t *testing.T) {
	for workers, want := range goldenDigests {
		cfg := goldenConfig(workers)
		if got := datasetDigest(t, Simulate(cfg)); got != want {
			t.Errorf("workers=%d: Simulate digest %#016x, want %#016x", workers, got, want)
		}
		sd, err := SimulateSpill(cfg, StreamOptions{UsersPerBatch: 25})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ds, err := sd.Load()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := datasetDigest(t, ds); got != want {
			t.Errorf("workers=%d: SimulateSpill digest %#016x, want %#016x", workers, got, want)
		}
		if err := sd.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
