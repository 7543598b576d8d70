package inference

import (
	"testing"

	"fpdyn/internal/browserid"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/population"
)

// unpatchedSeeds are the worlds TestUnpatchedWindows7OnWorld pools.
var unpatchedSeeds = []int64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110}

func TestUnpatchedWindows7OnWorld(t *testing.T) {
	// Windows 7 stragglers are rare: the win7 emoji update fires at 0.2%
	// of old-emoji devices, so a 4,000-user world observes a transition
	// only now and then, and the pre-patch hash of a single observed
	// transition may be shared by no other instance. The paper's
	// asymmetry is a population-level claim, so the counts are pooled
	// over a fixed list of worlds.
	var observed, unpatched int
	for _, seed := range unpatchedSeeds {
		cfg := population.DefaultConfig(4000)
		cfg.Seed = seed
		ds := population.Simulate(cfg)
		gt := browserid.Build(ds.Records)
		cl := &dynamics.Classifier{Images: dynamics.MapImages(ds.CanvasImages)}
		acc := NewPatchAccumulator()
		for _, d := range dynamics.Changed(dynamics.Generate(gt)) {
			acc.AddDynamics(d, cl.Classify(d))
		}
		for _, recs := range gt.Instances {
			acc.AddLatest(recs[len(recs)-1])
		}
		rep := acc.Report()
		t.Logf("seed %d: updates observed: %d; old hashes: %d; unpatched instances: %d",
			seed, rep.UpdateObserved, len(rep.OldHashes), rep.UnpatchedInstances)
		observed += rep.UpdateObserved
		unpatched += rep.UnpatchedInstances
	}
	if observed == 0 {
		t.Fatalf("no Windows 7 emoji update observed in %d worlds", len(unpatchedSeeds))
	}
	// The paper's asymmetry: far more unpatched instances than observed
	// updates (9 updates vs 6,968 unpatched).
	if unpatched <= observed {
		t.Errorf("unpatched (%d) should far exceed observed updates (%d)", unpatched, observed)
	}
}

func TestUnpatchedWindows7Empty(t *testing.T) {
	rep := NewPatchAccumulator().Report()
	if rep.UpdateObserved != 0 || rep.UnpatchedInstances != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}
