package linker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"fpdyn/internal/fpstalker"
	"fpdyn/internal/population"
)

// TestThreeLinkerRankingPin replays one seeded world Evaluate-style
// (each record is queried for its top 10, then added under its true
// instance) through the rule linker, the learning linker and the
// hybrid, and pins a SHA-256 per linker over every ranking, each
// candidate rendered as id=%.17g. A change to candidate generation,
// scoring, the exact-match index or the ranking order of any of the
// three moves its digest.
func TestThreeLinkerRankingPin(t *testing.T) {
	cfg := population.DefaultConfig(500)
	cfg.Seed = 41
	ds := population.Simulate(cfg)
	forest, err := fpstalker.TrainPairModel(ds.Records, ds.TrueInstance, fpstalker.PairModelConfig(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		l    fpstalker.Linker
		want string
	}{
		{"rule", fpstalker.NewRuleLinker(), "935b895be0d386cd4784d6d9025223d62edab5fd0aa9596adddcad084d71c8de"},
		{"learn", fpstalker.NewLearnLinker(forest), "f2ededd51534db8737cae28b2c84327a28cfec62657c88200f3243750f3bbeac"},
		{"hybrid", New(), "528ac54fc2c905bd0360fa7653cdcf5efcede369addc3830a5943bbc19d9b4c7"},
	} {
		h := sha256.New()
		ranked := 0
		for i, rec := range ds.Records {
			fmt.Fprintf(h, "q%d", i)
			for _, c := range tc.l.TopK(rec, 10) {
				fmt.Fprintf(h, " %s=%.17g", c.ID, c.Score)
				ranked++
			}
			h.Write([]byte{'\n'})
			tc.l.Add(fpstalker.InstanceID(ds.TrueInstance[i]), rec)
		}
		if ranked == 0 {
			t.Fatalf("%s: no query ranked any candidate: the pin is vacuous", tc.name)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: ranking digest %s over %d records (%d candidates), want %s",
				tc.name, got, len(ds.Records), ranked, tc.want)
		}
	}
}
