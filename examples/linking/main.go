// Linking: evaluate the FP-Stalker baseline (rule-based and
// learning-based) on a growing synthetic dataset, reproducing the
// shape of the paper's Insight 2 — F1 and matching speed degrade as
// the database grows.
package main

import (
	"fmt"
	"log"
	"sort"

	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linker"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/population"
)

func main() {
	cfg := population.DefaultConfig(1500)
	ds := population.Simulate(cfg)
	fmt.Printf("world: %d records, %d instances\n\n", len(ds.Records), ds.NumInstances)

	for _, frac := range []float64{0.3, 0.6, 1.0} {
		n := int(frac * float64(len(ds.Records)))
		recs, inst := ds.Records[:n], ds.TrueInstance[:n]

		rule := fpstalker.Evaluate(fpstalker.NewRuleLinker(), recs, inst, 10)
		fmt.Printf("rule-based     n=%-6d F1=%.3f P=%.3f R=%.3f mean-match=%v\n",
			n, rule.F1(), rule.Precision(), rule.Recall(), rule.MeanMatchTime)

		forest, err := fpstalker.TrainPairModel(recs, inst, fpstalker.PairModelConfig(1))
		if err != nil {
			log.Fatal(err)
		}
		learn := fpstalker.Evaluate(fpstalker.NewLearnLinker(forest), recs, inst, 10)
		fmt.Printf("learning-based n=%-6d F1=%.3f P=%.3f R=%.3f mean-match=%v\n",
			n, learn.F1(), learn.Precision(), learn.Recall(), learn.MeanMatchTime)

		// The dynamics-aware hybrid linker (the paper's Advices 5-8).
		hyb := fpstalker.Evaluate(linker.New(), recs, inst, 10)
		fmt.Printf("hybrid         n=%-6d F1=%.3f P=%.3f R=%.3f mean-match=%v\n\n",
			n, hyb.F1(), hyb.Precision(), hyb.Recall(), hyb.MeanMatchTime)
	}
	fmt.Println("note how FP-Stalker's match time grows with n (Figure 9) while F1 drifts down")
	fmt.Println("(Figure 10); the dynamics-aware hybrid keeps F1 higher at a fraction of the latency")

	// What did the learning model actually learn? Gini importances of
	// the pair features.
	forest, err := fpstalker.TrainPairModel(ds.Records, ds.TrueInstance,
		mlearn.ForestConfig{Seed: 1, NumTrees: 20, MaxDepth: 8})
	if err != nil {
		log.Fatal(err)
	}
	imp := forest.Importances()
	type fi struct {
		name string
		v    float64
	}
	ranked := make([]fi, len(imp))
	for i, v := range imp {
		ranked[i] = fi{fpstalker.PairFeatureNames[i], v}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	fmt.Println("\ntop pair-model features by Gini importance:")
	for _, f := range ranked[:5] {
		fmt.Printf("  %-26s %.3f\n", f.name, f.v)
	}
}
