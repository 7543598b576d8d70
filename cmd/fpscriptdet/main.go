// Command fpscriptdet runs the fingerprinting-script detection
// workload end to end: simulate a labelled corpus of per-script JS
// API-call traces (internal/scriptsim), featurize it into a wide
// sparse API-count matrix, train a random forest on a stratified
// train split, and report held-out precision/recall/F1 plus the most
// informative APIs — the companion detector to the paper's
// fingerprint-dynamics classification (Section 6), in the style of
// FPClassifier over VisibleV8 traces.
//
// Usage:
//
//	fpscriptdet
//	fpscriptdet -scripts 5000 -fpfrac 0.2 -trees 30
//	fpscriptdet -seed 7 -test-frac 0.25 -top 20
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"fpdyn/internal/mlearn"
	"fpdyn/internal/scriptsim"
)

func main() {
	scripts := flag.Int("scripts", 2000, "scripts to simulate")
	fpfrac := flag.Float64("fpfrac", 0.3, "fraction of fingerprinting scripts")
	seed := flag.Int64("seed", 1, "corpus, split and forest seed")
	trees := flag.Int("trees", 15, "forest size")
	depth := flag.Int("depth", mlearn.Unlimited, "max tree depth (-1 = unlimited)")
	testFrac := flag.Float64("test-frac", 0.3, "held-out fraction (stratified)")
	workers := flag.Int("workers", 0, "simulation/training workers: 0 = all cores")
	top := flag.Int("top", 15, "informative APIs to list")
	flag.Parse()

	start := time.Now()
	traces := scriptsim.Simulate(scriptsim.Config{
		Scripts: *scripts, FPFrac: *fpfrac, Seed: *seed, Workers: *workers,
	})
	m := scriptsim.Featurize(traces)
	simSec := time.Since(start).Seconds()
	fmt.Printf("corpus    %d scripts (%d fingerprinting), %d distinct APIs, density %.4f\n",
		len(traces), countPos(m.Y), len(m.APIs), m.Density())
	fmt.Printf("digest    %s  (%.2fs simulate+featurize)\n", m.Digest(), simSec)

	train, test, err := mlearn.StratifiedSplit(m.Y, *testFrac, *seed)
	if err != nil {
		log.Fatalf("fpscriptdet: split: %v", err)
	}
	Xtr := make([][]float64, len(train))
	ytr := make([]int, len(train))
	for i, r := range train {
		Xtr[i], ytr[i] = m.X[r], m.Y[r]
	}

	start = time.Now()
	forest, err := mlearn.TrainForest(Xtr, ytr, mlearn.ForestConfig{
		Seed: *seed, NumTrees: *trees, MaxDepth: *depth,
		Workers: *workers,
	})
	if err != nil {
		log.Fatalf("fpscriptdet: train: %v", err)
	}
	trainSec := time.Since(start).Seconds()
	fmt.Printf("forest    %d trees, %d nodes, trained on %d scripts in %.2fs\n",
		*trees, forest.NumNodes(), len(train), trainSec)

	c, err := mlearn.EvaluateForest(forest, m.X, m.Y, test, 0.5)
	if err != nil {
		log.Fatalf("fpscriptdet: evaluate: %v", err)
	}
	fmt.Printf("\nheld-out  %d scripts (TP %d  FP %d  FN %d  TN %d)\n", c.Total(), c.TP, c.FP, c.FN, c.TN)
	fmt.Printf("          precision %.3f   recall %.3f   F1 %.3f   accuracy %.3f\n",
		c.Precision(), c.Recall(), c.F1(), c.Accuracy())

	if *top > 0 {
		fmt.Printf("\ntop %d informative APIs (Gini importance):\n", *top)
		type ranked struct {
			api string
			imp float64
		}
		imp := forest.Importances()
		rs := make([]ranked, 0, len(imp))
		for j, v := range imp {
			if v > 0 {
				rs = append(rs, ranked{m.APIs[j], v})
			}
		}
		sort.Slice(rs, func(a, b int) bool {
			if rs[a].imp != rs[b].imp {
				return rs[a].imp > rs[b].imp
			}
			return rs[a].api < rs[b].api
		})
		if len(rs) > *top {
			rs = rs[:*top]
		}
		for _, r := range rs {
			fmt.Printf("  %8.4f  %s\n", r.imp, r.api)
		}
	}
	os.Exit(0)
}

func countPos(y []int) (n int) {
	for _, v := range y {
		n += v
	}
	return
}
