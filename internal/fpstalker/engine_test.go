package fpstalker

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/useragent"
)

// engineWorld simulates a record stream and splices in a few
// unparseable-UA records so the equivalence tests cover the raw-UA
// bucket and the learning variant's unparsed-entry path.
func engineWorld(t testing.TB, users int, seed int64) ([]*fingerprint.Record, []int) {
	records, instances := trainWorld(t, users, seed)
	maxInst := 0
	for _, inst := range instances {
		if inst > maxInst {
			maxInst = inst
		}
	}
	for j := 0; j < 3; j++ {
		rec := chromeRecord(useragent.V(60+j), tBase.Add(time.Duration(j)*time.Hour))
		rec.FP.UserAgent = fmt.Sprintf("TotallyUnknownAgent/%d.0", j)
		records = append(records, rec)
		instances = append(instances, maxInst+1+j)
	}
	return records, instances
}

// evolvedFrom derives a plausible non-exact query from a stored record.
func evolvedFrom(rec *fingerprint.Record, i int) *fingerprint.Record {
	cp := *rec
	fp := rec.FP.Clone()
	fp.CanvasHash = fmt.Sprintf("evolved-%d", i)
	fp.TimezoneOffset += 60
	cp.FP = fp
	cp.Time = rec.Time.Add(24 * time.Hour)
	return &cp
}

// goldenQueries mixes exact re-presentations, evolved fingerprints and
// the unparseable-UA records.
func goldenQueries(records []*fingerprint.Record) []*fingerprint.Record {
	var qs []*fingerprint.Record
	for i := 0; i < len(records); i += 31 {
		qs = append(qs, records[i], evolvedFrom(records[i], i))
	}
	return qs
}

// TestGoldenEquivalenceRule: the blocked, parallel rule-based engine
// must return byte-identical rankings to the paper's serial linear
// scan for every query.
func TestGoldenEquivalenceRule(t *testing.T) {
	records, instances := engineWorld(t, 500, 61)
	linear := NewRuleLinker()
	linear.NoBlocking = true
	linear.Workers = 1
	engine := NewRuleLinker()
	for i, rec := range records {
		linear.Add(InstanceID(instances[i]), rec)
		engine.Add(InstanceID(instances[i]), rec)
	}
	for qi, q := range goldenQueries(records) {
		want := linear.TopK(q, 10)
		got := engine.TopK(q, 10)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: engine ranking diverged\n scan:   %v\n engine: %v", qi, want, got)
		}
	}
}

// TestGoldenEquivalenceLearning: same contract for the learning-based
// variant, which blocks on a coarser key and must still include
// unparsed entries in every candidate set. Every blocking × workers
// mode must rank exactly as the serial linear scan.
func TestGoldenEquivalenceLearning(t *testing.T) {
	records, instances := engineWorld(t, 350, 62)
	forest, err := TrainPairModel(records, instances, mlearn.ForestConfig{Seed: 7, NumTrees: 8, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	linear := NewLearnLinker(forest)
	linear.NoBlocking = true
	linear.Workers = 1
	modes := []struct {
		name       string
		noBlocking bool
		workers    int
	}{
		{"blocked-serial", false, 1},
		{"blocked-parallel", false, 8},
		{"scan-parallel", true, 8},
	}
	engines := make([]*LearnLinker, len(modes))
	for m, mode := range modes {
		engines[m] = NewLearnLinker(forest)
		engines[m].NoBlocking = mode.noBlocking
		engines[m].Workers = mode.workers
	}
	for i, rec := range records {
		linear.Add(InstanceID(instances[i]), rec)
		for _, e := range engines {
			e.Add(InstanceID(instances[i]), rec)
		}
	}
	if linear.Len() < minParallel {
		t.Fatalf("world too small (%d) to exercise the parallel path", linear.Len())
	}
	ranked := 0
	for qi, q := range goldenQueries(records) {
		want := linear.TopK(q, 10)
		ranked += len(want)
		for m, e := range engines {
			if got := e.TopK(q, 10); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s query %d: engine ranking diverged\n scan:   %v\n engine: %v", modes[m].name, qi, want, got)
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no query ranked any candidate: the comparison is vacuous")
	}
}

// TestBlockingSurvivesReplacement: replacing an instance's fingerprint
// with one in a different bucket (browser update across OS, UA turning
// unparseable) must move it between buckets, not leave a stale index.
func TestBlockingSurvivesReplacement(t *testing.T) {
	l := NewRuleLinker()
	rec := chromeRecord(useragent.V(63, 0, 3239, 132), tBase)
	l.Add("a", rec)

	// Replace with an unparseable UA: the entry must leave the Chrome
	// bucket and become reachable only by verbatim UA match.
	garbled := chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(time.Hour))
	garbled.FP.UserAgent = "GarbledAgent/1.0"
	l.Add("a", garbled)

	q := chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(2*time.Hour))
	q.FP.CanvasHash = "different" // defeat the exact index
	if got := l.TopK(q, 10); len(got) != 0 {
		t.Fatalf("stale bucket: chrome query linked to garbled entry: %v", got)
	}
	q2 := chromeRecord(useragent.V(63, 0, 3239, 132), tBase.Add(2*time.Hour))
	q2.FP.UserAgent = "GarbledAgent/1.0"
	q2.FP.CanvasHash = "different"
	got := l.TopK(q2, 10)
	if len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("verbatim unparseable match failed: %v", got)
	}

	// Replace back with a parsed UA: the raw bucket must be vacated.
	l.Add("a", chromeRecord(useragent.V(64, 0, 3282, 140), tBase.Add(3*time.Hour)))
	if got := l.TopK(q2, 10); len(got) != 0 {
		t.Fatalf("stale raw bucket: garbled query still links: %v", got)
	}
}

// TestParallelWorkersMatchSerial pins the worker pool itself (forcing
// the pool past the small-candidate serial cutoff) against the serial
// path on an identical table.
func TestParallelWorkersMatchSerial(t *testing.T) {
	records, instances := engineWorld(t, 500, 63)
	serial := NewRuleLinker()
	serial.NoBlocking = true
	serial.Workers = 1
	parallel := NewRuleLinker()
	parallel.NoBlocking = true // whole table as one big candidate set
	parallel.Workers = 8
	for i, rec := range records {
		serial.Add(InstanceID(instances[i]), rec)
		parallel.Add(InstanceID(instances[i]), rec)
	}
	if serial.Len() < minParallel {
		t.Fatalf("world too small (%d) to exercise the parallel path", serial.Len())
	}
	for qi, q := range goldenQueries(records) {
		want := serial.TopK(q, 10)
		got := parallel.TopK(q, 10)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: parallel ranking diverged\n serial:   %v\n parallel: %v", qi, want, got)
		}
	}
}

// TestConcurrentAddTopK hammers both linkers with interleaved writers
// and readers; run under -race it is the engine's thread-safety proof.
func TestConcurrentAddTopK(t *testing.T) {
	records, instances := trainWorld(t, 200, 71)
	forest, err := TrainPairModel(records[:len(records)/2], instances[:len(records)/2],
		mlearn.ForestConfig{Seed: 3, NumTrees: 5, MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	linkers := []struct {
		name string
		l    Linker
	}{
		{"rule", NewRuleLinker()},
		{"learning", NewLearnLinker(forest)},
	}
	for _, tc := range linkers {
		t.Run(tc.name, func(t *testing.T) {
			const writers, readers = 4, 4
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(records); i += writers {
						tc.l.Add(InstanceID(instances[i]), records[i])
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; i < len(records); i += 3 * readers {
						tc.l.TopK(evolvedFrom(records[i], i), 10)
						tc.l.Len()
					}
				}(r)
			}
			wg.Wait()
			if tc.l.Len() == 0 {
				t.Fatal("no entries after concurrent adds")
			}
		})
	}
}

// TestTimeMatchingNonZero guards the rounded-mean protocol: even a
// fast blocked engine must report a non-zero per-query latency.
func TestTimeMatchingNonZero(t *testing.T) {
	l := NewRuleLinker()
	l.Add("a", chromeRecord(useragent.V(63), tBase))
	q := chromeRecord(useragent.V(63), tBase.Add(time.Hour))
	if d := TimeMatching(l, []*fingerprint.Record{q}, 10); d <= 0 {
		t.Fatalf("TimeMatching = %v, want > 0", d)
	}
	if d := TimeMatching(l, nil, 10); d != 0 {
		t.Fatalf("TimeMatching(no queries) = %v, want 0", d)
	}
}
