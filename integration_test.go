package fpdyn

// End-to-end integration: the full measurement pipeline over a real
// TCP hop — simulate a world, push every visit through the collection
// client (parallel task manager + dedup transfer), snapshot the
// server-side store to disk, reload it, rebuild ground truth, generate
// and classify dynamics, and evaluate the linkers — asserting the
// invariants that tie the stages together.

import (
	"context"
	"net"
	"path/filepath"
	"sort"
	"testing"

	"fpdyn/internal/browserid"
	"fpdyn/internal/collector"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linker"
	"fpdyn/internal/population"
	"fpdyn/internal/stats"
	"fpdyn/internal/storage"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Stage 1: the world.
	cfg := population.DefaultConfig(150)
	cfg.Seed = 99
	ds := population.Simulate(cfg)

	// Stage 2: collection over TCP.
	store := storage.NewShardedStore(1)
	srv := collector.NewServer(store)
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	cl, err := collector.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range ds.Records {
		fp, err := collector.Collect(context.Background(), collector.RecordBrowser{Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		full := *rec
		full.FP = fp
		if _, err := cl.Submit(&full); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if store.Len() != len(ds.Records) {
		t.Fatalf("collected %d of %d records", store.Len(), len(ds.Records))
	}
	if s := srv.Stats(); s.ValuesDeduped == 0 {
		t.Error("dedup never fired across a whole world")
	}

	// Stage 3: persistence round trip.
	path := filepath.Join(t.TempDir(), "world.jsonl")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := storage.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("reloaded %d of %d records", loaded.Len(), store.Len())
	}

	// Stage 4: ground truth and dynamics off the reloaded store. The
	// export is user-ordered; ordered by time, as fpreplay replays it,
	// it must be the submitted sequence again.
	records := loaded.Records()
	sort.SliceStable(records, func(i, j int) bool { return records[i].Time.Before(records[j].Time) })
	for i, rec := range records {
		want := ds.Records[i]
		if !rec.Time.Equal(want.Time) || rec.UserID != want.UserID || rec.Cookie != want.Cookie {
			t.Fatalf("time-ordered record %d = (%v, %s, %s), submitted (%v, %s, %s)",
				i, rec.Time, rec.UserID, rec.Cookie, want.Time, want.UserID, want.Cookie)
		}
	}
	gt := browserid.Build(records)
	ratio := float64(gt.NumInstances()) / float64(ds.NumInstances)
	if ratio < 0.85 || ratio > 1.2 {
		t.Errorf("browser IDs %d vs true instances %d", gt.NumInstances(), ds.NumInstances)
	}
	dyns := dynamics.Generate(gt)
	changed := dynamics.Changed(dyns)
	clf := &dynamics.Classifier{Images: dynamics.MapImages(ds.CanvasImages)}
	b := dynamics.Analyze(changed, clf, gt.NumInstances())
	if b.TotalChanged != len(changed) {
		t.Fatalf("analyze counted %d of %d", b.TotalChanged, len(changed))
	}
	if len(changed) > 0 && b.Unclassified > len(changed)/5 {
		t.Errorf("unclassified %d of %d", b.Unclassified, len(changed))
	}

	// Stage 5: identifiability and linking sanity on the same store.
	// Figure 2's accumulator, fed as the report feeds it: each browser
	// instance's records contiguous under the instance's ordinal.
	ids := make([]string, 0, len(gt.Instances))
	for id := range gt.Instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	anon := stats.NewAnonymityAccumulator()
	for ord, id := range ids {
		for _, r := range gt.Instances[id] {
			anon.Add(ord+1, r.FP.Hash(true))
		}
	}
	curve := anon.Curve(5)
	for k := 1; k < 5; k++ {
		if curve.PctIdentifiable[k] < curve.PctIdentifiable[k-1] {
			t.Fatal("anonymity curve not monotone")
		}
	}
	// The time-ordered records are the submitted sequence (checked
	// above), so the simulator's instance labels align with them
	// positionally.
	rule := fpstalker.Evaluate(fpstalker.NewRuleLinker(), records, ds.TrueInstance, 10)
	hyb := fpstalker.Evaluate(linker.New(), records, ds.TrueInstance, 10)
	t.Logf("pipeline: %d records, %d instances, %d dynamics; rule F1=%.3f, hybrid F1=%.3f",
		len(records), gt.NumInstances(), len(changed), rule.F1(), hyb.F1())
	if rule.F1() == 0 || hyb.F1() == 0 {
		t.Error("linking produced zero F1")
	}
}
