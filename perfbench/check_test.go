package main

import (
	"os"
	"path/filepath"
	"testing"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/linkd"
)

// The correctness checks must fail a run whose output is wrong. Each
// test hands a check a deliberately corrupted output.

func ingestFixture(t *testing.T) *ingestInput {
	t.Helper()
	ds, _ := simulate(40, 5)
	in := &ingestInput{}
	for _, r := range ds.Records {
		l := laneOf(r.UserID, ingestConns)
		in.lanes[l] = append(in.lanes[l], r)
	}
	var err error
	if in.fullDigest, err = storeDigest(expectedStore(in.lanes)); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestIngestCheckPassesExactStore(t *testing.T) {
	in := ingestFixture(t)
	o := newOutcome()
	checkIngest(o, in, &ingestRound{acked: in.lanes, store: expectedStore(in.lanes)}, true)
	if len(o.problems) != 0 {
		t.Fatalf("exact store failed the check: %v", o.problems)
	}
	if o.e2e["top1_accuracy"] != 1 {
		t.Fatalf("read-back share %v, want 1", o.e2e["top1_accuracy"])
	}
}

func TestIngestCheckCatchesCorruptRecord(t *testing.T) {
	in := ingestFixture(t)
	stored := in.lanes
	stored[0] = append([]*fingerprint.Record(nil), in.lanes[0]...)
	bad := *stored[0][3]
	fp := *bad.FP
	fp.CanvasHash = "corrupted"
	bad.FP = &fp
	stored[0][3] = &bad
	o := newOutcome()
	checkIngest(o, in, &ingestRound{acked: in.lanes, store: expectedStore(stored)}, true)
	if len(o.problems) == 0 {
		t.Fatal("a store with a corrupted record passed the digest check")
	}
	if o.e2e["top1_accuracy"] >= 1 {
		t.Fatalf("read-back share %v, want below 1", o.e2e["top1_accuracy"])
	}
}

func TestIngestCheckCatchesLostRecord(t *testing.T) {
	in := ingestFixture(t)
	stored := in.lanes
	stored[1] = in.lanes[1][:len(in.lanes[1])-1]
	o := newOutcome()
	checkIngest(o, in, &ingestRound{acked: in.lanes, store: expectedStore(stored)}, false)
	if len(o.problems) < 2 {
		t.Fatalf("a store missing an acked record should fail count and digest: %v", o.problems)
	}
}

func TestLinkCheckCatchesCorruptIndex(t *testing.T) {
	in, err := linkSetup(7, linkShape{users: 60}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.visits) < 30 {
		t.Fatalf("fixture has only %d visits", len(in.visits))
	}
	svc, _, err := linkd.Open(linkd.Options{Rule: in.rule})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var added []int
	// Acknowledged out of time order, as two connections would.
	for _, vi := range []int{3, 0, 1, 2, 4, 5, 6, 7, 8, 9} {
		if err := svc.Add(in.visits[vi].id, in.visits[vi].rec); err != nil {
			t.Fatal(err)
		}
		added = append(added, vi)
	}
	o := newOutcome()
	checkLinkDigests(o, svc, in, added)
	if len(o.problems) != 0 {
		t.Fatalf("faithful service failed the check: %v", o.problems)
	}

	// The service now holds an add nobody acknowledged, with a
	// corrupted fingerprint.
	v := in.visits[20]
	rec := *v.rec
	fp := *rec.FP
	fp.UserAgent = "corrupted"
	rec.FP = &fp
	if err := svc.Add(v.id, &rec); err != nil {
		t.Fatal(err)
	}
	o = newOutcome()
	checkLinkDigests(o, svc, in, added)
	if len(o.problems) == 0 {
		t.Fatal("a corrupted index passed the replay digest check")
	}
}

func TestPipelineDigestMustRepeat(t *testing.T) {
	dir := t.TempDir()
	a, err := pipelineOnce(filepath.Join(dir, "a"), 120, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipelineOnce(filepath.Join(dir, "b"), 120, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Fatalf("same seed rendered different reports: %s vs %s", a.digest, b.digest)
	}
	c, err := pipelineOnce(filepath.Join(dir, "c"), 120, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Fatal("the report digest does not depend on the input, so the check cannot bite")
	}

	out := filepath.Join(dir, "out")
	e := &env{seed: 3, work: filepath.Join(out, "work", "pipeline-1")}
	if err := os.MkdirAll(filepath.Join(out, "digests"), 0o755); err != nil {
		t.Fatal(err)
	}
	if !recordDigest(e, a.digest) || !recordDigest(e, a.digest) {
		t.Fatal("a repeated digest must pass")
	}
	if recordDigest(e, "corrupted") {
		t.Fatal("a digest that differs from the recorded one passed")
	}
}
