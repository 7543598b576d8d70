package linkd

import (
	"fmt"
	"testing"
	"time"

	"fpdyn/internal/fpstalker"
	"fpdyn/internal/storage"
)

// TestWindowEvictorStickyPin pins the evictor's pin contract at the
// unit level: a zero-time observation exempts the instance forever,
// and a later timed re-add must NOT re-arm eviction. (Regression: the
// pre-pinned-set evictor implemented the pin as delete(last, id), so
// any timed re-add silently unpinned — the exact sequence a journal
// replay or a client retry produces.)
func TestWindowEvictorStickyPin(t *testing.T) {
	w := newWindowEvictor()
	w.observe("a", tBase)
	w.observe("pin", tBase)
	w.observe("pin", time.Time{}) // pin after a timed add
	w.observe("pin", tBase.Add(time.Hour))
	w.observe("pin", tBase.Add(2*time.Hour)) // timed re-adds: still pinned
	w.observe("b", tBase.Add(3*time.Hour))

	ids := w.expired(tBase.Add(1000 * time.Hour))
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("expired = %v, want [a b] (pin must never expire)", ids)
	}
	if w.size() != 0 {
		t.Fatalf("size = %d after full expiry, want 0 tracked", w.size())
	}
	// The pin holds across further rounds too.
	w.observe("pin", tBase.Add(4*time.Hour))
	if ids := w.expired(tBase.Add(2000 * time.Hour)); len(ids) != 0 {
		t.Fatalf("pinned instance expired on a later round: %v", ids)
	}
}

// TestEvictionPinSurvivesTimedReAdd drives the same sequence through
// the service with a fake clock: pin an instance, re-observe it with a
// timestamp old enough to be outside the window, advance, evict — the
// pin must survive, and two identically-fed services (one where the
// timed re-add never happened) must land on identical index digests,
// since a pinned instance's eviction state may not depend on
// post-pin observations.
func TestEvictionPinSurvivesTimedReAdd(t *testing.T) {
	build := func(timedReAdd bool) *Service {
		clock := newFakeClock(tBase)
		svc := openTest(t, func(o *Options) {
			o.Window = 24 * time.Hour
			o.clock = clock.Now
		})
		if err := svc.Add("pin", testRecord(3, time.Time{})); err != nil {
			t.Fatalf("pin add: %v", err)
		}
		if timedReAdd {
			// The record content matches the non-re-add service so only
			// the evictor state could possibly diverge.
			if err := svc.Add("pin", testRecord(3, time.Time{})); err != nil {
				t.Fatalf("zero re-add: %v", err)
			}
			if err := svc.Add("pin", testRecord(3, tBase)); err != nil {
				t.Fatalf("timed re-add: %v", err)
			}
			if err := svc.Add("pin", testRecord(3, time.Time{})); err != nil {
				t.Fatalf("restore record: %v", err)
			}
		}
		clock.Advance(1000 * time.Hour)
		svc.EvictExpired()
		return svc
	}

	svc := build(true)
	if svc.Len() != 1 {
		t.Fatalf("Len = %d after eviction, want 1 (the pin)", svc.Len())
	}
	ref := build(false)
	r1, l1 := svc.IndexDigests()
	r2, l2 := ref.IndexDigests()
	if r1 != r2 || l1 != l2 {
		t.Fatalf("timed re-add changed the pinned end state:\n%s / %s\n%s / %s", r1, l1, r2, l2)
	}
}

// TestEvictionPinSurvivesRecovery extends the chaos property to pins:
// replaying a journal that interleaves pins and timed re-adds must
// rebuild the same eviction behaviour as the never-crashed service.
func TestEvictionPinSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	forest, err := testForest()
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}
	wal := storage.WALOptions{Dir: dir, Policy: storage.SyncAlways}
	open := func(clock *fakeClock) *Service {
		svc, _, err := Open(Options{
			Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(forest),
			WAL: wal, Window: 24 * time.Hour, clock: clock.Now, MaxInFlight: 2,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return svc
	}

	clock := newFakeClock(tBase)
	svc := open(clock)
	for i := 0; i < 6; i++ {
		if err := svc.Add(fmt.Sprintf("i%d", i), testRecord(i, tBase.Add(time.Duration(i)*time.Hour))); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if err := svc.Add("i1", testRecord(1, time.Time{})); err != nil { // pin i1
		t.Fatalf("pin: %v", err)
	}
	if err := svc.Add("i1", testRecord(1, tBase.Add(2*time.Hour))); err != nil { // then a timed re-add
		t.Fatalf("re-add: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reClock := newFakeClock(tBase)
	re := open(reClock)
	defer re.Close()
	reClock.Advance(1000 * time.Hour)
	re.EvictExpired()
	if re.Len() != 1 {
		t.Fatalf("recovered Len = %d after full expiry, want 1 (pinned i1)", re.Len())
	}

	// Reference: the same history applied to a fresh in-memory service.
	refClock := newFakeClock(tBase)
	ref := openTest(t, func(o *Options) {
		o.Window = 24 * time.Hour
		o.clock = refClock.Now
	})
	for i := 0; i < 6; i++ {
		if err := ref.Add(fmt.Sprintf("i%d", i), testRecord(i, tBase.Add(time.Duration(i)*time.Hour))); err != nil {
			t.Fatalf("ref add: %v", err)
		}
	}
	if err := ref.Add("i1", testRecord(1, time.Time{})); err != nil {
		t.Fatalf("ref pin: %v", err)
	}
	if err := ref.Add("i1", testRecord(1, tBase.Add(2*time.Hour))); err != nil {
		t.Fatalf("ref re-add: %v", err)
	}
	refClock.Advance(1000 * time.Hour)
	ref.EvictExpired()
	r1, l1 := re.IndexDigests()
	r2, l2 := ref.IndexDigests()
	if r1 != r2 || l1 != l2 {
		t.Fatalf("recovered eviction state diverges from never-crashed reference:\n%s / %s\n%s / %s", r1, l1, r2, l2)
	}
}
