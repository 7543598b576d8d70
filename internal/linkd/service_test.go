package linkd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/obs"
	"fpdyn/internal/parallel"
	"fpdyn/internal/storage"
)

// openTest builds an in-memory service with both linkers and the given
// option tweaks applied on top of sane test defaults.
func openTest(t *testing.T, mutate func(*Options)) *Service {
	t.Helper()
	forest, err := testForest()
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}
	opts := Options{
		Rule:        fpstalker.NewRuleLinker(),
		Learn:       fpstalker.NewLearnLinker(forest),
		MaxInFlight: 4,
		QueueDepth:  4,
	}
	if mutate != nil {
		mutate(&opts)
	}
	svc, _, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func addN(t *testing.T, svc *Service, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := testRecord(i, tBase.Add(time.Duration(i)*time.Minute))
		if err := svc.Add(fmt.Sprintf("i%d", i), rec); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
}

func TestAddQueryBasic(t *testing.T) {
	svc := openTest(t, nil)
	addN(t, svc, 20)
	if svc.Len() != 20 {
		t.Fatalf("Len = %d, want 20", svc.Len())
	}

	cands, mode, err := svc.Query(context.Background(), evolvedQuery(7, tBase.Add(time.Hour)), 5)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if mode != ModeLearning {
		t.Fatalf("mode = %q, want %q", mode, ModeLearning)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for an evolved fingerprint")
	}
	// Exact re-observation must surface its own instance first.
	cands, _, err = svc.Query(context.Background(), testRecord(7, tBase.Add(time.Hour)), 3)
	if err != nil {
		t.Fatalf("exact query: %v", err)
	}
	if len(cands) == 0 || cands[0].ID != "i7" {
		t.Fatalf("exact query top candidate = %+v, want i7", cands)
	}
}

func TestAddValidation(t *testing.T) {
	svc := openTest(t, nil)
	if err := svc.Add("", testRecord(0, tBase)); err == nil {
		t.Fatal("add with empty id accepted")
	}
	if err := svc.Add("x", nil); err == nil {
		t.Fatal("add with nil record accepted")
	}
	svc.Close()
	if err := svc.Add("x", testRecord(0, tBase)); !errors.Is(err, ErrClosed) {
		t.Fatalf("add after close: %v, want ErrClosed", err)
	}
	if _, _, err := svc.Query(context.Background(), testRecord(0, tBase), 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v, want ErrClosed", err)
	}
}

// TestAdmissionShed is the overload test: with one scoring slot and a
// one-deep queue stalled by the fault injector, a third concurrent
// query must be shed immediately — not after the stall — while the
// admitted queries still complete.
func TestAdmissionShed(t *testing.T) {
	const stall = 300 * time.Millisecond
	svc := openTest(t, func(o *Options) {
		o.MaxInFlight = 1
		o.QueueDepth = 1
		o.fault = &faultinject.Script{Stall: stall}
	})
	addN(t, svc, 10)

	type result struct {
		err error
	}
	results := make(chan result, 2)
	runQuery := func() {
		_, _, err := svc.Query(context.Background(), evolvedQuery(3, tBase.Add(time.Hour)), 3)
		results <- result{err}
	}

	go runQuery() // will hold the scoring slot for ~stall
	waitFor(t, func() bool { return svc.m.inflight.Value() == 1 })
	go runQuery() // queued behind it
	waitFor(t, func() bool { return svc.pending.Load() == 2 })

	start := time.Now()
	_, _, err := svc.Query(context.Background(), evolvedQuery(4, tBase.Add(time.Hour)), 3)
	shedAfter := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third query: %v, want ErrOverloaded", err)
	}
	if shedAfter > stall/2 {
		t.Fatalf("shed took %v; must not wait out the %v stall", shedAfter, stall)
	}

	for i := 0; i < 2; i++ {
		if r := <-results; r.err != nil {
			t.Fatalf("admitted query %d failed: %v", i, r.err)
		}
	}
	if got := svc.m.queriesShed.Value(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	if got := svc.m.queriesOK.Value(); got != 2 {
		t.Fatalf("ok counter = %d, want 2", got)
	}
	if n := svc.pending.Load(); n != 0 {
		t.Fatalf("pending = %d after drain, want 0", n)
	}
}

// TestQueuedDeadline: a query whose context expires while waiting for a
// scoring slot aborts with the context's error, promptly.
func TestQueuedDeadline(t *testing.T) {
	const stall = 400 * time.Millisecond
	svc := openTest(t, func(o *Options) {
		o.MaxInFlight = 1
		o.QueueDepth = 2
		o.fault = &faultinject.Script{Stall: stall}
	})
	addN(t, svc, 10)

	done := make(chan error, 1)
	go func() {
		_, _, err := svc.Query(context.Background(), evolvedQuery(1, tBase.Add(time.Hour)), 3)
		done <- err
	}()
	waitFor(t, func() bool { return svc.m.inflight.Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := svc.Query(ctx, evolvedQuery(2, tBase.Add(time.Hour)), 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query: %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > stall {
		t.Fatalf("deadline honored after %v; slot holder stalls %v", waited, stall)
	}
	if got := svc.m.queriesExpired.Value(); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictionWindow drives the sliding collect window with a fake
// clock: old instances leave every index, re-observation pins an
// instance, a zero observation time pins it forever, and two services
// fed the same history land on identical digests.
func TestEvictionWindow(t *testing.T) {
	build := func() (*Service, *fakeClock) {
		clock := newFakeClock(tBase)
		svc := openTest(t, func(o *Options) {
			o.Window = 24 * time.Hour
			o.clock = clock.Now
		})
		for i := 0; i < 10; i++ {
			rec := testRecord(i, tBase.Add(time.Duration(i)*time.Hour))
			if err := svc.Add(fmt.Sprintf("i%d", i), rec); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
		// Re-observation of i2 at +20h: its window restarts there.
		if err := svc.Add("i2", testRecord(2, tBase.Add(20*time.Hour))); err != nil {
			t.Fatalf("re-add: %v", err)
		}
		// Zero-time record: pinned, never subject to the window.
		pin := testRecord(99, time.Time{})
		if err := svc.Add("pin", pin); err != nil {
			t.Fatalf("pin add: %v", err)
		}
		return svc, clock
	}

	svc, clock := build()
	clock.Advance(30 * time.Hour) // cutoff = tBase+6h
	evicted := svc.EvictExpired()
	// i0..i5 observed before +6h — except i2, re-observed at +20h.
	if evicted != 5 {
		t.Fatalf("evicted %d, want 5", evicted)
	}
	if svc.Len() != 6 { // i2, i6..i9, pin
		t.Fatalf("Len = %d after eviction, want 6", svc.Len())
	}
	if got := svc.m.evictions.Value(); got != 5 {
		t.Fatalf("evictions counter = %d, want 5", got)
	}
	// Evicted instances are gone from the indexes, survivors remain.
	cands, _, err := svc.Query(context.Background(), testRecord(7, tBase.Add(31*time.Hour)), 3)
	if err != nil || len(cands) == 0 || cands[0].ID != "i7" {
		t.Fatalf("survivor query = %v, %v; want i7 first", cands, err)
	}
	for _, c := range cands {
		if c.ID == "i0" || c.ID == "i5" {
			t.Fatalf("evicted instance %s still ranked", c.ID)
		}
	}

	// Determinism: an identically-fed service evicts to the same state.
	ref, refClock := build()
	refClock.Advance(30 * time.Hour)
	ref.EvictExpired()
	r1, l1 := svc.IndexDigests()
	r2, l2 := ref.IndexDigests()
	if r1 != r2 || l1 != l2 {
		t.Fatalf("digest divergence after identical eviction:\n%s / %s\n%s / %s", r1, l1, r2, l2)
	}

	// Much later everything but the pin is out.
	clock.Advance(1000 * time.Hour)
	svc.EvictExpired()
	if svc.Len() != 1 {
		t.Fatalf("Len = %d after full expiry, want 1 (the pin)", svc.Len())
	}
}

func TestDegraderHysteresis(t *testing.T) {
	// Each sample is 100 queries that all took p99 seconds.
	sample := func(d *degrader, shed, p99 float64) (bool, bool) {
		var underLow, underHigh uint64
		if p99 <= p99Low {
			underLow = 100
		}
		if p99 <= p99High {
			underHigh = 100
		}
		return d.sample(shed, 100, underLow, underHigh)
	}
	type step struct {
		shed, p99    float64
		wantDegraded bool
		wantChanged  bool
	}
	times := func(n int, s step) []step {
		out := make([]step, n)
		for i := range out {
			out[i] = s
		}
		return out
	}
	seq := func(parts ...[]step) []step {
		var out []step
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	var (
		bad     = step{0.5, 0, false, false}   // bad sample, not yet degraded
		flip    = step{0.5, 0, true, true}     // the bad sample that degrades
		good    = step{0, 0, true, false}      // good sample, still degraded
		back    = step{0, 0, false, true}      // the good sample that recovers
		dead    = step{0.05, 0.3, true, false} // dead band while degraded
		degrade = seq(times(degradeAfter-1, bad), []step{flip})
	)
	cases := []struct {
		name  string
		steps []step
	}{
		{"needs consecutive bad", seq(
			times(degradeAfter-1, bad),
			[]step{{0, 0, false, false}}, // good resets the streak
			degrade,
		)},
		{"p99 alone degrades", seq(
			times(degradeAfter-1, step{0, 1.0, false, false}),
			[]step{{0, 1.0, true, true}},
		)},
		{"dead band holds mode and resets streaks", seq(
			times(degradeAfter-1, bad),
			[]step{{0.05, 0.3, false, false}}, // neither bad nor good
			degrade,
			times(recoverAfter-1, good),
			[]step{dead}, // dead band: stay degraded
			times(recoverAfter-1, good),
			[]step{back},
		)},
		{"recovery needs consecutive good", seq(
			degrade,
			times(recoverAfter-1, good),
			[]step{{0.5, 0, true, false}}, // bad resets the ok streak
			times(recoverAfter-1, good),
			[]step{back},
		)},
		{"recovery needs both gauges low", seq(
			degrade,
			times(recoverAfter+1, step{0, 0.3, true, false}), // shed fine, p99 in dead band
		)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d degrader
			for i, s := range tc.steps {
				degraded, changed := sample(&d, s.shed, s.p99)
				if degraded != s.wantDegraded || changed != s.wantChanged {
					t.Fatalf("step %d (%+v): degraded=%v changed=%v, want %v %v",
						i, s, degraded, changed, s.wantDegraded, s.wantChanged)
				}
			}
		})
	}
}

// TestWatermarksAreQueryBounds: the controller decides the p99
// watermarks from the query histogram's cumulative counts at those
// bounds, so both must be bounds of that histogram.
func TestWatermarksAreQueryBounds(t *testing.T) {
	svc := openTest(t, nil)
	found := map[float64]bool{}
	for _, b := range svc.m.querySeconds.Snapshot().Buckets {
		found[b.UpperBound] = true
	}
	for _, w := range []float64{p99Low, p99High} {
		if !found[w] {
			t.Errorf("watermark %v s is not a linkd_query_seconds bound", w)
		}
	}
}

// TestSampleOverloadModeSwitch drives the service-level controller with
// synthetic counter/histogram traffic: sustained shed flips the mode
// gauge to rule, queries report the degraded mode, calm intervals flip
// it back.
func TestSampleOverloadModeSwitch(t *testing.T) {
	svc := openTest(t, nil)
	addN(t, svc, 10)

	loadedInterval := func() {
		svc.m.queriesShed.Add(50)
		svc.m.queriesOK.Add(50)
	}

	if svc.SampleOverload() {
		t.Fatal("degraded with no traffic")
	}
	for i := 1; i < degradeAfter; i++ {
		loadedInterval()
		if svc.SampleOverload() {
			t.Fatalf("degraded after %d bad intervals", i)
		}
	}
	loadedInterval()
	if !svc.SampleOverload() { // bad streak 3 → flip
		t.Fatalf("not degraded after %d bad intervals", degradeAfter)
	}
	if !svc.degraded.Load() {
		t.Fatal("Degraded() = false in degraded mode")
	}
	if got := svc.m.modeRule.Value(); got != 1 {
		t.Fatalf("linkd_mode_rule = %v, want 1", got)
	}
	if got := svc.m.transitions.Value(); got != 1 {
		t.Fatalf("transitions = %d, want 1", got)
	}
	_, mode, err := svc.Query(context.Background(), evolvedQuery(3, tBase.Add(time.Hour)), 3)
	if err != nil || mode != ModeRule {
		t.Fatalf("degraded query mode = %q (%v), want %q", mode, err, ModeRule)
	}

	// Five idle intervals: shed rate 0, no queries → recover. The
	// degraded query above took far less than 0.1 s.
	for i := 1; i < recoverAfter; i++ {
		svc.SampleOverload()
		if !svc.degraded.Load() {
			t.Fatalf("recovered after %d good intervals", i)
		}
	}
	svc.SampleOverload()
	if svc.degraded.Load() {
		t.Fatalf("not recovered after %d good intervals", recoverAfter)
	}
	if got := svc.m.modeRule.Value(); got != 0 {
		t.Fatalf("linkd_mode_rule = %v after recovery, want 0", got)
	}
	if got := svc.m.transitions.Value(); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
	_, mode, err = svc.Query(context.Background(), evolvedQuery(3, tBase.Add(time.Hour)), 3)
	if err != nil || mode != ModeLearning {
		t.Fatalf("recovered query mode = %q (%v), want %q", mode, err, ModeLearning)
	}
}

// TestSampleOverloadP99 degrades on latency alone: slow observations
// with zero shed must trip the p99 watermark.
func TestSampleOverloadP99(t *testing.T) {
	svc := openTest(t, nil)
	slowInterval := func() {
		for i := 0; i < 100; i++ {
			svc.m.querySeconds.Observe(1.0) // well over the 0.5s watermark
		}
		svc.m.queriesOK.Add(100)
	}
	for i := 1; i < degradeAfter; i++ {
		slowInterval()
		if svc.SampleOverload() {
			t.Fatalf("degraded after %d slow intervals", i)
		}
	}
	slowInterval()
	if !svc.SampleOverload() {
		t.Fatalf("p99 over watermark for %d intervals did not degrade", degradeAfter)
	}
}

// TestRuleOnlySample: without a learning linker there is nothing to
// degrade to — the sampler reports rule mode and never transitions.
func TestRuleOnlySample(t *testing.T) {
	svc, _, err := Open(Options{Rule: fpstalker.NewRuleLinker(), MaxInFlight: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer svc.Close()
	if got := svc.m.modeRule.Value(); got != 1 {
		t.Fatalf("rule-only linkd_mode_rule = %v, want 1", got)
	}
	svc.m.queriesShed.Add(100)
	if !svc.SampleOverload() {
		t.Fatal("rule-only SampleOverload must report degraded (rule) mode")
	}
	if got := svc.m.transitions.Value(); got != 0 {
		t.Fatalf("rule-only transitions = %d, want 0", got)
	}
	if err := svc.Add("a", testRecord(0, tBase)); err != nil {
		t.Fatalf("add: %v", err)
	}
	_, mode, err := svc.Query(context.Background(), testRecord(0, tBase), 1)
	if err != nil || mode != ModeRule {
		t.Fatalf("rule-only query mode = %q (%v)", mode, err)
	}
}

// TestJournalRecovery: reopen after a clean close replays every add and
// rebuilds both indexes digest-equal.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	forest, err := testForest()
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}
	wal := storage.WALOptions{Dir: dir, Policy: storage.SyncAlways}

	svc, _, err := Open(Options{
		Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(forest),
		WAL: wal, MaxInFlight: 2,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	addN(t, svc, 40)
	wantRule, wantLearn := svc.IndexDigests()
	wantCands, _, err := svc.Query(context.Background(), evolvedQuery(11, tBase.Add(time.Hour)), 5)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, stats, err := Open(Options{
		Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(forest),
		WAL: wal, MaxInFlight: 2,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if stats.Frames != 40 {
		t.Fatalf("replayed %d frames, want 40", stats.Frames)
	}
	if re.Len() != 40 {
		t.Fatalf("Len = %d after recovery, want 40", re.Len())
	}
	gotRule, gotLearn := re.IndexDigests()
	if gotRule != wantRule || gotLearn != wantLearn {
		t.Fatalf("recovered digests differ:\nrule  %s vs %s\nlearn %s vs %s", gotRule, wantRule, gotLearn, wantLearn)
	}
	gotCands, _, err := re.Query(context.Background(), evolvedQuery(11, tBase.Add(time.Hour)), 5)
	if err != nil {
		t.Fatalf("recovered query: %v", err)
	}
	if len(gotCands) != len(wantCands) {
		t.Fatalf("recovered candidates %d, want %d", len(gotCands), len(wantCands))
	}
	for i := range gotCands {
		if gotCands[i].ID != wantCands[i].ID {
			t.Fatalf("candidate %d = %s, want %s", i, gotCands[i].ID, wantCands[i].ID)
		}
	}
	// Adds keep appending after the replayed history.
	if err := re.Add("later", testRecord(41, tBase.Add(time.Hour))); err != nil {
		t.Fatalf("post-recovery add: %v", err)
	}
}

// TestCompactDropsEvicted: after window eviction, Compact writes only
// live entries — the evicted history leaves the disk, and the next
// recovery replays the snapshot alone.
func TestCompactDropsEvicted(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock(tBase.Add(40 * time.Hour))
	wal := storage.WALOptions{Dir: dir, Policy: storage.SyncAlways}
	open := func() *Service {
		svc, _, err := Open(Options{
			Rule: fpstalker.NewRuleLinker(), WAL: wal,
			Window: 24 * time.Hour, clock: clock.Now, MaxInFlight: 2,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return svc
	}

	svc := open()
	for i := 0; i < 10; i++ { // stale: observed around tBase
		if err := svc.Add(fmt.Sprintf("old%d", i), testRecord(i, tBase.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	for i := 10; i < 15; i++ { // fresh: observed at +30h, inside the window
		if err := svc.Add(fmt.Sprintf("new%d", i), testRecord(i, tBase.Add(30*time.Hour))); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if n := svc.EvictExpired(); n != 10 {
		t.Fatalf("evicted %d, want 10", n)
	}
	if _, err := svc.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	wantRule, _ := svc.IndexDigests()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, stats, err := Open(Options{
		Rule: fpstalker.NewRuleLinker(), WAL: wal,
		Window: 24 * time.Hour, clock: clock.Now, MaxInFlight: 2,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if stats.SnapshotFrames != 5 {
		t.Fatalf("snapshot frames = %d, want 5 (live entries only)", stats.SnapshotFrames)
	}
	if stats.Frames != 0 {
		t.Fatalf("segment frames = %d, want 0 after compaction", stats.Frames)
	}
	if re.Len() != 5 {
		t.Fatalf("Len = %d after recovery, want 5", re.Len())
	}
	gotRule, _ := re.IndexDigests()
	if gotRule != wantRule {
		t.Fatalf("recovered digest differs:\n%s\n%s", gotRule, wantRule)
	}
}

// TestCompactIdleWritesNothing: a Compact with no add and no eviction
// since the previous one leaves the journal directory and
// wal_compactions_total as they are; an add, or an eviction (which is
// not journaled), in between makes the next Compact checkpoint again.
func TestCompactIdleWritesNothing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	clock := newFakeClock(tBase.Add(40 * time.Hour))
	svc, _, err := Open(Options{
		Rule: fpstalker.NewRuleLinker(), WAL: storage.WALOptions{Dir: dir, Policy: storage.SyncNever, Registry: reg},
		Window: 24 * time.Hour, clock: clock.Now, MaxInFlight: 2,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer svc.Close()
	listing := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	compactions := func() int64 { return reg.Snapshot().Counters["wal_compactions_total"] }
	compact := func() {
		t.Helper()
		if _, err := svc.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
	}
	// assertIdle compacts twice back to back: the second run must
	// change nothing.
	assertIdle := func(step string, want int64) {
		t.Helper()
		compact()
		before := listing()
		if cs, err := svc.Compact(); err != nil || cs.CoveredSeg != 0 {
			t.Fatalf("%s: idle compaction = %+v, %v; want no checkpoint", step, cs, err)
		}
		if after := listing(); !reflect.DeepEqual(after, before) || compactions() != want {
			t.Fatalf("%s: second compaction: dir %v → %v, %d compactions, want %d", step, before, after, compactions(), want)
		}
	}

	if err := svc.Add("old", testRecord(1, tBase)); err != nil {
		t.Fatal(err)
	}
	assertIdle("after an add", 1)
	if err := svc.Add("new", testRecord(2, tBase.Add(30*time.Hour))); err != nil {
		t.Fatal(err)
	}
	assertIdle("after a second add", 2)
	if n := svc.EvictExpired(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	assertIdle("after an eviction", 3)
	if svc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", svc.Len())
	}
}

// TestCompactReportsCheckpoint: Compact tells a real checkpoint from an
// idle skip even when both write 0 bytes — after every entry is
// evicted the checkpoint of the empty table still reports itself, and
// the back-to-back run after it reports none.
func TestCompactReportsCheckpoint(t *testing.T) {
	clock := newFakeClock(tBase.Add(40 * time.Hour))
	svc, _, err := Open(Options{
		Rule: fpstalker.NewRuleLinker(), WAL: storage.WALOptions{Dir: t.TempDir(), Policy: storage.SyncNever},
		Window: 24 * time.Hour, clock: clock.Now, MaxInFlight: 2,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer svc.Close()
	for i := 0; i < 3; i++ {
		if err := svc.Add(fmt.Sprintf("c%d", i), testRecord(i, tBase.Add(30*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := svc.Compact()
	if err != nil || cs.CoveredSeg == 0 || cs.Records != 3 || cs.SnapshotBytes == 0 {
		t.Fatalf("first compaction = %+v, %v; want a checkpoint of 3 entries", cs, err)
	}
	if cs, err := svc.Compact(); err != nil || cs != (storage.CompactionStats{}) {
		t.Fatalf("back-to-back compaction = %+v, %v; want no checkpoint", cs, err)
	}
	clock.Advance(48 * time.Hour)
	if n := svc.EvictExpired(); n != 3 {
		t.Fatalf("evicted %d, want 3", n)
	}
	cs, err = svc.Compact()
	if err != nil || cs.CoveredSeg == 0 || cs.Records != 0 || cs.SnapshotBytes != 0 {
		t.Fatalf("compaction after evicting everything = %+v, %v; want a checkpoint of 0 entries", cs, err)
	}
	if cs, err := svc.Compact(); err != nil || cs.CoveredSeg != 0 {
		t.Fatalf("idle compaction of the empty table = %+v, %v; want no checkpoint", cs, err)
	}
}

func TestCompactWithoutJournal(t *testing.T) {
	svc := openTest(t, nil)
	if _, err := svc.Compact(); err == nil {
		t.Fatal("compact without a journal must fail")
	}
}

// TestJournalFaultSurfacesInHealth: the journal's metrics land on the
// registry passed in WAL.Registry (compaction included), and once a
// journal fsync fails the add is refused and WALError reports the
// journal's sticky error, which /healthz serves.
func TestJournalFaultSurfacesInHealth(t *testing.T) {
	reg := obs.NewRegistry()
	failNewSegments := false
	svc, _, err := Open(Options{
		Rule: fpstalker.NewRuleLinker(), MaxInFlight: 2,
		WAL: storage.WALOptions{
			Dir: t.TempDir(), Policy: storage.SyncAlways, Registry: reg,
			OpenFile: func(path string) (storage.SegmentFile, error) {
				f, err := os.Create(path)
				if err != nil {
					return nil, err
				}
				ff := &faultinject.File{F: f}
				if failNewSegments {
					ff.FailSyncAt = 1
				}
				return ff, nil
			},
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer svc.Close()
	addN(t, svc, 3)
	if werr := svc.WALError(); werr != nil {
		t.Fatalf("WALError before the fault = %v", werr)
	}
	failNewSegments = true // the segment Compact rotates to fails its first fsync
	if _, err := svc.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got := reg.Snapshot().Counters["wal_compactions_total"]; got != 1 {
		t.Fatalf("wal_compactions_total = %d after one Compact, want 1", got)
	}

	err = svc.Add("after-fault", testRecord(9, tBase))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("add over a failing fsync: err = %v, want the injected fault", err)
	}
	if werr := svc.WALError(); !errors.Is(werr, faultinject.ErrInjected) {
		t.Fatalf("WALError after the fault = %v, want the injected fault", werr)
	}
	if got := reg.Snapshot().Gauges["wal_sticky_error"]; got != 1 {
		t.Fatalf("wal_sticky_error = %v, want 1", got)
	}
	if svc.Len() != 3 {
		t.Fatalf("Len = %d, want 3: a refused add must not be applied", svc.Len())
	}
}

// TestConcurrentAddsQueriesEvict shakes the service under -race:
// writers, queriers and the evictor run together.
func TestConcurrentAddsQueriesEvict(t *testing.T) {
	clock := newFakeClock(tBase)
	svc := openTest(t, func(o *Options) {
		o.Window = time.Hour
		o.clock = clock.Now
		o.MaxInFlight = 2
		o.QueueDepth = 64
	})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := w*60 + i
				svc.Add(fmt.Sprintf("i%d", id), testRecord(id, tBase.Add(time.Duration(i)*time.Minute)))
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				_, _, err := svc.Query(context.Background(), evolvedQuery(i, tBase.Add(time.Hour)), 3)
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			clock.Advance(5 * time.Minute)
			svc.EvictExpired()
			svc.SampleOverload()
		}
	}()
	wg.Wait()
	if r, _ := svc.IndexDigests(); r == "" {
		t.Fatal("empty rule digest after churn")
	}
}

// TestCoreCountRule pins the one "all cores" rule: parallel.Resolve
// follows GOMAXPROCS, not the machine's CPU count, and the admission
// default takes its value from Resolve. It changes GOMAXPROCS, so it
// must not run in parallel with other tests.
func TestCoreCountRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := parallel.Resolve(0); got != 1 {
		t.Fatalf("parallel.Resolve(0) = %d under GOMAXPROCS=1, want 1", got)
	}
	var o Options
	if got, want := o.maxInFlight(), parallel.Resolve(0); got != want {
		t.Fatalf("zero-value maxInFlight() = %d, want parallel.Resolve(0) = %d", got, want)
	}
}
