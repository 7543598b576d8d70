package linkd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/fpstalker"
	"fpdyn/internal/storage"
)

// chaosAdd is one observation the chaos adder registered and got ACKed.
type chaosAdd struct {
	id  string
	rec int // testRecord serial
	t   time.Duration
}

// Abandon tears the service down without closing the journal cleanly —
// the chaos tests' in-process kill -9: whatever the WAL already wrote
// (and fsynced, per policy) is on disk, everything else is lost, and
// no goroutine keeps running.
func (s *Service) Abandon() {
	s.closed.Store(true)
	if s.stopSample != nil {
		close(s.stopSample)
		<-s.sampleDone
	}
}

// runChaos exercises the crash-safety contract: a service with a
// SyncAlways journal takes adds (single adder, so the ACKed set is a
// prefix) under concurrent query load, dies mid-stream via Abandon —
// the in-process kill -9 — and gets its tail segment torn. A reopened
// service must rebuild exactly the state the ACKs promised:
// digest-equal to a never-crashed reference fed the same adds, on both
// indexes, with identical rankings — before and after window eviction.
func runChaos(t *testing.T, compactMidway bool) {
	dir := t.TempDir()
	forest, err := testForest()
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}
	clock := newFakeClock(tBase)
	wal := storage.WALOptions{Dir: dir, Policy: storage.SyncAlways}
	mkOpts := func(withWAL bool) Options {
		o := Options{
			Rule:  fpstalker.NewRuleLinker(),
			Learn: fpstalker.NewLearnLinker(forest),
			Clock: clock.Now, Window: 48 * time.Hour,
			MaxInFlight: 2, QueueDepth: 8,
		}
		if withWAL {
			o.WAL = wal
		}
		return o
	}

	svc, _, err := Open(mkOpts(true))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Single adder: an add is recorded as ACKed only after Add returns
	// nil, and Abandon flips closed at call boundaries, so the durable
	// set equals the ACKed set exactly.
	var (
		ackedMu sync.Mutex
		acked   []chaosAdd
	)
	adderDone := make(chan struct{})
	go func() {
		defer close(adderDone)
		for i := 0; ; i++ {
			a := chaosAdd{id: fmt.Sprintf("c%d", i), rec: i, t: time.Duration(i) * time.Minute}
			err := svc.Add(a.id, testRecord(a.rec, tBase.Add(a.t)))
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				t.Errorf("add %d: %v", i, err)
				return
			}
			ackedMu.Lock()
			acked = append(acked, a)
			n := len(acked)
			ackedMu.Unlock()
			if compactMidway && n == 40 {
				if _, err := svc.Compact(); err != nil {
					t.Errorf("mid-run compact: %v", err)
					return
				}
			}
		}
	}()

	// Concurrent queriers keep the read path hot across the crash line.
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func(q int) {
			defer qwg.Done()
			for i := 0; ; i++ {
				_, _, err := svc.Query(context.Background(), evolvedQuery(i%50, tBase.Add(time.Hour)), 3)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("querier %d: %v", q, err)
					return
				}
			}
		}(q)
	}

	// Let the stream run, then pull the plug mid-add.
	waitFor(t, func() bool {
		ackedMu.Lock()
		defer ackedMu.Unlock()
		return len(acked) >= 80
	})
	svc.Abandon()
	<-adderDone
	qwg.Wait()

	// Tear the journal tail: append half a frame to the newest segment,
	// as a crash mid-write would.
	tearTail(t, dir)

	// Recovery: the replayed service must equal a never-crashed
	// reference fed exactly the ACKed adds under the same clock.
	re, stats, err := Open(mkOpts(true))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !stats.Truncated || stats.TruncatedBytes == 0 {
		t.Fatalf("torn tail not truncated: %+v", stats)
	}

	ref, _, err := Open(mkOpts(false))
	if err != nil {
		t.Fatalf("open reference: %v", err)
	}
	defer ref.Close()
	for _, a := range acked {
		if err := ref.Add(a.id, testRecord(a.rec, tBase.Add(a.t))); err != nil {
			t.Fatalf("reference add: %v", err)
		}
	}

	compare := func(stage string) {
		t.Helper()
		if re.Len() != ref.Len() {
			t.Fatalf("%s: Len %d vs reference %d", stage, re.Len(), ref.Len())
		}
		gotRule, gotLearn := re.IndexDigests()
		wantRule, wantLearn := ref.IndexDigests()
		if gotRule != wantRule {
			t.Fatalf("%s: rule digest diverged:\n%s\n%s", stage, gotRule, wantRule)
		}
		if gotLearn != wantLearn {
			t.Fatalf("%s: learning digest diverged:\n%s\n%s", stage, gotLearn, wantLearn)
		}
		for _, serial := range []int{1, 17, 42, 63} {
			q := evolvedQuery(serial, tBase.Add(2*time.Hour))
			got, _, err1 := re.Query(context.Background(), q, 5)
			want, _, err2 := ref.Query(context.Background(), q, 5)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: query errs %v / %v", stage, err1, err2)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: query %d: %d vs %d candidates", stage, serial, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("%s: query %d rank %d: %+v vs %+v", stage, serial, i, got[i], want[i])
				}
			}
		}
	}
	compare("post-recovery")

	// The collect window must evict identically on both sides: advance
	// the shared clock so the oldest adds age out.
	clock.Advance(48*time.Hour + 30*time.Minute)
	gotEv, wantEv := re.EvictExpired(), ref.EvictExpired()
	if gotEv != wantEv {
		t.Fatalf("evictions diverged: %d vs %d", gotEv, wantEv)
	}
	if gotEv == 0 {
		t.Fatal("eviction stage evicted nothing; window too wide for the stream")
	}
	compare("post-eviction")
}

func TestChaosKillRecover(t *testing.T) {
	runChaos(t, false)
}

func TestChaosKillRecoverAfterCompact(t *testing.T) {
	runChaos(t, true)
}

// tearTail appends a partial frame (a plausible header, half a payload)
// to the newest journal segment.
func tearTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear (%v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open tail segment: %v", err)
	}
	torn := []byte{200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r', 't'}
	if _, err := f.Write(torn); err != nil {
		t.Fatalf("tear tail: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close torn segment: %v", err)
	}
}
