package main

import (
	"sync"
	"testing"
	"time"
)

func TestOpLogTimesFromDueTime(t *testing.T) {
	var l opLog
	due := time.Unix(100, 0)
	// Sent 2ms late, answered 3ms after it was sent: the latency is
	// 5ms from the due time, not 3ms from the send.
	l.observe(due, due.Add(2*time.Millisecond), due.Add(5*time.Millisecond), false)
	if l.attempted != 1 || l.failed != 0 {
		t.Fatalf("attempted %d failed %d", l.attempted, l.failed)
	}
	if got := l.latency.median(); got != 5 {
		t.Fatalf("latency %vms, want 5ms from the due time", got)
	}
	if got := l.late.median(); got != 2 {
		t.Fatalf("lateness %vms, want 2ms", got)
	}
	// Sending early never counts as negative lateness.
	l.observe(due, due.Add(-time.Millisecond), due.Add(time.Millisecond), false)
	if v, _ := l.late.quantile(0); v != 0 {
		t.Fatalf("early send lateness %vms, want 0", v)
	}
}

func TestOpLogFailedIsAttemptedAndMissesTheLimit(t *testing.T) {
	var l opLog
	due := time.Unix(100, 0)
	for i := 0; i < 99; i++ {
		l.observe(due, due, due.Add(time.Millisecond), false)
	}
	// A fast failure must not make the tail look better.
	l.observe(due, due, due.Add(time.Microsecond), true)
	if l.attempted != 100 || l.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 100 and 1", l.attempted, l.failed)
	}
	if p := l.latency.report(1.0, 10_000); p.Value != 10_000 {
		t.Fatalf("max latency %vms, want the failure charged the 10000ms limit", p.Value)
	}
	if p := l.latency.report(0.99, 10_000); p.Value != 1 {
		t.Fatalf("p99 %vms, want 1ms (the failure is the one sample beyond)", p.Value)
	}
}

func TestOpenLoopInterleavesLanesEvenly(t *testing.T) {
	o := openLoop{Rate: 100, Lanes: 2, Duration: time.Second}
	// 100/s over two lanes: each lane every 20ms, lane 1 offset 10ms.
	for _, c := range []struct {
		l, k int
		want time.Duration
	}{
		{0, 0, 0}, {1, 0, 10 * time.Millisecond},
		{0, 1, 20 * time.Millisecond}, {1, 1, 30 * time.Millisecond},
		{0, 49, 980 * time.Millisecond},
	} {
		if got := o.due(c.l, c.k); got != c.want {
			t.Errorf("due(%d,%d) = %v, want %v", c.l, c.k, got, c.want)
		}
	}
	if a0, a1 := o.arrivals(0), o.arrivals(1); a0 != 50 || a1 != 50 {
		t.Fatalf("arrivals %d+%d, want 50 per lane in one second", a0, a1)
	}
}

func TestOpenLoopChargesQueueingToTheServer(t *testing.T) {
	// One lane at 200/s (every 5ms); the first answer takes 12ms, so
	// the next two arrivals find the lane busy and are late.
	o := openLoop{Rate: 200, Lanes: 1, Duration: 20 * time.Millisecond}
	var mu sync.Mutex
	var l opLog
	var readyLate []bool
	issued := o.run([]int{10}, func(_, k int) func(due, ready time.Time) {
		return func(due, ready time.Time) {
			sent := time.Now()
			if k == 0 {
				time.Sleep(12 * time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			l.observe(due, sent, time.Now(), false)
			readyLate = append(readyLate, ready.After(due))
		}
	})
	if issued[0] != 4 {
		t.Fatalf("issued %d, want the 4 arrivals due within 20ms", issued[0])
	}
	if l.attempted != 4 {
		t.Fatalf("attempted %d", l.attempted)
	}
	if !readyLate[1] || !readyLate[2] {
		t.Fatalf("arrivals behind the slow answer should find their lane busy: %v", readyLate)
	}
	// Arrival 1 was due at 5ms and could not be sent before 12ms.
	if v, _ := l.late.quantile(1.0); v < 6 {
		t.Fatalf("worst lateness %vms, want at least 6ms of queueing", v)
	}
	if v, _ := l.latency.quantile(1.0); v < 12 {
		t.Fatalf("worst latency %vms, want the 12ms answer counted", v)
	}
}

func TestOpenLoopStopsAtAvailable(t *testing.T) {
	o := openLoop{Rate: 1000, Lanes: 2, Duration: 10 * time.Millisecond}
	issued := o.run([]int{2, 0}, func(_, _ int) func(due, ready time.Time) {
		return func(time.Time, time.Time) {}
	})
	if issued[0] != 2 || issued[1] != 0 {
		t.Fatalf("issued %v, want [2 0]", issued)
	}
}
