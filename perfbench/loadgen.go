package main

import (
	"sync"
	"syscall"
	"time"
)

// openLoop issues arrivals at a fixed total rate, independent of how
// fast the server answers. Each lane (one connection) carries an even
// share: lane l's k-th arrival is due at start + (k + l/Lanes)·Lanes/Rate,
// so the lanes' arrivals interleave evenly. A lane serves its arrivals
// in order, so a slow answer makes the lane's later arrivals late
// rather than postponing their due times. Latency is timed from the due
// time, which charges that queueing to the server instead of hiding it.
type openLoop struct {
	Rate     float64 // arrivals per second across all lanes
	Lanes    int
	Duration time.Duration
}

// due returns the offset of lane l's k-th arrival from the start.
func (o openLoop) due(l, k int) time.Duration {
	period := float64(o.Lanes) / o.Rate
	return time.Duration((float64(k) + float64(l)/float64(o.Lanes)) * period * float64(time.Second))
}

// arrivals returns how many arrivals lane l has due within the loop's
// duration.
func (o openLoop) arrivals(l int) int {
	k := 0
	for o.due(l, k) < o.Duration {
		k++
	}
	return k
}

// run issues, on every lane l, min(arrivals(l), avail[l]) arrivals and
// returns how many each lane issued. prepare readies lane l's k-th
// arrival ahead of its due time (a client holds its request before it
// sends it) and returns the step that sends it and waits for the
// answer; that step learns the due time and when its lane was ready
// for the arrival, which is after the due time when the lane's
// previous arrival was still being served.
func (o openLoop) run(avail []int, prepare func(l, k int) func(due, ready time.Time)) []int {
	issued := make([]int, o.Lanes)
	start := time.Now()
	var wg sync.WaitGroup
	for l := range issued {
		issued[l] = min(o.arrivals(l), avail[l])
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for k := 0; k < issued[l]; k++ {
				send := prepare(l, k)
				due := start.Add(o.due(l, k))
				ready := time.Now()
				sleepUntil(due)
				send(due, ready)
			}
		}(l)
	}
	wg.Wait()
	return issued
}

// sleepStep bounds one nanosleep of the open loop. On a small virtual
// machine a vCPU that stays idle longer than the hypervisor's halt
// polling window is descheduled, and about one wake-up in a hundred
// then comes milliseconds late; that lateness would land in the
// server's latency tail. Sleeping in steps no longer than the window
// keeps idle wake-ups within about 0.1ms, for about 8% of a CPU per
// lane; contention for the CPUs under load still delays some.
const sleepStep = 200 * time.Microsecond

// sleepUntil blocks the calling thread until t in nanosleep steps. The
// runtime's own timers wake through epoll with millisecond resolution,
// which would make most arrivals late by up to a millisecond.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(wait, sleepStep)))
		syscall.Nanosleep(&ts, nil)
	}
}

// opLog accounts the operations of one kind: every attempt, every
// failure, latency from the due time and lateness (send − due). It is
// safe for concurrent use.
type opLog struct {
	mu        sync.Mutex
	attempted int
	failed    int
	latency   samples
	late      samples
}

// observe records one attempted operation that was due at due, sent at
// sent and finished at done. A failed operation (error, overload,
// deadline, wrong answer) counts as attempted and failed, and its
// latency sample is +Inf: it misses every latency limit.
func (l *opLog) observe(due, sent, done time.Time, failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	l.late.add(late)
	if failed {
		l.failed++
		l.latency.addFailed()
		return
	}
	l.latency.add(done.Sub(due))
}
