package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	if got := Resolve(1); got != 1 {
		t.Fatalf("Resolve(1) = %d", got)
	}
	procs := runtime.GOMAXPROCS(0)
	if got := Resolve(0); got != procs {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, procs)
	}
	if got := Resolve(-4); got != procs {
		t.Fatalf("Resolve(-4) = %d, want GOMAXPROCS %d", got, procs)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		for _, n := range []int{0, 1, 2, 100, 1001} {
			hits := make([]int32, n)
			ForEach(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestMapOrderedRegardlessOfWorkers(t *testing.T) {
	fn := func(i int) int { return i*i + 1 }
	want := Map(1, 500, fn)
	for _, workers := range []int{2, 3, 8, 17} {
		got := Map(workers, 500, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}
