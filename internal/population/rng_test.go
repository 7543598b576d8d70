package population

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rngTestSeeds returns the edge seeds of the standard seeding (0 and
// the chain modulus both map to 89482311, negative seeds fold into the
// modulus, the int64 extremes) plus every user and instance seed of a
// 200-user world.
func rngTestSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{0, 1, -1, 1<<31 - 2, 1<<31 - 1, 89482311, math.MinInt64, math.MaxInt64}
	cfg := DefaultConfig(200)
	for u := 0; u < cfg.Users; u++ {
		seeds = append(seeds, userSeed(cfg, u))
	}
	ds := Simulate(cfg)
	for serial := 0; serial < ds.NumInstances; serial++ {
		seeds = append(seeds, instanceSeed(cfg, serial))
	}
	return seeds
}

// drawMix makes n steps of mixed draws through every *rand.Rand method
// the simulator calls and returns what they drew. Perm and Shuffle
// take several draws a step, so n = 2,000 wraps the 607-word register
// several times.
func drawMix(r *rand.Rand, n int) []uint64 {
	var out []uint64
	for i := 0; i < n; i++ {
		switch i % 7 {
		case 0:
			out = append(out, math.Float64bits(r.Float64()))
		case 1:
			out = append(out, uint64(r.Intn(1+i%1000)))
		case 2:
			out = append(out, uint64(r.Intn(1<<40+i)))
		case 3:
			out = append(out, uint64(r.Int63n(int64(1)<<50+int64(i))))
		case 4:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		case 5:
			for _, v := range r.Perm(i % 11) {
				out = append(out, uint64(v))
			}
		case 6:
			p := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
			r.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
			out = append(out, p...)
		}
	}
	return out
}

// drawRaw returns the next n raw 64-bit values of r's source.
func drawRaw(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// sameDraws reports the first position where got and want differ.
func sameDraws(t *testing.T, what string, seed int64, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s, seed %d: %d draws, want %d", what, seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s, seed %d: draw %d is %#x, want %#x", what, seed, i, got[i], want[i])
		}
	}
}

// TestRNGMatchesStdlib checks newRNG against rand.NewSource draw by
// draw, through the raw stream and through every method the simulator
// uses.
func TestRNGMatchesStdlib(t *testing.T) {
	for _, seed := range rngTestSeeds(t) {
		r := newRNG(seed)
		ref := rand.New(rand.NewSource(seed))
		sameDraws(t, "Uint64", seed, drawRaw(r, 2000), drawRaw(ref, 2000))
		releaseRNG(r)

		r = newRNG(seed)
		ref = rand.New(rand.NewSource(seed))
		sameDraws(t, "methods", seed, drawMix(r, 2000), drawMix(ref, 2000))
		releaseRNG(r)
	}
}

// TestRNGReseedMatchesFresh re-seeds used sources, stopped before,
// inside and after the lazy fill, and checks the new stream is the
// fresh one: no word filled for the old seed may leak into it.
func TestRNGReseedMatchesFresh(t *testing.T) {
	seeds := []int64{7, -3, 89482311, math.MaxInt64, 1 << 33}
	for _, used := range []int{0, 1, 100, rngTap, rngFresh, rngLen, 1500} {
		for _, seed := range seeds {
			r := newRNG(seed ^ 0x5bd1e995)
			drawRaw(r, used)
			r.Seed(seed)
			want := drawMix(rand.New(rand.NewSource(seed)), 2000)
			sameDraws(t, "re-seeded", seed, drawMix(r, 2000), want)
			releaseRNG(r)

			// The pool hands out used sources; the next one must not
			// remember the stream it last drew.
			r = newRNG(seed)
			sameDraws(t, "pooled", seed, drawMix(r, 2000), want)
			drawRaw(r, used)
			releaseRNG(r)
		}
	}
}

// TestRNGPoolConcurrent draws pooled streams from several goroutines
// at once, as the simulator's workers do, and checks each against its
// fresh standard stream.
func TestRNGPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				seed := int64(g*1000 + i)
				r := newRNG(seed)
				got := drawRaw(r, 400+i)
				releaseRNG(r)
				if want := drawRaw(rand.New(rand.NewSource(seed)), 400+i); !slices.Equal(got, want) {
					t.Errorf("seed %d: pooled stream differs from rand.NewSource", seed)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRNGSeedAllocs checks that seeding is allocation-free: a pooled
// generator costs at most the *rand.Rand wrapper, and re-seeding a
// source costs nothing.
func TestRNGSeedAllocs(t *testing.T) {
	releaseRNG(newRNG(1))
	if a := testing.AllocsPerRun(200, func() {
		r := newRNG(42)
		r.Float64()
		releaseRNG(r)
	}); a > 1 {
		t.Errorf("newRNG: %v allocs per seed, want at most 1", a)
	}
	var src lfSource
	if a := testing.AllocsPerRun(200, func() {
		src.Seed(42)
		src.Uint64()
	}); a != 0 {
		t.Errorf("lfSource.Seed: %v allocs per seed, want 0", a)
	}
}

// BenchmarkSeedAndDraw seeds a source and takes 32 draws, about what a
// browser instance's visit stream uses: the standard source against
// the pooled lazy one.
func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for d := 0; d < 32; d++ {
				r.Float64()
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := newRNG(int64(i))
			for d := 0; d < 32; d++ {
				r.Float64()
			}
			releaseRNG(r)
		}
	})
}
