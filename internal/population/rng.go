package population

import (
	"math/rand"
	"sync"
)

// The simulator's random streams are math/rand's Go 1 source: an
// additive lagged-Fibonacci generator over a 607-word register. Every
// golden digest, report golden and benchmark digest is pinned on those
// streams, so the simulator keeps drawing exactly them. What it drops
// is the cost of rand.NewSource: the standard seeding runs a 1,841-step
// multiplicative chain to fill the whole register, while most of the
// simulator's sources (one per user, one per browser instance) draw
// only a few dozen values. lfSource fills the register lazily from the
// chain's closed form instead, so seeding is O(1) and a source that
// makes d draws computes at most 2d register words.

const (
	rngLen   = 607             // register length
	rngTap   = 273             // lag of the second tap
	rngMask  = 1<<63 - 1       // Int63 mask
	int32max = 1<<31 - 1       // modulus of the seeding chain
	seedMul  = 48271           // multiplier of the seeding chain
	seedSkip = 20              // chain steps discarded before word 0
	rngFresh = rngLen - rngTap // draws after which every word is filled
)

var (
	// seedPow[k] is seedMul^k mod int32max. The standard seeding chain
	// is x_k = seed·seedMul^k mod int32max, so any x_k costs one
	// multiply and one reduction.
	seedPow [seedSkip + 3*rngLen + 1]uint64
	// rngCooked is math/rand's table of cooked register values,
	// recovered at init from the standard source's own stream.
	rngCooked [rngLen]int64
)

func init() {
	seedPow[0] = 1
	for k := 1; k < len(seedPow); k++ {
		seedPow[k] = seedPow[k-1] * seedMul % int32max
	}

	// Each draw adds the tap word into the feed word and returns the
	// sum, and 607 draws write every word exactly once as the feed, so
	// the standard source's first 607 outputs are its register after
	// 607 draws. Undoing the draws newest first (feed -= tap) rewinds
	// it to the freshly seeded register; XOR-ing off the seeding
	// chain's contribution leaves the cooked table.
	ref := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngFresh
	for n := 0; n < rngLen; n++ {
		tap, feed = prevIndex(tap), prevIndex(feed)
		vec[feed] = int64(ref.Uint64())
	}
	for n := 0; n < rngLen; n++ {
		vec[feed] -= vec[tap]
		tap, feed = nextIndex(tap), nextIndex(feed)
	}
	chain := lfSource{seed: 1}
	for i := range vec {
		rngCooked[i] = vec[i] ^ chain.chainWord(i)
	}
}

func prevIndex(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

func nextIndex(i int) int {
	if i == rngLen-1 {
		return 0
	}
	return i + 1
}

// lfSource is a rand.Source64 whose stream is identical to
// rand.NewSource's for every seed. Register words are filled on first
// use: draw n reads words 334−n (feed) and 607−n (tap), so the tap is
// new for the first rngTap draws and the feed for the first rngFresh,
// after which the source runs exactly as the standard one.
type lfSource struct {
	tap, feed int
	drawn     int    // draws taken, counted up to rngFresh
	seed      uint64 // the reduced seed, in [1, int32max)
	vec       [rngLen]int64
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *lfSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.drawn = 0, rngFresh, 0
}

// chainWord is register word i's seeding-chain part: three consecutive
// chain values packed into 64 bits, before the cooked XOR.
func (s *lfSource) chainWord(i int) int64 {
	k := seedSkip + 1 + 3*i
	x0 := s.seed * seedPow[k] % int32max
	x1 := s.seed * seedPow[k+1] % int32max
	x2 := s.seed * seedPow[k+2] % int32max
	return int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2)
}

// Uint64 returns the next value of the stream.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngFresh {
		s.drawn++
		if s.drawn <= rngTap {
			s.vec[s.tap] = s.chainWord(s.tap) ^ rngCooked[s.tap]
		}
		s.vec[s.feed] = s.chainWord(s.feed) ^ rngCooked[s.feed]
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *lfSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// rngPool recycles sources: a register is 4.9 KB and the simulator
// seeds one per user and per browser instance.
var rngPool = sync.Pool{New: func() any { return rand.New(new(lfSource)) }}

// newRNG returns a generator drawing exactly the values of
// rand.New(rand.NewSource(seed)). Hand it back with releaseRNG once
// nothing will draw from it again.
func newRNG(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// releaseRNG returns a generator from newRNG to the pool.
func releaseRNG(r *rand.Rand) {
	rngPool.Put(r)
}
