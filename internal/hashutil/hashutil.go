// Package hashutil provides the stable hashing primitives used throughout
// the fingerprint-dynamics pipeline.
//
// The measurement platform hashes three kinds of objects:
//
//   - individual feature values (for the hash-dedup transfer protocol of
//     the collection client, §2.2.1 of the paper),
//   - whole fingerprints (for anonymous-set grouping, §3.1), and
//   - canonical deltas (so that the same update applied to two different
//     browser instances collides to the same dynamics value, §2.3.2).
//
// All hashes are deterministic across runs and platforms: tests, the
// simulator and the storage server all rely on replaying a dataset and
// getting bit-identical identifiers.
package hashutil

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
)

// FNV-1a constants (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of s. It is the workhorse hash for
// feature values: fast, allocation-free and stable.
func Hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Combine folds two 64-bit hashes into one. It is order sensitive:
// Combine(a, b) != Combine(b, a) in general, which is what fingerprint
// hashing needs (features are hashed in a fixed schema order).
func Combine(a, b uint64) uint64 {
	// Boost-style hash_combine adapted to 64 bits.
	a ^= b + 0x9e3779b97f4a7c15 + (a << 12) + (a >> 4)
	return a * fnvPrime64
}

// HashStrings hashes a sequence of strings in order, with a length prefix
// per element so that ("ab","c") and ("a","bc") do not collide.
func HashStrings(ss ...string) uint64 {
	h := uint64(fnvOffset64)
	var lenBuf [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(s)))
		for _, c := range lenBuf {
			h ^= uint64(c)
			h *= fnvPrime64
		}
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
	}
	return h
}

// HashUint64s hashes a uint64 slice in order, mixing in the length so
// prefixes do not collide with their extensions. It keys the content-
// addressed intern pools of the FP-Stalker entry store: equal slices
// always hash equal, and distinct slices collide with probability
// ~2^-64 (colliding candidates are verified by full comparison, so a
// collision costs a compare, not correctness).
func HashUint64s(vs []uint64) uint64 {
	h := uint64(fnvOffset64) ^ uint64(len(vs))*fnvPrime64
	for _, v := range vs {
		h = Combine(h, mix64(v))
	}
	return h
}

// HashSet hashes a set of strings order-independently: the same set in any
// order hashes identically. Used for font lists and plugin lists, whose
// collection order is not semantically meaningful.
//
// Each element's FNV hash is passed through a bijective finalizer and the
// results are summed, which commutes — no copy or sort of the input, so
// hashing a several-hundred-entry font list is allocation-free. (The old
// copy+sort implementation was the top allocation site of the FP-Stalker
// matching engine's query path.)
func HashSet(ss []string) uint64 {
	h := uint64(fnvOffset64)
	for _, s := range ss {
		h += mix64(Hash64(s))
	}
	return h
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix so that
// summing element hashes in HashSet does not let structured inputs
// cancel each other out.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SHA1HexBytes returns the hex SHA-1 of b. The paper reports canvas
// hashes as 40-hex-character SHA-1 values (Appendix A.2); we keep the
// same format so reproduced reports look like the paper's.
func SHA1HexBytes(b []byte) string {
	sum := sha1.Sum(b)
	return hex.EncodeToString(sum[:])
}
