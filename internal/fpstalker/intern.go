package fpstalker

import (
	"slices"

	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// Refcounted intern pools for the heavy per-entry payloads. Across a
// population the expensive parts of an entry repeat massively: a few
// thousand distinct user-agent strings cover millions of browsers, and
// font/plugin/language stacks are long-tailed but highly repetitive.
// Storing each distinct payload once — and handing entries small
// integer handles — is what drops the store from ~1.5 KB to a few
// hundred bytes per entry, and shrinks the GC's pointer workload from
// O(entries) to O(distinct payloads).
//
// Both pools are refcounted: add takes a reference, remove/replace
// drops one, and a payload whose count hits zero frees its slot for
// reuse. The engine's mutex serializes every intern/release, so the
// pools need no locking of their own.

// uaSlot is one interned user-agent string plus its parse, shared by
// every entry presenting that agent. Slots are allocated individually
// so &slot.ua stays valid across pool growth — entry views alias it
// instead of copying the parsed UA per candidate.
type uaSlot struct {
	str  string
	ua   useragent.UA // zero when str does not parse
	refs int32
}

// uaPool interns user-agent strings. The parse happens once per
// distinct agent at intern time (not once per entry, and never per
// candidate).
type uaPool struct {
	byStr        map[string]uint32
	slots        []*uaSlot // index 0 reserved: 0 is the nil handle
	free         []uint32
	hits, misses uint64
}

func (p *uaPool) init() {
	p.byStr = make(map[string]uint32)
	p.slots = []*uaSlot{nil}
}

// intern returns a handle for s, taking one reference.
func (p *uaPool) intern(s string) uint32 {
	if id, ok := p.byStr[s]; ok {
		p.slots[id].refs++
		p.hits++
		return id
	}
	p.misses++
	slot := &uaSlot{str: s, refs: 1}
	if ua, err := useragent.CachedParse(s); err == nil {
		slot.ua = ua
	}
	var id uint32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[id] = slot
	} else {
		p.slots = append(p.slots, slot)
		id = uint32(len(p.slots) - 1)
	}
	p.byStr[s] = id
	return id
}

// release drops one reference; the last reference frees the slot.
func (p *uaPool) release(id uint32) {
	slot := p.slots[id]
	slot.refs--
	if slot.refs > 0 {
		return
	}
	delete(p.byStr, slot.str)
	p.slots[id] = nil
	p.free = append(p.free, id)
}

// live is the number of distinct interned strings.
func (p *uaPool) live() int { return len(p.byStr) }

// vecSlot is one interned []uint64 payload (a feature-key vector or a
// sorted set-hash slice) keyed by content hash.
type vecSlot struct {
	data []uint64
	hash uint64
	refs int32
}

// vecIntern interns []uint64 payloads by content. Lookup hashes the
// slice and verifies colliding candidates element-by-element, so a
// hash collision costs one extra compare, never a wrong share. Handle
// 0 means the empty slice (rule entries carry no set hashes).
type vecIntern struct {
	byHash       map[uint64][]uint32
	slots        []vecSlot // index 0 reserved: the nil/empty handle
	free         []uint32
	hits, misses uint64
}

func (p *vecIntern) init() {
	p.byHash = make(map[uint64][]uint32)
	p.slots = make([]vecSlot, 1)
}

// intern returns a handle for v, taking one reference. On a miss the
// pool takes ownership of v's backing array.
func (p *vecIntern) intern(v []uint64) uint32 {
	if len(v) == 0 {
		return 0
	}
	h := hashutil.HashUint64s(v)
	for _, id := range p.byHash[h] {
		if slices.Equal(p.slots[id].data, v) {
			p.slots[id].refs++
			p.hits++
			return id
		}
	}
	p.misses++
	var id uint32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[id] = vecSlot{data: v, hash: h, refs: 1}
	} else {
		p.slots = append(p.slots, vecSlot{data: v, hash: h, refs: 1})
		id = uint32(len(p.slots) - 1)
	}
	p.byHash[h] = append(p.byHash[h], id)
	return id
}

// release drops one reference; the last reference frees the slot and
// unlinks it from the hash index.
func (p *vecIntern) release(id uint32) {
	if id == 0 {
		return
	}
	s := &p.slots[id]
	s.refs--
	if s.refs > 0 {
		return
	}
	bucket := p.byHash[s.hash]
	for j, v := range bucket {
		if v == id {
			bucket[j] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(p.byHash, s.hash)
	} else {
		p.byHash[s.hash] = bucket
	}
	*s = vecSlot{}
	p.free = append(p.free, id)
}

// data resolves a handle; data(0) is nil.
func (p *vecIntern) data(id uint32) []uint64 { return p.slots[id].data }

// live is the number of distinct interned payloads.
func (p *vecIntern) live() int { return len(p.slots) - 1 - len(p.free) }

// keyReg assigns small stable integer handles to blocking-bucket keys
// (blockKey, famKey), so the SoA rows store a uint32 instead of two
// strings. Handles are never recycled — the key space is bounded by
// (browser family × OS family × three booleans), a few hundred values
// against millions of entries — which keeps candidate lookup a plain
// map read with no refcount bookkeeping. Handle 0 means "no such key".
type keyReg[K comparable] struct {
	byKey map[K]uint32
	keys  []K // index 0 reserved
}

func (r *keyReg[K]) init() {
	r.byKey = make(map[K]uint32)
	r.keys = make([]K, 1)
}

// id interns k, allocating a handle on first sight.
func (r *keyReg[K]) id(k K) uint32 {
	if id, ok := r.byKey[k]; ok {
		return id
	}
	r.keys = append(r.keys, k)
	id := uint32(len(r.keys) - 1)
	r.byKey[k] = id
	return id
}

// lookup resolves k without interning (the read-side query path must
// not mutate the registry under an RLock); 0 means unknown.
func (r *keyReg[K]) lookup(k K) uint32 { return r.byKey[k] }
