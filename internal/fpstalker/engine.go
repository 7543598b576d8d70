package fpstalker

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fpdyn/internal/hashutil"
	"fpdyn/internal/parallel"
)

// The matching engine: what turns the paper's Figure 9 linear scan into
// something a production linker can live with. Two independent levers,
// each with an ablation flag so the paper's measurement stays
// reproducible:
//
//   - candidate blocking ("Guess Who?"-style pre-filtering): entries are
//     bucketed by the identity attributes the linking rules require to
//     match exactly, so a query only ever scores entries its rules could
//     accept. Disabled by NoBlocking (the Figure 9 configuration).
//   - a worker-pool parallel scorer, chunked over the candidate set.
//     Serial when Workers == 1 or the candidate set is small.
//
// Both levers are pure optimizations: the per-entry scoring functions
// remain the complete filters, so blocked/parallel runs return exactly
// the rankings of the serial linear scan (Rank's total order —
// score descending, then ID — is deterministic, and instance IDs are
// unique).
//
// Storage is the interned struct-of-arrays table of store.go: rows are
// flat pointer-free structs holding intern-pool handles, and the
// scoring loops materialize *entry-shaped views on the fly. Buckets
// are keyed by small integer handles (keyReg) so a bucket lookup costs
// one map read on a uint32, not a multi-string key hash.

// blockKey buckets parsed entries by the attributes the rule-based
// linker requires to be equal: browser family, OS family and form
// factor (rule 2) plus the user-controlled storage toggles (rule 4).
// Every component is an exact-equality constraint of the rule cascade,
// so the bucket contains a superset of what score accepts.
type blockKey struct {
	browser      string
	os           string
	mobile       bool
	cookie       bool
	localStorage bool
}

// famKey is the coarser learning-variant bucket: its prefilter
// constrains browser family and form factor but not OS.
type famKey struct {
	browser string
	mobile  bool
}

// engine is the shared storage and candidate-generation core behind
// both linkers: an RWMutex-guarded SoA entry table plus the blocking
// and exact-match indexes. The mutex makes Add/TopK safe for
// concurrent callers, the same contract internal/storage gives the
// collection server.
type engine struct {
	mu   sync.RWMutex
	tab  soa
	byID map[string]int // instance id → row in tab

	blockReg keyReg[blockKey]
	famReg   keyReg[famKey]

	blocks   map[uint32][]int // parsed rows by blockKey handle
	fams     map[uint32][]int // parsed rows by famKey handle
	raw      map[uint32][]int // unparsed rows by interned-UA handle
	unparsed []int            // every unparsed row
	byHash   map[uint64][]int // every row by fingerprint hash (the rule linker's exact-match index)
}

func newEngine() *engine {
	g := &engine{
		byID:   make(map[string]int),
		blocks: make(map[uint32][]int),
		fams:   make(map[uint32][]int),
		raw:    make(map[uint32][]int),
		byHash: make(map[uint64][]int),
	}
	g.tab.init()
	g.blockReg.init()
	g.famReg.init()
	return g
}

func (g *engine) size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.tab.ids)
}

// add registers e as the latest fingerprint of id, replacing the
// instance's previous row in place (row indexes stay stable) and
// releasing the replaced row's interned payloads. Callers must hold
// mu.
func (g *engine) add(id string, e *entry) {
	if i, ok := g.byID[id]; ok {
		g.unindex(i)
		g.tab.releaseRow(i)
		g.tab.setRow(i, id, e)
		g.index(i)
		return
	}
	i := g.tab.appendRow(id, e)
	g.byID[id] = i
	g.index(i)
}

// remove deletes id's row from the table and every index, releasing
// its interned payloads (the eviction decref path), and reports
// whether the instance was known. The vacated slot is filled by
// swap-moving the last row down, so the table stays dense. Callers
// must hold mu.
func (g *engine) remove(id string) bool {
	i, ok := g.byID[id]
	if !ok {
		return false
	}
	g.unindex(i)
	g.tab.releaseRow(i)
	delete(g.byID, id)
	last := g.tab.len() - 1
	if i != last {
		// Re-point every bucket holding the moved row from its old slot
		// to its new one. Its bucket handles and hash move with the
		// row, so rebucketing needs no key recomputation.
		g.unindex(last)
		g.tab.moveRow(last, i)
		g.byID[g.tab.ids[i]] = i
		g.rebucket(i)
	}
	g.tab.truncate()
	return true
}

// indexDigest is a canonical SHA-1 over the entry table and every
// blocking structure (the rule linker's IndexDigest adds the
// exact-match index): entries sorted by instance ID with their
// fingerprint hash and timestamp, then each bucket rendered as its key
// plus the sorted member IDs. Bucket *order* is deliberately excluded —
// swap-deletes reorder buckets without changing rankings — so a
// recovered engine that replayed the same adds and evictions digests
// identically to one that never crashed. Handles resolve back to their
// key structs and strings here, so the rendered lines are
// byte-identical to the pointer-per-entry layout's. Callers must hold
// mu (read side suffices).
func (g *engine) indexDigest() string {
	var lines []string
	for id, i := range g.byID {
		lines = append(lines, fmt.Sprintf("entry %s %016x %d %t",
			id, g.tab.cold[i].fpHash, g.tab.hot[i].timeNS, g.tab.hot[i].flags&rowOK != 0))
	}
	for bid, bucket := range g.blocks {
		k := g.blockReg.keys[bid]
		lines = append(lines, "block "+fmt.Sprintf("%s|%s|%t|%t|%t", k.browser, k.os, k.mobile, k.cookie, k.localStorage)+bucketIDs(g, bucket))
	}
	for fid, bucket := range g.fams {
		k := g.famReg.keys[fid]
		lines = append(lines, "fam "+fmt.Sprintf("%s|%t", k.browser, k.mobile)+bucketIDs(g, bucket))
	}
	for uid, bucket := range g.raw {
		lines = append(lines, "raw "+g.tab.uas.slots[uid].str+bucketIDs(g, bucket))
	}
	lines = append(lines, "unparsed"+bucketIDs(g, g.unparsed))
	sort.Strings(lines)
	var b []byte
	for _, l := range lines {
		b = append(b, l...)
		b = append(b, '\n')
	}
	return hashutil.SHA1HexBytes(b)
}

// bucketIDs renders a bucket's member instance IDs, sorted.
func bucketIDs(g *engine, bucket []int) string {
	ids := make([]string, len(bucket))
	for j, i := range bucket {
		ids[j] = g.tab.ids[i]
	}
	sort.Strings(ids)
	var b []byte
	for _, id := range ids {
		b = append(b, ' ')
		b = append(b, id...)
	}
	return string(b)
}

// index computes row i's bucket handles, stores them on the row and
// appends the row to its buckets. The row must be freshly set (setRow
// leaves handles zero).
func (g *engine) index(i int) {
	h := &g.tab.hot[i]
	if h.flags&rowOK != 0 {
		slot := g.tab.uas.slots[h.uaID]
		c := &g.tab.cold[i]
		c.blockID = g.blockReg.id(blockKey{slot.ua.Browser, slot.ua.OS, slot.ua.Mobile,
			h.flags&rowCookie != 0, h.flags&rowLocalStorage != 0})
		c.famID = g.famReg.id(famKey{slot.ua.Browser, slot.ua.Mobile})
	}
	g.rebucket(i)
}

// rebucket appends row i to the buckets its stored handles and
// fingerprint hash name — the cheap half of index, reused when a
// swap-move repositions a row whose handles are already right.
func (g *engine) rebucket(i int) {
	h := &g.tab.hot[i]
	c := &g.tab.cold[i]
	g.byHash[c.fpHash] = append(g.byHash[c.fpHash], i)
	if h.flags&rowOK != 0 {
		g.blocks[c.blockID] = append(g.blocks[c.blockID], i)
		g.fams[c.famID] = append(g.fams[c.famID], i)
		return
	}
	g.raw[h.uaID] = append(g.raw[h.uaID], i)
	g.unparsed = append(g.unparsed, i)
}

// unindex removes row i from every bucket its stored handles and
// fingerprint hash name.
func (g *engine) unindex(i int) {
	h := &g.tab.hot[i]
	c := &g.tab.cold[i]
	removeFromBucket(g.byHash, c.fpHash, i)
	if h.flags&rowOK != 0 {
		removeFromBucket(g.blocks, c.blockID, i)
		removeFromBucket(g.fams, c.famID, i)
		return
	}
	removeFromBucket(g.raw, h.uaID, i)
	for j, v := range g.unparsed {
		if v == i {
			g.unparsed[j] = g.unparsed[len(g.unparsed)-1]
			g.unparsed = g.unparsed[:len(g.unparsed)-1]
			break
		}
	}
}

// removeFromBucket swap-deletes index i from m[k], dropping the key
// when its bucket empties.
func removeFromBucket[K comparable](m map[K][]int, k K, i int) {
	s := m[k]
	for j, v := range s {
		if v == i {
			s[j] = s[len(s)-1]
			s = s[:len(s)-1]
			break
		}
	}
	if len(s) == 0 {
		delete(m, k)
	} else {
		m[k] = s
	}
}

// exactMatch reports whether row i's fingerprint equals the query's,
// by the same definition as fingerprint.Equal: the IP-inclusive hash,
// the verbatim user-agent string and the font multiset (via its
// order-independent hash) must all agree. Equality by these three
// independent 64-bit+string checks diverges from Equal only on a hash
// collision (~2^-64 per pair) — the same substitution featureKeys
// documents for the similarity scores.
func (g *engine) exactMatch(i int, q *entry) bool {
	c := &g.tab.cold[i]
	return c.eqHash == q.eqHash && c.fontsHash == q.fontsHash &&
		g.tab.uas.slots[g.tab.hot[i].uaID].str == q.uaStr
}

// candSet is a candidate set as up to two row-index ranges — the
// blocking bucket and, for the learning variant, the unparsed tail —
// scored back-to-back without materializing a merged slice. all=true
// means "scan every row" (the NoBlocking ablation).
type candSet struct {
	a, b []int
	all  bool
}

// candLen is the candidate count. Callers must hold mu.
func (g *engine) candLen(cs candSet) int {
	if cs.all {
		return g.tab.len()
	}
	return len(cs.a) + len(cs.b)
}

// candIdx resolves candidate ordinal j to a row index: a's members
// first, then b's — the same order the historical concatenation
// scanned, so chunked rankings merge identically.
func (g *engine) candIdx(cs candSet, j int) int {
	if cs.all {
		return j
	}
	if j < len(cs.a) {
		return cs.a[j]
	}
	return cs.b[j-len(cs.a)]
}

// ruleCandidates generates the candidate set for the rule-based linker.
// A parsed query can only link inside its (browser, OS, mobile,
// storage toggles) bucket (rules 2 and 4). An unparseable query
// requires a verbatim UA match, which only an unparsed entry of the
// same string can satisfy — an identical string would have parsed
// identically. Both lookups are non-mutating (a query for an unseen
// key or UA finds handle 0, which no bucket uses). Callers must hold
// mu.
func (g *engine) ruleCandidates(q *entry, noBlocking bool) candSet {
	if noBlocking {
		return candSet{all: true}
	}
	if q.ok {
		bid := g.blockReg.lookup(blockKey{q.ua.Browser, q.ua.OS, q.ua.Mobile, q.cookie, q.localStorage})
		return candSet{a: g.blocks[bid]}
	}
	return candSet{a: g.raw[g.tab.uas.byStr[q.uaStr]]}
}

// learnCandidates generates the candidate set for the learning-based
// linker: its prefilter only fires when both sides parse, so a parsed
// query faces its (browser, mobile) bucket plus every unparsed entry —
// two ranges of one candSet, no concatenation — and an unparseable
// query faces the whole table. Callers must hold mu.
func (g *engine) learnCandidates(q *entry, noBlocking bool) candSet {
	if noBlocking || !q.ok {
		return candSet{all: true}
	}
	fid := g.famReg.lookup(famKey{q.ua.Browser, q.ua.Mobile})
	return candSet{a: g.fams[fid], b: g.unparsed}
}

// minParallel is the candidate count below which scoring stays serial:
// spawning the pool costs more than scanning a small bucket.
const minParallel = 256

// candPool recycles the scoring scratch buffers. A query over a large
// bucket accepts hundreds of candidates; building that slice fresh per
// TopK made the matching engine an allocation hot spot (and, against
// the dataset-sized live heap, a GC hot spot). Only the ≤ k ranked
// results are copied out to the caller.
var candPool = sync.Pool{New: func() any { return new([]Candidate) }}

// maxPooledCand caps the capacity a candidate buffer may retain in
// candPool. A NoBlocking scan over a million-entry table can accept
// hundreds of thousands of candidates; putting that buffer back at
// full capacity would pin megabytes forever off one worst-case query.
// Oversized buffers are dropped for the GC instead.
const maxPooledCand = 16384

// putCandBuf returns a scratch buffer to candPool, unless a worst-case
// query grew it past maxPooledCand.
func putCandBuf(bp *[]Candidate) {
	if cap(*bp) > maxPooledCand {
		return
	}
	*bp = (*bp)[:0]
	candPool.Put(bp)
}

// scoreBlock is the candidate-block size the scorers work in: large
// enough to amortize a block's pool round trip and cancellation poll,
// small enough that a block of entry views stays cache-resident.
const scoreBlock = 256

// viewBlock is one worker's scoring scratch: scoreBlock entry views
// plus stable pointers to them in the shape the block scorer consumes.
// Fixed capacity, so unlike a grown slice it cannot pin a worst-case
// query's memory when pooled.
type viewBlock struct {
	views [scoreBlock]entry
	ptrs  []*entry
}

// blockPool recycles the per-block view buffers of scoreTopK.
var blockPool = sync.Pool{New: func() any {
	b := new(viewBlock)
	b.ptrs = make([]*entry, scoreBlock)
	for i := range b.views {
		b.ptrs[i] = &b.views[i]
	}
	return b
}}

// scoreTopK is the one candidate loop of both linkers: it materializes
// the candidate rows' entry views (the whole table when cs.all is set)
// a block at a time, hands each block of up to scoreBlock views to
// score, which appends the accepted ones to out in block order, and
// returns the top k under Rank's order as a fresh slice. The rule
// linker's score walks the block entry by entry, and so does the
// learning linker's, one forest evaluation per kept pair. workers ≤ 0 sizes
// the pool by parallel.Resolve (GOMAXPROCS); workers == 1 or a small
// candidate set keeps it serial. Parallel chunks are merged before the
// deterministic ranking, so blocked, parallel and serial runs return
// identical rankings. A non-nil ctx is polled between cancelSlice-sized
// index ranges: a canceled query stops scoring mid-scan and returns
// ctx's error instead of burning CPU on an answer nobody is waiting
// for. Callers must hold mu (read side suffices: scoring never mutates
// the table).
func (g *engine) scoreTopK(ctx context.Context, cs candSet, workers, k int, score func(es []*entry, out []Candidate) []Candidate) ([]Candidate, error) {
	n := g.candLen(cs)
	return g.rankChunks(ctx, n, workers, k, func(lo, hi int, out []Candidate) []Candidate {
		b := blockPool.Get().(*viewBlock)
		for lo < hi {
			end := min(lo+scoreBlock, hi)
			m := 0
			for j := lo; j < end; j++ {
				g.tab.fillView(g.candIdx(cs, j), &b.views[m])
				m++
			}
			out = score(b.ptrs[:m], out)
			lo = end
		}
		blockPool.Put(b)
		return out
	})
}

// cancelSlice is the index-range granularity at which a ctx-carrying
// query polls for cancellation: coarse enough that the poll (one atomic
// read inside ctx.Err) vanishes against scoring 4096 candidates, fine
// enough that a timed-out scan over a million-entry bucket stops within
// a fraction of a millisecond of the deadline. A multiple of scoreBlock
// so slicing never splits a block.
const cancelSlice = 4096

// runSliced invokes run over [lo, hi) and returns the extended out. A
// nil ctx takes one run(lo, hi) call; otherwise run goes over
// cancelSlice-sized sub-ranges in ascending index order, so the output
// is identical, polling ctx between them and stopping as soon as it is
// canceled.
func runSliced(ctx context.Context, lo, hi int, out []Candidate, run func(lo, hi int, out []Candidate) []Candidate) []Candidate {
	if ctx == nil {
		return run(lo, hi, out)
	}
	for lo < hi && ctx.Err() == nil {
		end := min(lo+cancelSlice, hi)
		out = run(lo, end, out)
		lo = end
	}
	return out
}

// rankChunks runs the chunked scoring loop: run(lo, hi, out) scores
// index range [lo, hi) appending accepted candidates in index order.
// Parallel chunks are merged in chunk order before the deterministic
// top-k selection, so every (workers, chunking, ctx) configuration
// returns identical rankings. A nil ctx (the plain TopK path) adds no
// per-candidate cost; a non-nil ctx canceled by the end of scoring
// returns ctx's error.
func (g *engine) rankChunks(ctx context.Context, n, workers, k int, run func(lo, hi int, out []Candidate) []Candidate) ([]Candidate, error) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // context.Background etc: not cancelable, skip the polling
	}
	bufp := candPool.Get().(*[]Candidate)
	buf := (*bufp)[:0]
	workers = parallel.Resolve(workers)
	if workers == 1 || n < minParallel {
		buf = runSliced(ctx, 0, n, buf, run)
	} else {
		workers = min(workers, n)
		chunk := (n + workers - 1) / workers
		parts := make([]*[]Candidate, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				bp := candPool.Get().(*[]Candidate)
				*bp = runSliced(ctx, lo, hi, (*bp)[:0], run)
				parts[w] = bp
			}(w, lo, hi)
		}
		wg.Wait()
		for _, bp := range parts {
			if bp == nil {
				continue
			}
			buf = append(buf, *bp...)
			putCandBuf(bp)
		}
	}
	var res []Candidate
	var err error
	if ctx != nil {
		err = ctx.Err()
	}
	if err == nil {
		res = Rank(buf, k)
	}
	*bufp = buf
	putCandBuf(bufp)
	return res, err
}
