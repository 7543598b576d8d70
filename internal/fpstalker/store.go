package fpstalker

// The struct-of-arrays entry table. The historical layout kept one
// heap-allocated *entry per instance, each dragging a full
// *fingerprint.Record (a ~30-field struct plus its slices) — ~1.5 KB
// and dozens of GC-visible pointers per entry. The SoA table keeps
// only what scoring, digesting and indexing actually read, split by
// access pattern:
//
//   - hot:  the scalar scoring fields every candidate scan touches,
//     packed into one pointer-free 48-byte row (one cache line covers
//     a row and its neighbor);
//   - cold: the hashes and bucket handles only Add/Remove/digest and
//     the exact-match index consult;
//   - ids:  the instance IDs (the table's only GC-visible pointers
//     besides the intern pools).
//
// Heavy payloads (UA string + parse, feature-key vectors, sorted set
// hashes) live once in the refcounted intern pools (intern.go) and
// rows hold uint32 handles. Scorers never see any of this: fillView
// materializes the historical *entry shape on demand, so the rule and
// learning scorers — and therefore rankings and digests — are
// byte-identical to the pointer-per-entry layout.

// Row flag bits (hotRow.flags).
const (
	rowOK           byte = 1 << iota // UA parsed
	rowHasTime                       // record time non-zero
	rowCookie                        // CookieEnabled
	rowLocalStorage                  // LocalStorage
)

// hotRow holds the per-entry scalars the candidate scans read.
type hotRow struct {
	hrs     float64 // record time in fractional hours (recency nudge)
	timeNS  int64   // record time in Unix nanoseconds (pair time gap, digest)
	uaID    uint32  // uaPool handle
	keysID  uint32  // vecIntern handle: non-IP feature keys
	fontsID uint32  // vecIntern handles: sorted set hashes (0 for rule entries)
	plugsID uint32
	langsID uint32
	flags   byte
}

// coldRow holds the per-entry fields only mutation, digesting and the
// exact-match index read.
type coldRow struct {
	fpHash    uint64 // FP.Hash(false): digest + exact-match bucket key
	eqHash    uint64 // FP.Hash(true): the hash FP.Equal compares
	fontsHash uint64 // HashSet(Fonts): FP.Equal's font-list guard
	blockID   uint32 // keyReg handles of the row's blocking buckets
	famID     uint32
}

type soa struct {
	ids  []string
	hot  []hotRow
	cold []coldRow
	uas  uaPool
	vecs vecIntern
}

func (t *soa) init() {
	t.uas.init()
	t.vecs.init()
}

func (t *soa) len() int { return len(t.ids) }

// appendRow adds e as a new row and returns its index.
func (t *soa) appendRow(id string, e *entry) int {
	t.ids = append(t.ids, "")
	t.hot = append(t.hot, hotRow{})
	t.cold = append(t.cold, coldRow{})
	i := len(t.ids) - 1
	t.setRow(i, id, e)
	return i
}

// setRow writes e into row i, interning its payloads (one reference
// each). The row's previous payloads must already be released.
func (t *soa) setRow(i int, id string, e *entry) {
	var flags byte
	if e.ok {
		flags |= rowOK
	}
	if e.hasTime {
		flags |= rowHasTime
	}
	if e.cookie {
		flags |= rowCookie
	}
	if e.localStorage {
		flags |= rowLocalStorage
	}
	t.ids[i] = id
	t.hot[i] = hotRow{
		hrs:     e.hrs,
		timeNS:  e.timeNS,
		uaID:    t.uas.intern(e.uaStr),
		keysID:  t.vecs.intern(e.keys),
		fontsID: t.vecs.intern(e.fonts),
		plugsID: t.vecs.intern(e.plugins),
		langsID: t.vecs.intern(e.langs),
		flags:   flags,
	}
	t.cold[i] = coldRow{fpHash: e.fpHash, eqHash: e.eqHash, fontsHash: e.fontsHash}
}

// releaseRow drops row i's intern references (before overwrite or
// removal). The eviction path runs through here: every Remove decrefs
// the interned payloads, so a payload's slot frees exactly when its
// last entry goes.
func (t *soa) releaseRow(i int) {
	h := &t.hot[i]
	t.uas.release(h.uaID)
	t.vecs.release(h.keysID)
	t.vecs.release(h.fontsID)
	t.vecs.release(h.plugsID)
	t.vecs.release(h.langsID)
}

// moveRow copies row from onto row to (the swap-delete fill). No
// refcounts change: the row keeps its references, it just changes
// position.
func (t *soa) moveRow(from, to int) {
	t.ids[to] = t.ids[from]
	t.hot[to] = t.hot[from]
	t.cold[to] = t.cold[from]
}

// truncate drops the last row, whose references must already be
// released or moved.
func (t *soa) truncate() {
	n := len(t.ids) - 1
	t.ids[n] = "" // release the ID string for GC
	t.ids = t.ids[:n]
	t.hot = t.hot[:n]
	t.cold = t.cold[:n]
}

// fillView materializes row i as the historical *entry shape the
// scorers consume. Only the scoring fields are filled — the cold
// hashes stay zero — and the slices and parsed UA alias the intern
// pools, valid for as long as the caller holds the engine's lock.
func (t *soa) fillView(i int, v *entry) {
	h := &t.hot[i]
	slot := t.uas.slots[h.uaID]
	v.id = t.ids[i]
	v.uaStr = slot.str
	if h.flags&rowOK != 0 {
		v.ok, v.ua = true, &slot.ua
	} else {
		v.ok, v.ua = false, nil
	}
	v.cookie = h.flags&rowCookie != 0
	v.localStorage = h.flags&rowLocalStorage != 0
	v.hasTime = h.flags&rowHasTime != 0
	v.hrs = h.hrs
	v.timeNS = h.timeNS
	v.keys = t.vecs.data(h.keysID)
	v.fonts = t.vecs.data(h.fontsID)
	v.plugins = t.vecs.data(h.plugsID)
	v.langs = t.vecs.data(h.langsID)
}

// StoreStats describes the interned store's sharing — the
// observability hook the bench harness reads.
type StoreStats struct {
	// UAStrings and Vectors count the distinct interned payloads
	// currently alive (each shared by every entry referencing it).
	//
	// api: the root BENCH_linkd.json emitter (bench_linkd_test.go)
	// reports them until ROADMAP item 9 retires it.
	UAStrings, Vectors int
	// InternHits/InternMisses count intern() calls that found a shared
	// payload vs allocated a new slot, across both pools. The hit rate
	// is the sharing factor the memory savings come from.
	InternHits   uint64
	InternMisses uint64
}

func (g *engine) storeStats() StoreStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return StoreStats{
		UAStrings:    g.tab.uas.live(),
		Vectors:      g.tab.vecs.live(),
		InternHits:   g.tab.uas.hits + g.tab.vecs.hits,
		InternMisses: g.tab.uas.misses + g.tab.vecs.misses,
	}
}

// StoreStats reports the interned store's occupancy and intern-pool
// hit counters.
func (l *RuleLinker) StoreStats() StoreStats { return l.eng.storeStats() }

// StoreStats reports the interned store's occupancy and intern-pool
// hit counters.
func (l *LearnLinker) StoreStats() StoreStats { return l.eng.storeStats() }
