package fpstalker

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
)

// This file pins the interned, struct-of-arrays store to the behaviour
// of the original pointer-per-entry layout. The digest and ranking
// constants below were generated by the pre-SoA engine (PR 8's layout)
// over the deterministic churn scenario of goldenStoreScenario: any
// storage refactor that changes what a caller can observe — digests,
// rankings, scores — fails here byte-for-byte.

// goldenStoreUAs spans parsed desktop/mobile families plus unparseable
// strings, so the scenario populates every index flavour (blocks, fams,
// raw, unparsed).
var goldenStoreUAs = []string{
	"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36",
	"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.140 Safari/537.36",
	"Mozilla/5.0 (Windows NT 6.1; Win64; x64; rv:58.0) Gecko/20100101 Firefox/58.0",
	"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_3) AppleWebKit/604.5.6 (KHTML, like Gecko) Version/11.0.3 Safari/604.5.6",
	"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36",
	"WeirdBot/7.0 (completely unparseable)",
	"AnotherOpaqueAgent 2.1",
}

// goldenStoreRecord is a deterministic fingerprint: every field derives
// from i alone, with enough repetition across entries that the intern
// pools see real sharing and enough variety that scoring discriminates.
func goldenStoreRecord(i int, t time.Time) *fingerprint.Record {
	return &fingerprint.Record{
		Time:   t,
		UserID: fmt.Sprintf("gs-u-%d", i),
		FP: &fingerprint.Fingerprint{
			UserAgent:        goldenStoreUAs[i%len(goldenStoreUAs)],
			Accept:           "text/html,application/xhtml+xml",
			Encoding:         "gzip, deflate, br",
			Language:         "en-US,en;q=0.9",
			HeaderList:       []string{"Host", "User-Agent", "Accept"},
			Plugins:          []string{"Chrome PDF Plugin", fmt.Sprintf("Widevine %d", i%3)},
			CookieEnabled:    i%5 != 0,
			WebGL:            true,
			LocalStorage:     i%11 != 0,
			TimezoneOffset:   60 * (i % 4),
			Languages:        []string{"en-US", "en"},
			Fonts:            []string{"Arial", "Calibri", fmt.Sprintf("Family %02d", i%13)},
			CanvasHash:       fmt.Sprintf("canvas-%04x", i%97),
			GPUVendor:        "NVIDIA Corporation",
			GPURenderer:      fmt.Sprintf("GeForce GTX %d", 900+10*(i%5)),
			GPUType:          "ANGLE (Direct3D11)",
			CPUCores:         2 + i%4,
			AudioInfo:        "channels:2;rate:44100",
			ScreenResolution: []string{"1920x1080", "1366x768", "2560x1440"}[i%3],
			ColorDepth:       24,
			PixelRatio:       "1",
			IPCity:           fmt.Sprintf("City %d", i%7),
			IPRegion:         "Region",
			IPCountry:        "Country",
			ConsLanguage:     true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
			GPUImageHash: fmt.Sprintf("gpu-%03x", i%29),
		},
	}
}

var goldenStoreBase = time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)

// goldenStoreScenario drives an add / replace / remove / re-add churn
// through l: the sequence every index structure (blocks, fams, raw,
// unparsed, exact hash) and the swap-delete repair path must survive
// with a canonical digest.
func goldenStoreScenario(l DynamicLinker) {
	const n = 260
	for i := 0; i < n; i++ {
		l.Add(fmt.Sprintf("gs-%d", i), goldenStoreRecord(i, goldenStoreBase.Add(time.Duration(i)*time.Minute)))
	}
	// Replace a third in place: same instance, evolved fingerprint
	// (some replacements cross buckets because the UA index moves).
	for i := 0; i < n; i += 3 {
		rec := goldenStoreRecord(i+1, goldenStoreBase.Add(time.Duration(n+i)*time.Minute))
		l.Add(fmt.Sprintf("gs-%d", i), rec)
	}
	// Evict every seventh (exercises swap-moves through every bucket).
	for i := 0; i < n; i += 7 {
		l.Remove(fmt.Sprintf("gs-%d", i))
	}
	// Re-add a subset of the evicted.
	for i := 0; i < n; i += 21 {
		l.Add(fmt.Sprintf("gs-%d", i), goldenStoreRecord(i+2, goldenStoreBase.Add(time.Duration(2*n+i)*time.Minute)))
	}
	// A few zero-time records: the no-recency path must digest stably.
	for i := 0; i < 5; i++ {
		l.Add(fmt.Sprintf("gs-zt-%d", i), goldenStoreRecord(1000+i, time.Time{}))
	}
}

// goldenStoreQueries mixes exact re-presentations, evolved
// fingerprints, and unparseable agents.
func goldenStoreQueries() []*fingerprint.Record {
	var qs []*fingerprint.Record
	for _, i := range []int{3, 29, 55, 96, 131, 208} {
		qs = append(qs, goldenStoreRecord(i, goldenStoreBase.Add(time.Duration(i)*time.Minute)))
		ev := goldenStoreRecord(i, goldenStoreBase.Add(400*time.Minute))
		ev.FP.CanvasHash = fmt.Sprintf("evolved-%d", i)
		ev.FP.TimezoneOffset += 60
		qs = append(qs, ev)
	}
	return qs
}

// renderRanking flattens a ranking for golden comparison. Scores print
// with enough digits to pin the exact float64.
func renderRanking(cands []Candidate) string {
	var sb strings.Builder
	for _, c := range cands {
		fmt.Fprintf(&sb, "%s=%.17g;", c.ID, c.Score)
	}
	return sb.String()
}

// Golden values generated by the pre-SoA (pointer-per-entry) engine.
const (
	goldenRuleDigest  = "7c3113f65b8f9555ef4d499b823292e75742f4b0"
	goldenLearnDigest = "417221e9fdb99542eb5541bb09973b7953d5c987"
)

var goldenRuleRankings = []string{
	"",
	"",
	"gs-29=1000000000;",
	"gs-29=27.795140806184019;",
	"gs-54=1000000000;gs-55=1000000000;",
	"gs-54=27.943643512450276;gs-55=27.806722689075631;",
	"",
	"",
	"gs-131=1000000000;",
	"gs-131=27.84259801053236;",
	"gs-207=1000000000;gs-208=1000000000;",
	"gs-208=27.882352941176094;gs-207=27;",
}

var goldenLearnRankings = []string{
	"",
	"",
	"gs-29=0.99954044117647056;",
	"",
	"gs-54=0.99954044117647056;gs-55=0.99954044117647056;",
	"",
	"",
	"",
	"gs-131=0.99954044117647056;",
	"",
	"gs-207=0.99954044117647056;gs-208=0.99954044117647056;",
	"",
}

// TestGoldenStoreDigestPin: the store must digest exactly as the
// pre-refactor layout did for the same churn.
func TestGoldenStoreDigestPin(t *testing.T) {
	rule := NewRuleLinker()
	goldenStoreScenario(rule)
	if got := rule.IndexDigest(); got != goldenRuleDigest {
		t.Errorf("rule digest = %q, want %q", got, goldenRuleDigest)
	}
	learn := NewLearnLinker(nil) // digest never consults the forest
	goldenStoreScenario(learn)
	if got := learn.IndexDigest(); got != goldenLearnDigest {
		t.Errorf("learn digest = %q, want %q", got, goldenLearnDigest)
	}
}

// statLinker is a DynamicLinker exposing store occupancy.
type statLinker interface {
	DynamicLinker
	StoreStats() StoreStats
}

// tableOf is the interned table behind a linker.
func tableOf(l statLinker) *soa {
	switch l := l.(type) {
	case *RuleLinker:
		return &l.eng.tab
	case *LearnLinker:
		return &l.eng.tab
	}
	panic(fmt.Sprintf("no table behind %T", l))
}

// vecBytes is the payload bytes the table's vector pool holds.
func vecBytes(tab *soa) int {
	n := 0
	for _, s := range tab.vecs.slots {
		n += 8 * len(s.data)
	}
	return n
}

// TestInternRefcountProperty: the intern pools are refcounted per
// entry, so (a) a populated table shares payloads (far fewer distinct
// UA strings than entries), and (b) removing every entry returns every
// pool to its empty baseline — no leaked slots, no leaked bytes — and
// the emptied linker digests identically to a fresh one.
func TestInternRefcountProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() statLinker
	}{
		{"rule", func() statLinker { return NewRuleLinker() }},
		{"learn", func() statLinker { return NewLearnLinker(nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.mk()
			goldenStoreScenario(l)
			stats, tab := l.StoreStats(), tableOf(l)
			if tab.len() == 0 || tab.len() != l.Len() {
				t.Fatalf("table rows = %d, Len = %d", tab.len(), l.Len())
			}
			// The scenario presents 7 distinct UAs across hundreds of
			// entries: interning must actually share.
			if stats.UAStrings != len(goldenStoreUAs) {
				t.Errorf("UAStrings = %d, want %d", stats.UAStrings, len(goldenStoreUAs))
			}
			if stats.InternHits == 0 {
				t.Error("intern pools recorded zero hits over a repetitive population")
			}
			if stats.Vectors == 0 || vecBytes(tab) <= 0 {
				t.Errorf("vector pool empty on a populated table: %+v, %d bytes", stats, vecBytes(tab))
			}

			// Remove every entry the scenario could have left behind.
			for i := 0; i < 260; i++ {
				l.Remove(fmt.Sprintf("gs-%d", i))
			}
			for i := 0; i < 5; i++ {
				l.Remove(fmt.Sprintf("gs-zt-%d", i))
			}
			stats = l.StoreStats()
			if tab.len() != 0 || stats.UAStrings != 0 || stats.Vectors != 0 || vecBytes(tab) != 0 {
				t.Errorf("pools did not return to baseline after removing all entries: %d rows, %+v, %d vector bytes",
					tab.len(), stats, vecBytes(tab))
			}
			if got, want := l.IndexDigest(), tc.mk().IndexDigest(); got != want {
				t.Errorf("emptied linker digest = %q, fresh = %q", got, want)
			}
		})
	}
}

// goldenStoreForest trains the pair model over the scenario's record
// stream — deterministic by seed, so learning scores pin exactly.
func goldenStoreForest(t testing.TB) *mlearn.Forest {
	t.Helper()
	var records []*fingerprint.Record
	var instances []int
	for i := 0; i < 420; i++ {
		records = append(records, goldenStoreRecord(i%140, goldenStoreBase.Add(time.Duration(i)*time.Minute)))
		instances = append(instances, i%140)
	}
	f, err := TrainPairModel(records, instances, mlearn.ForestConfig{Seed: 17, NumTrees: 8, MaxDepth: 6})
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}
	return f
}

// TestGoldenStoreRankingPin: TopK output — IDs and exact float scores —
// must match the pre-refactor engine on both variants.
func TestGoldenStoreRankingPin(t *testing.T) {
	rule := NewRuleLinker()
	goldenStoreScenario(rule)
	var gotRule []string
	for _, q := range goldenStoreQueries() {
		gotRule = append(gotRule, renderRanking(rule.TopK(q, 5)))
	}

	learn := NewLearnLinker(goldenStoreForest(t))
	goldenStoreScenario(learn)
	var gotLearn []string
	for _, q := range goldenStoreQueries() {
		gotLearn = append(gotLearn, renderRanking(learn.TopK(q, 5)))
	}

	if len(goldenRuleRankings) == 0 {
		for _, s := range gotRule {
			t.Logf("RULE  %q,", s)
		}
		for _, s := range gotLearn {
			t.Logf("LEARN %q,", s)
		}
		t.Fatal("golden rankings not initialized")
	}
	for i, want := range goldenRuleRankings {
		if gotRule[i] != want {
			t.Errorf("rule query %d:\n got  %s\n want %s", i, gotRule[i], want)
		}
	}
	for i, want := range goldenLearnRankings {
		if gotLearn[i] != want {
			t.Errorf("learn query %d:\n got  %s\n want %s", i, gotLearn[i], want)
		}
	}
}
