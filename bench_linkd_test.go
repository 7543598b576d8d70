package fpdyn

// The linking-service benchmark: per-query TopK latency through the
// full linkd service path (admission control included) at growing
// table sizes, in both linker modes. The emitter writes
// BENCH_linkd.json so the query-latency trajectory is tracked across
// PRs alongside BENCH_ingest.json — and so the degradation watermarks in cmd/fplinkd
// (-p99-high, -p99-low) can be set from measured numbers rather than
// guesses.
//
// Percentiles are exact: every query's duration is recorded and the
// sorted slice is indexed, not bucketed.
//
//	BENCH_LINKD_OUT=BENCH_linkd.json go test -run TestEmitLinkdBench .

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linkd"
	"fpdyn/internal/mlearn"
)

// linkdBenchUAs spreads the table across ~20 blocking buckets, the
// shape a real browser population gives the blocking index.
var linkdBenchUAs = func() []string {
	var uas []string
	for _, tmpl := range []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/%d.0.3239.132 Safari/537.36",
		"Mozilla/5.0 (Windows NT 6.1; Win64; x64; rv:%d.0) Gecko/20100101 Firefox/%d.0",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_%d) AppleWebKit/604.5.6 (KHTML, like Gecko) Version/11.0.%d Safari/604.5.6",
		"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/%d.0.3282.140 Safari/537.36",
	} {
		for v := 60; v < 65; v++ {
			n := strings.Count(tmpl, "%d")
			args := make([]any, n)
			for i := range args {
				args[i] = v
			}
			uas = append(uas, fmt.Sprintf(tmpl, args...))
		}
	}
	return uas
}()

// linkdBenchRecord builds the deterministic fingerprint of table
// instance i.
func linkdBenchRecord(i int, t time.Time) *fingerprint.Record {
	return &fingerprint.Record{
		Time:   t,
		UserID: fmt.Sprintf("lb-u-%d", i),
		FP: &fingerprint.Fingerprint{
			UserAgent:        linkdBenchUAs[i%len(linkdBenchUAs)],
			Accept:           "text/html,application/xhtml+xml",
			Encoding:         "gzip, deflate, br",
			Language:         "en-US,en;q=0.9",
			HeaderList:       []string{"Host", "User-Agent", "Accept"},
			Plugins:          []string{"Chrome PDF Plugin", fmt.Sprintf("Widevine %d", i%4)},
			CookieEnabled:    true,
			WebGL:            true,
			LocalStorage:     true,
			TimezoneOffset:   60 * (1 + i%3),
			Languages:        []string{"en-US", "en"},
			Fonts:            []string{"Arial", "Calibri", "Verdana", fmt.Sprintf("Family %02d", i%31)},
			CanvasHash:       fmt.Sprintf("canvas-%08x", i),
			GPUVendor:        "NVIDIA Corporation",
			GPURenderer:      fmt.Sprintf("GeForce GTX %d", 900+10*(i%7)),
			GPUType:          "ANGLE (Direct3D11)",
			CPUCores:         4,
			AudioInfo:        "channels:2;rate:44100",
			ScreenResolution: "1920x1080",
			ColorDepth:       24,
			ConsLanguage:     true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
			GPUImageHash: fmt.Sprintf("gpu-%04x", i%97),
		},
	}
}

// linkdBenchForest trains the pair model on a drifted synthetic stream
// (timezone evolves within an instance), deterministic by seed.
func linkdBenchForest() (*mlearn.Forest, error) {
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	var records []*fingerprint.Record
	var instances []int
	for i := 0; i < 300; i++ {
		for v := 0; v < 3; v++ {
			rec := linkdBenchRecord(i, base.Add(time.Duration(i*3+v)*time.Hour))
			rec.FP.TimezoneOffset = 60 * (v + 1)
			records = append(records, rec)
			instances = append(instances, i)
		}
	}
	return fpstalker.TrainPairModel(records, instances,
		mlearn.ForestConfig{Seed: 11, NumTrees: 10, MaxDepth: 8})
}

type linkdCell struct {
	Entries  int     `json:"entries"`
	Mode     string  `json:"mode"`
	Queries  int     `json:"queries"`
	K        int     `json:"k"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
	QPS      float64 `json:"queries_per_sec"`
	BuildSec float64 `json:"table_build_seconds"`

	// Memory columns, measured around this mode's table build.
	// BytesPerEntry is the settled HeapAlloc delta (GC before both
	// reads) divided by the entry count — the resident cost of one
	// stored instance, intern pools and indexes included.
	BytesPerEntry float64 `json:"bytes_per_entry"`
	// InternHitRate is hits/(hits+misses) across the linker's intern
	// pools: the payload-sharing factor the savings come from.
	InternHitRate   float64 `json:"intern_hit_rate"`
	InternUAStrings int     `json:"intern_ua_strings"`
	InternVectors   int     `json:"intern_vectors"`
	// GCPauseBuildMs is the stop-the-world pause total accrued while
	// building this mode's table.
	GCPauseBuildMs float64 `json:"gc_pause_build_ms"`
	// PeakRSSMB is the process's resident high-water mark (VmHWM) when
	// the build finished; 0 where /proc is unavailable. Process-wide
	// and monotonic, so later cells inherit earlier peaks.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// measureBuild runs build between two settled heap samples: the
// returned bytes are live-heap growth (signed — GC'd scratch can make
// a small build negative), and gcPauseMs the STW pause total accrued.
func measureBuild(build func()) (sec float64, bytes int64, gcPauseMs float64) {
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	build()
	sec = time.Since(start).Seconds()
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	bytes = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return
}

// peakRSSMB reads the process's resident high-water mark from
// /proc/self/status (Linux); 0 elsewhere.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// internHitRate flattens a linker's intern counters to hits/lookups.
func internHitRate(s fpstalker.StoreStats) float64 {
	total := s.InternHits + s.InternMisses
	if total == 0 {
		return 0
	}
	return float64(s.InternHits) / float64(total)
}

type linkdReport struct {
	NumCPU  int         `json:"num_cpu"`
	Workers int         `json:"workers"`
	Cells   []linkdCell `json:"cells"`
	// RuleSpeedupByEntries is mean(learning)/mean(rule) per table size —
	// the factor the degraded mode buys back under overload.
	RuleSpeedupByEntries map[string]float64 `json:"rule_speedup_by_entries"`
}

// runLinkdCell sends `queries` sequential TopK queries through
// svc.Query and reports exact latency percentiles.
func runLinkdCell(t *testing.T, svc *linkd.Service, entries, queries, k int, mode string, buildSec float64) linkdCell {
	t.Helper()
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	durs := make([]time.Duration, 0, queries)
	start := time.Now()
	for j := 0; j < queries; j++ {
		// Evolved re-observation of a deterministic table instance:
		// same stable features, drifted timezone — a non-exact match
		// that exercises the scoring scan, not the exact-match index.
		q := linkdBenchRecord((j*9973+17)%entries, base.Add(time.Hour))
		q.FP.TimezoneOffset = 240
		t0 := time.Now()
		cands, gotMode, err := svc.Query(context.Background(), q, k)
		durs = append(durs, time.Since(t0))
		if err != nil {
			t.Fatalf("%s query %d: %v", mode, j, err)
		}
		if gotMode != mode {
			t.Fatalf("query served by %q, cell expects %q", gotMode, mode)
		}
		if j == 0 && len(cands) == 0 {
			t.Fatalf("%s query returned no candidates at %d entries", mode, entries)
		}
	}
	elapsed := time.Since(start)

	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) float64 {
		idx := int(p*float64(len(durs))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(durs) {
			idx = len(durs) - 1
		}
		return durs[idx].Seconds() * 1e3
	}
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	return linkdCell{
		Entries: entries, Mode: mode, Queries: queries, K: k,
		P50Ms: pct(0.50), P95Ms: pct(0.95), P99Ms: pct(0.99),
		MeanMs:   sum.Seconds() * 1e3 / float64(len(durs)),
		QPS:      float64(queries) / elapsed.Seconds(),
		BuildSec: buildSec,
	}
}

// TestEmitLinkdBench builds linking tables at each configured size,
// measures TopK latency percentiles through the service in rule-based
// and learning-based mode, and writes BENCH_linkd.json. Gated behind
// BENCH_LINKD_OUT; `make bench-linkd` sets it.
func TestEmitLinkdBench(t *testing.T) {
	out := os.Getenv("BENCH_LINKD_OUT")
	if out == "" {
		t.Skip("set BENCH_LINKD_OUT=<path> to emit the linkd benchmark")
	}
	sizes := []int{100_000, 1_000_000}
	if s := os.Getenv("BENCH_LINKD_ENTRIES"); s != "" {
		sizes = sizes[:0]
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				t.Fatalf("BENCH_LINKD_ENTRIES: bad size %q", part)
			}
			sizes = append(sizes, n)
		}
	}
	queries := 200
	if s := os.Getenv("BENCH_LINKD_QUERIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("BENCH_LINKD_QUERIES: bad count %q", s)
		}
		queries = n
	}
	const k = 10

	forest, err := linkdBenchForest()
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}

	rep := linkdReport{
		NumCPU:               runtime.NumCPU(),
		Workers:              runtime.GOMAXPROCS(0),
		RuleSpeedupByEntries: map[string]float64{},
	}
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, entries := range sizes {
		// The same record stream feeds both modes, but each linker
		// builds inside its own measured window so the HeapAlloc delta
		// isolates that table's resident cost; each mode then queries
		// through its own service shell (rule-only vs learning-first).
		rule := fpstalker.NewRuleLinker()
		ruleSec, ruleBytes, ruleGCMs := measureBuild(func() {
			for i := 0; i < entries; i++ {
				rule.Add(fmt.Sprintf("lb-i-%d", i), linkdBenchRecord(i, base.Add(time.Duration(i)*time.Second)))
			}
		})
		learn := fpstalker.NewLearnLinker(forest)
		learnSec, learnBytes, learnGCMs := measureBuild(func() {
			for i := 0; i < entries; i++ {
				learn.Add(fmt.Sprintf("lb-i-%d", i), linkdBenchRecord(i, base.Add(time.Duration(i)*time.Second)))
			}
		})
		ruleStats, learnStats := rule.StoreStats(), learn.StoreStats()
		t.Logf("tables built: %d entries, rule %.1fs %.0f B/entry (hit rate %.3f), learning %.1fs %.0f B/entry (hit rate %.3f)",
			entries, ruleSec, float64(ruleBytes)/float64(entries), internHitRate(ruleStats),
			learnSec, float64(learnBytes)/float64(entries), internHitRate(learnStats))

		svcRule, _, err := linkd.Open(linkd.Options{Rule: rule, MaxInFlight: 4, QueueDepth: 16})
		if err != nil {
			t.Fatalf("open rule service: %v", err)
		}
		svcLearn, _, err := linkd.Open(linkd.Options{Rule: rule, Learn: learn, MaxInFlight: 4, QueueDepth: 16})
		if err != nil {
			t.Fatalf("open learning service: %v", err)
		}

		rss := peakRSSMB()
		ruleCell := runLinkdCell(t, svcRule, entries, queries, k, linkd.ModeRule, ruleSec)
		ruleCell.BytesPerEntry = float64(ruleBytes) / float64(entries)
		ruleCell.InternHitRate = internHitRate(ruleStats)
		ruleCell.InternUAStrings = ruleStats.UAStrings
		ruleCell.InternVectors = ruleStats.Vectors
		ruleCell.GCPauseBuildMs = ruleGCMs
		ruleCell.PeakRSSMB = rss
		learnCell := runLinkdCell(t, svcLearn, entries, queries, k, linkd.ModeLearning, learnSec)
		learnCell.BytesPerEntry = float64(learnBytes) / float64(entries)
		learnCell.InternHitRate = internHitRate(learnStats)
		learnCell.InternUAStrings = learnStats.UAStrings
		learnCell.InternVectors = learnStats.Vectors
		learnCell.GCPauseBuildMs = learnGCMs
		learnCell.PeakRSSMB = rss
		rep.Cells = append(rep.Cells, ruleCell, learnCell)
		rep.RuleSpeedupByEntries[strconv.Itoa(entries)] = learnCell.MeanMs / ruleCell.MeanMs
		t.Logf("%d entries: rule p50/p95/p99 = %.2f/%.2f/%.2f ms; learning = %.2f/%.2f/%.2f ms",
			entries, ruleCell.P50Ms, ruleCell.P95Ms, ruleCell.P99Ms,
			learnCell.P50Ms, learnCell.P95Ms, learnCell.P99Ms)

		svcRule.Close()
		svcLearn.Close()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
