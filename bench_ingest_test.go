package fpdyn

// The ingest benchmark harness for the collection path: accepted
// records/sec and per-record ACK latency (p50/p99 via internal/obs
// histograms) across the shard-count × wire-framing matrix, plus an
// emitter that writes BENCH_ingest.json so the ingest trajectory is
// tracked across PRs — the collection companion to BENCH_linkd.json.
//
// Every cell uses the same fsync policy (always — an ACK survives
// power loss), so the matrix isolates two levers: WAL sharding (fsync
// and mutex spread across N shards) and batched binary framing (one
// CRC-framed round trip and one group-commit fsync per touched shard
// per batch, instead of one newline-JSON round trip and one fsync per
// record).
//
//	BENCH_INGEST_OUT=BENCH_ingest.json go test -run TestEmitIngestBench .

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// ingestRecord builds a deterministic record sized like a real
// submission (~2 KB of JSON with list-valued dedup fields).
func ingestRecord(client, i int) *fingerprint.Record {
	fonts := make([]string, 24)
	for f := range fonts {
		fonts[f] = fmt.Sprintf("Bench Font Family %02d-%02d", i%8, f)
	}
	plugins := []string{"Chrome PDF Plugin", "Native Client", fmt.Sprintf("Widevine %d", i%4)}
	return &fingerprint.Record{
		Time:   time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		UserID: fmt.Sprintf("bench-u-%d-%d", client, i),
		Cookie: fmt.Sprintf("bench-ck-%d", client),
		FP: &fingerprint.Fingerprint{
			UserAgent:        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36",
			Accept:           "text/html,application/xhtml+xml",
			Encoding:         "gzip, deflate, br",
			Language:         "en-US,en;q=0.9",
			HeaderList:       []string{"Host", "User-Agent", "Accept", "Accept-Language"},
			Plugins:          plugins,
			CookieEnabled:    true,
			WebGL:            true,
			LocalStorage:     true,
			TimezoneOffset:   60,
			Languages:        []string{"en-US", "en"},
			Fonts:            fonts,
			CanvasHash:       fmt.Sprintf("canvas-%08x", i%16),
			GPUVendor:        "NVIDIA Corporation",
			GPURenderer:      "GeForce GTX 970",
			GPUType:          "ANGLE (Direct3D11)",
			CPUCores:         4,
			AudioInfo:        "channels:2;rate:44100",
			ScreenResolution: "1920x1080",
		},
	}
}

type ingestCell struct {
	Shards        int     `json:"shards"`
	Framing       string  `json:"framing"`
	BatchSize     int     `json:"batch_size"` // 1 for one-record newline-JSON batches
	Records       int     `json:"records"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	AckP50Ms      float64 `json:"ack_p50_ms"`
	AckP99Ms      float64 `json:"ack_p99_ms"`
}

type ingestReport struct {
	RecordsPerCell int                `json:"records_per_cell"`
	Clients        int                `json:"clients"`
	Fsync          string             `json:"fsync"`
	NumCPU         int                `json:"num_cpu"`
	Cells          []ingestCell       `json:"cells"`
	BinarySpeedup  map[string]float64 `json:"binary_speedup_by_shards"`
}

// runIngestCell drives `records` submissions from `clients` concurrent
// connections into a fresh sharded WAL and reports throughput and ACK
// latency quantiles. Binary cells negotiate framing and send
// 32-record batches; JSON cells skip the hello and send one-record
// batches over newline-JSON, one record per round trip.
func runIngestCell(t *testing.T, shards int, binary bool, records, clients int) ingestCell {
	t.Helper()
	const batchSize = 32
	ss, _, err := storage.RecoverSharded(storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{
			Dir:    t.TempDir(),
			Policy: storage.SyncAlways,
		},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.CloseWALs()

	srv := collector.NewServer(ss)
	srv.Logf = func(string, ...any) {}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()

	// Per-record ACK latency: a record's ACK arrives with its request's
	// reply, so each record in a batch observes the batch round trip.
	hist := obs.NewRegistry().Histogram("bench_ack_seconds", "per-record ack latency", nil)

	perClient := records / clients
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			cid := fmt.Sprintf("bench-c-%d", cl)
			c, err := collector.Dial(addr)
			if err != nil {
				errs[cl] = err
				return
			}
			defer c.Close()
			if binary {
				if _, err := c.Negotiate(); err != nil {
					errs[cl] = err
					return
				}
				for lo := 0; lo < perClient; lo += batchSize {
					hi := lo + batchSize
					if hi > perClient {
						hi = perClient
					}
					batch := make([]collector.BatchRecord, 0, hi-lo)
					for i := lo; i < hi; i++ {
						batch = append(batch, collector.BatchRecord{Rec: ingestRecord(cl, i), Seq: uint64(i + 1)})
					}
					t0 := time.Now()
					acks, err := c.SubmitBatch(batch, cid)
					rtt := time.Since(t0)
					if err != nil {
						errs[cl] = err
						return
					}
					for range acks {
						hist.ObserveDuration(rtt)
					}
				}
			} else {
				for i := 0; i < perClient; i++ {
					t0 := time.Now()
					_, err := c.SubmitBatch([]collector.BatchRecord{{Rec: ingestRecord(cl, i), Seq: uint64(i + 1)}}, cid)
					if err != nil {
						errs[cl] = err
						return
					}
					hist.ObserveDuration(time.Since(t0))
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for cl, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", cl, err)
		}
	}
	if got := ss.Len(); got != perClient*clients {
		t.Fatalf("accepted %d records, want %d", got, perClient*clients)
	}

	framing := collector.FramingJSON
	bs := 1
	if binary {
		framing = collector.FramingBinary
		bs = batchSize
	}
	snap := hist.Snapshot()
	return ingestCell{
		Shards:        shards,
		Framing:       framing,
		BatchSize:     bs,
		Records:       perClient * clients,
		Seconds:       elapsed.Seconds(),
		RecordsPerSec: float64(perClient*clients) / elapsed.Seconds(),
		AckP50Ms:      snap.P50 * 1e3,
		AckP99Ms:      snap.P99 * 1e3,
	}
}

// TestEmitIngestBench measures the ingest matrix (1/4/8 shards ×
// newline-JSON/batched-binary framing, equal fsync policy) and writes
// BENCH_ingest.json. Gated behind BENCH_INGEST_OUT so the regular
// test run stays fast; `make bench-ingest` sets it.
func TestEmitIngestBench(t *testing.T) {
	out := os.Getenv("BENCH_INGEST_OUT")
	if out == "" {
		t.Skip("set BENCH_INGEST_OUT=<path> to emit the ingest benchmark")
	}
	records := 6000
	if s := os.Getenv("BENCH_INGEST_RECORDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad BENCH_INGEST_RECORDS %q: %v", s, err)
		}
		records = n
	}
	const clients = 2

	rep := ingestReport{
		RecordsPerCell: records,
		Clients:        clients,
		Fsync:          "always",
		NumCPU:         runtime.NumCPU(),
		BinarySpeedup:  map[string]float64{},
	}
	for _, shards := range []int{1, 4, 8} {
		var jsonRPS float64
		for _, binary := range []bool{false, true} {
			cell := runIngestCell(t, shards, binary, records, clients)
			rep.Cells = append(rep.Cells, cell)
			t.Logf("shards=%d framing=%-6s %8.0f rec/s  ack p50=%.2fms p99=%.2fms",
				cell.Shards, cell.Framing, cell.RecordsPerSec, cell.AckP50Ms, cell.AckP99Ms)
			if binary {
				rep.BinarySpeedup[strconv.Itoa(shards)] = cell.RecordsPerSec / jsonRPS
			} else {
				jsonRPS = cell.RecordsPerSec
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: binary speedup by shards %v", out, rep.BinarySpeedup)
}
