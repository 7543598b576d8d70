package collector

// End-to-end observability tests: a live fpserver-shaped stack (WAL →
// store → collector server → obs admin handler) scraped over HTTP.
// This is the acceptance path for the admin endpoint: /metrics must
// agree with Server.Stats(), recovery metrics must surface, and a
// poisoned WAL must flip /healthz to 503.

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// startWALServer assembles the production stack over a temp WAL dir,
// exactly as cmd/fpserver -shards 1 wires it, and returns the pieces
// plus the admin httptest server. The WAL metrics carry the shard
// label, shard="00".
func startWALServer(t *testing.T, opts storage.WALOptions) (*Server, *storage.ShardedStore, string, *httptest.Server) {
	t.Helper()
	opts.Registry = obs.NewRegistry()
	store, _, err := storage.RecoverSharded(storage.ShardedWALOptions{WALOptions: opts, Shards: 1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	srv := NewServer(store)
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		store.CloseWALs()
	})

	health := func() obs.HealthStatus {
		st := obs.HealthStatus{Healthy: true}
		if srv.Draining() {
			st.Draining = true
		}
		if werr := store.WALError(); werr != nil {
			st.Healthy = false
			st.WALError = werr.Error()
		}
		return st
	}
	admin := httptest.NewServer(obs.NewAdminHandler(health, srv.Metrics(), opts.Registry, obs.NewRuntimeRegistry()))
	t.Cleanup(admin.Close)
	return srv, store, lis.Addr().String(), admin
}

func scrape(t *testing.T, admin *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := admin.Client().Get(admin.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminScrapeMatchesServerStats submits traffic, scrapes /metrics
// and /varz, and cross-checks every exported counter against the
// server's Stats() snapshot and the WAL's append activity.
func TestAdminScrapeMatchesServerStats(t *testing.T) {
	dir := t.TempDir()
	srv, _, addr, admin := startWALServer(t, storage.WALOptions{Dir: dir, Policy: storage.SyncAlways})

	r := fastResilient(addr)
	defer r.Close()
	for i := 0; i < 4; i++ {
		rec := sampleRecord()
		rec.UserID = string(rune('a' + i))
		if err := r.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}

	code, body := scrape(t, admin, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	stats := srv.Stats()
	for _, want := range []string{
		"collector_records_accepted_total 4",
		// The resilient client negotiates binary framing and delivers
		// each flush as a batch request.
		`collector_requests_total{verb="batch"} 4`,
		`collector_requests_total{verb="hello"} 1`,
		"collector_request_seconds_count",
		"wal_appends_total",
		"wal_fsync_seconds_count",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if stats.RecordsAccepted != 4 {
		t.Errorf("Stats().RecordsAccepted = %d, want 4", stats.RecordsAccepted)
	}

	code, body = scrape(t, admin, "/varz")
	if code != http.StatusOK {
		t.Fatalf("/varz status = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/varz not JSON: %v", err)
	}
	if got := snap.Counters["collector_records_accepted_total"]; got != stats.RecordsAccepted {
		t.Errorf("varz records_accepted = %d, Stats() = %d", got, stats.RecordsAccepted)
	}
	if got := snap.Counters["collector_bytes_received_total"]; got != stats.BytesReceived {
		t.Errorf("varz bytes_received = %d, Stats() = %d", got, stats.BytesReceived)
	}
	// Request latencies were observed for every round trip (4 submits
	// plus their checks and the dial ping).
	lat := snap.Histograms["collector_request_seconds"]
	if lat.Count < 8 {
		t.Errorf("request latency count = %d, want ≥ 8", lat.Count)
	}
	// Each durable submit fsynced at least once (policy always): the
	// WAL histograms carry real observations.
	if fs := snap.Histograms[`wal_fsync_seconds{shard="00"}`]; fs.Count < 4 {
		t.Errorf("wal fsync count = %d, want ≥ 4", fs.Count)
	}

	code, body = scrape(t, admin, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d (%s), want 200", code, body)
	}
}

// TestAdminRecoveryMetrics restarts the stack over an existing WAL dir
// and checks the replay counters surface on the new instance's scrape.
func TestAdminRecoveryMetrics(t *testing.T) {
	dir := t.TempDir()
	{
		srv, _, addr, _ := startWALServer(t, storage.WALOptions{Dir: dir, Policy: storage.SyncAlways})
		r := fastResilient(addr)
		for i := 0; i < 3; i++ {
			rec := sampleRecord()
			rec.UserID = string(rune('a' + i))
			if err := r.Submit(rec); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
		srv.Close() // SIGKILL-equivalent: tear down without a drain
	}

	_, _, _, admin := startWALServer(t, storage.WALOptions{Dir: dir, Policy: storage.SyncAlways})
	_, body := scrape(t, admin, "/metrics")
	if !strings.Contains(body, `wal_recovered_records{shard="00"} 3`) {
		t.Errorf("scrape after restart missing wal_recovered_records{shard=\"00\"} 3:\n%s",
			grepLines(body, "wal_recovered"))
	}
	if !strings.Contains(body, `wal_recovered_segments{shard="00"} 1`) {
		t.Errorf("scrape missing wal_recovered_segments{shard=\"00\"} 1:\n%s", grepLines(body, "wal_recovered"))
	}
}

// TestAdminHealthzPoisonedWAL injects an fsync fault so the WAL
// poisons itself mid-traffic, then checks the unhealthy surface: 503
// from /healthz with the sticky error in the body, wal_sticky_error=1
// on /metrics, and the submit refused.
func TestAdminHealthzPoisonedWAL(t *testing.T) {
	dir := t.TempDir()
	opts := storage.WALOptions{
		Dir:    dir,
		Policy: storage.SyncAlways,
		OpenFile: func(path string) (storage.SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			// Values and the record of the first submit survive; a later
			// fsync trips and poisons the log.
			return &faultinject.File{F: f, FailSyncAt: 6}, nil
		},
	}
	_, store, addr, admin := startWALServer(t, opts)

	if code, _ := scrape(t, admin, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy before fault: status = %d", code)
	}

	r := fastResilient(addr)
	defer r.Close()
	var sawError bool
	for i := 0; i < 8; i++ {
		rec := sampleRecord()
		rec.UserID = string(rune('a' + i))
		if err := r.Submit(rec); err != nil {
			sawError = true
			break
		}
	}
	if !sawError || store.WALError() == nil {
		t.Fatalf("fsync fault did not poison the WAL (err=%v)", store.WALError())
	}

	code, body := scrape(t, admin, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after poison = %d, want 503 (%s)", code, body)
	}
	var st obs.HealthStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Healthy || st.WALError == "" {
		t.Fatalf("health status = %+v, want unhealthy with WAL error", st)
	}

	_, metrics := scrape(t, admin, "/metrics")
	if !strings.Contains(metrics, `wal_sticky_error{shard="00"} 1`) {
		t.Errorf("metrics missing wal_sticky_error 1:\n%s", grepLines(metrics, "wal_sticky"))
	}
}

// grepLines filters body to lines containing needle, for terse failure
// output.
func grepLines(body, needle string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
