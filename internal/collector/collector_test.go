package collector

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

func sampleRecord() *fingerprint.Record {
	return &fingerprint.Record{
		Time:   time.Date(2018, 2, 1, 12, 0, 0, 0, time.UTC),
		UserID: "u-1",
		Cookie: "ck-1",
		FP: &fingerprint.Fingerprint{
			UserAgent:        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/63.0.3239.132 Safari/537.36",
			Accept:           "text/html",
			Encoding:         "gzip, deflate, br",
			Language:         "en-US,en;q=0.9",
			HeaderList:       []string{"Host", "User-Agent", "Accept"},
			Plugins:          []string{"Chrome PDF Plugin", "Native Client"},
			CookieEnabled:    true,
			WebGL:            true,
			LocalStorage:     true,
			TimezoneOffset:   60,
			Languages:        []string{"en-US"},
			Fonts:            []string{"Arial", "Calibri", "Verdana", "Tahoma", "Georgia"},
			CanvasHash:       "aabbccdd",
			GPUVendor:        "NVIDIA Corporation",
			GPURenderer:      "GeForce GTX 970",
			GPUType:          "ANGLE (Direct3D11)",
			CPUCores:         4,
			CPUClass:         "x86",
			AudioInfo:        "channels:2;rate:44100",
			ScreenResolution: "1920x1080",
			ColorDepth:       24,
			PixelRatio:       "1",
			IPAddr:           "100.1.1.1",
			IPCity:           "Berlin",
			IPRegion:         "Berlin",
			IPCountry:        "Germany",
			ConsLanguage:     true, ConsResolution: true, ConsOS: true, ConsBrowser: true,
			GPUImageHash: "gg",
		},
		Browser: "Chrome", OS: "Windows",
	}
}

func TestCollectAssemblesAllGroups(t *testing.T) {
	rec := sampleRecord()
	fp, err := Collect(context.Background(), RecordBrowser{rec})
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Equal(rec.FP) {
		t.Fatal("collected fingerprint differs from source")
	}
}

type faultyBrowser struct {
	RecordBrowser
	failTask string
}

func (b faultyBrowser) OSFeatures() (OSFeatures, error) {
	if b.failTask == "os" {
		return OSFeatures{}, errors.New("font side channel blocked")
	}
	return b.RecordBrowser.OSFeatures()
}

func (b faultyBrowser) GPUImage() (string, error) {
	if b.failTask == "gpu" {
		return "", errors.New("webgl unavailable")
	}
	return b.RecordBrowser.GPUImage()
}

func TestCollectTaskFailure(t *testing.T) {
	_, err := Collect(context.Background(), faultyBrowser{RecordBrowser{sampleRecord()}, "os"})
	if err == nil {
		t.Fatal("expected task error")
	}
	_, err = Collect(context.Background(), faultyBrowser{RecordBrowser{sampleRecord()}, "gpu"})
	if err == nil {
		t.Fatal("expected gpu task error")
	}
}

func TestCollectContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, RecordBrowser{sampleRecord()}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestStripRestoreRoundTrip(t *testing.T) {
	rec := sampleRecord()
	wire, refs, blobs := StripRecord(rec)
	if wire.FP.Fonts != nil || wire.FP.Plugins != nil {
		t.Fatal("dedup fields not stripped")
	}
	if rec.FP.Fonts == nil {
		t.Fatal("StripRecord mutated the original")
	}
	if len(refs) != len(DedupFields) {
		t.Fatalf("refs = %v", refs)
	}
	restored, err := RestoreRecord(wire, refs, NewValueLists(func(h string) ([]byte, bool) {
		b, ok := blobs[h]
		return b, ok
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !restored.FP.Equal(rec.FP) {
		t.Fatal("restored record differs")
	}
}

// stripPinnedDigest pins the content addresses and blobs StripRecord
// produces. The hashes are durable: they key values in the WAL and in
// snapshots, so a change to the list encoding must not move them.
const stripPinnedDigest = "6d3d5272251136fd21025aaf769eb3733e6072be0ca4aa3904be4244cc4ed470"

// TestStripRecordPinned hashes the sorted refs and blobs of records
// covering a nil list, an empty non-nil list (both encode as null), a
// string JSON HTML-escapes (<, &, U+2028) and non-ASCII font names.
func TestStripRecordPinned(t *testing.T) {
	escaped := sampleRecord()
	escaped.FP.Fonts = nil
	escaped.FP.Plugins = []string{}
	escaped.FP.HeaderList = []string{"<script>", "a&b", "line\u2028sep", `q"uote`}
	escaped.FP.Languages = []string{"ja-JP", "zh-CN"}
	intl := sampleRecord()
	intl.FP.Fonts = []string{"ＭＳ ゴシック", "Microsoft YaHei 微软雅黑", "Ångström", "Arial"}
	intl.FP.HeaderList = []string{}
	intl.FP.Languages = nil

	h := sha256.New()
	for _, rec := range []*fingerprint.Record{sampleRecord(), escaped, intl} {
		_, refs, blobs := StripRecord(rec)
		fields := make([]string, 0, len(refs))
		for f := range refs {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			fmt.Fprintf(h, "ref %s %s\n", f, refs[f])
		}
		hashes := make([]string, 0, len(blobs))
		for b := range blobs {
			hashes = append(hashes, b)
		}
		sort.Strings(hashes)
		for _, b := range hashes {
			fmt.Fprintf(h, "blob %s %d\n", b, len(blobs[b]))
			h.Write(blobs[b])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != stripPinnedDigest {
		t.Fatalf("StripRecord digest = %s, want %s", got, stripPinnedDigest)
	}
}

func TestRestoreMissingValue(t *testing.T) {
	wire, refs, _ := StripRecord(sampleRecord())
	_, err := RestoreRecord(wire, refs, NewValueLists(func(string) ([]byte, bool) { return nil, false }))
	if err == nil {
		t.Fatal("expected missing-value error")
	}
}

// submitOne sends rec as a one-record batch under (clientID, seq) and
// returns its ack, or the error the server stopped at.
func submitOne(c *Client, rec *fingerprint.Record, clientID string, seq uint64) (idx int, dup bool, err error) {
	acks, err := c.SubmitBatch([]BatchRecord{{Rec: rec, Seq: seq}}, clientID)
	if err != nil {
		return 0, false, err
	}
	if len(acks) != 1 || acks[0].Error != "" {
		return 0, false, fmt.Errorf("collector: one-record batch acks = %+v", acks)
	}
	return acks[0].Index, acks[0].Dup, nil
}

// startServer spins up a TCP server on an ephemeral port; it is torn
// down at test end.
func startServer(t *testing.T) (*Server, *storage.ShardedStore, string) {
	t.Helper()
	store := storage.NewShardedStore(1)
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
	})
	return srv, store, lis.Addr().String()
}

func TestEndToEndSubmit(t *testing.T) {
	srv, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	idx, err := c.Submit(rec)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 || store.Len() != 1 {
		t.Fatalf("idx=%d len=%d", idx, store.Len())
	}
	got := store.Records()[0]
	if !got.FP.Equal(rec.FP) {
		t.Fatal("stored record differs from submitted")
	}
	if got.UserID != rec.UserID || got.Cookie != rec.Cookie {
		t.Fatal("metadata lost")
	}
	if s := srv.Stats(); s.RecordsAccepted != 1 || s.ValuesReceived == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDedupSavesTransfer(t *testing.T) {
	srv, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rec := sampleRecord()
	if _, err := c.Submit(rec); err != nil {
		t.Fatal(err)
	}
	afterFirst := c.BytesSent()
	// Second submission of the same feature values: every blob dedups.
	rec2 := sampleRecord()
	rec2.Cookie = "ck-2"
	if _, err := c.Submit(rec2); err != nil {
		t.Fatal(err)
	}
	secondCost := c.BytesSent() - afterFirst
	if secondCost >= afterFirst {
		t.Errorf("dedup saved nothing: first=%dB second=%dB", afterFirst, secondCost)
	}
	if s := srv.Stats(); s.ValuesDeduped == 0 {
		t.Fatalf("no values deduped: %+v", s)
	}
}

func TestJSONBatchOfOneIdempotent(t *testing.T) {
	// One-record batches over newline-JSON: a fresh (cid, seq) ACKs with
	// its index, a resend of the latest seq is a dup with the same index,
	// and an older seq is a dup with index -1.
	srv, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	submit := func(seq uint64, cookie string) Ack {
		t.Helper()
		rec := sampleRecord()
		rec.Cookie = cookie
		wire, refs, blobs := StripRecord(rec)
		resp, err := c.roundTrip(&Request{Type: TypeBatch, ClientID: "legacy",
			Batch: []BatchItem{{Record: wire, Refs: refs, Values: blobs, Seq: seq}}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != TypeOK || len(resp.Acks) != 1 || resp.Acks[0].Error != "" {
			t.Fatalf("seq %d: reply %+v", seq, resp)
		}
		return resp.Acks[0]
	}
	for _, step := range []struct {
		seq   uint64
		index int
		dup   bool
	}{
		{1, 0, false},
		{2, 1, false},
		{2, 1, true},
		{1, -1, true},
	} {
		a := submit(step.seq, "ck-"+string(rune('0'+step.seq)))
		if a.Index != step.index || a.Dup != step.dup {
			t.Fatalf("seq %d: index=%d dup=%v, want index=%d dup=%v", step.seq, a.Index, a.Dup, step.index, step.dup)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d, want 2", store.Len())
	}
	if s, duped := srv.Stats(), srv.metrics.recordsDuped.Value(); s.RecordsAccepted != 2 || duped != 2 {
		t.Fatalf("stats = %+v, duped = %d", s, duped)
	}
}

func TestServerRejectsBadSubmit(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.roundTrip(&Request{Type: TypeBatch, Batch: []BatchItem{{}}})
	if err != nil || len(resp.Acks) != 1 || resp.Acks[0].Error == "" {
		t.Fatalf("batch item without a record answered %+v, %v; want one error ack", resp, err)
	}
	if _, err := c.roundTrip(&Request{Type: "bogus"}); err == nil {
		t.Fatal("expected error for unknown type")
	}
	// The connection must still work afterwards.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, store, addr := startServer(t)
	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				rec := sampleRecord()
				rec.UserID = "u" + string(rune('a'+i))
				if _, err := c.Submit(rec); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if store.Len() != clients*perClient {
		t.Fatalf("stored %d records, want %d", store.Len(), clients*perClient)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformIngestSimulatedWorld drives the full pipeline: simulate a
// small world, push every record through collect+submit, and verify the
// server-side dataset equals the generated one.
func TestPlatformIngestSimulatedWorld(t *testing.T) {
	ds := population.Simulate(population.DefaultConfig(40))
	_, store, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, rec := range ds.Records {
		fp, err := Collect(context.Background(), RecordBrowser{rec})
		if err != nil {
			t.Fatal(err)
		}
		full := *rec
		full.FP = fp
		if _, err := c.Submit(&full); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != len(ds.Records) {
		t.Fatalf("stored %d of %d records", store.Len(), len(ds.Records))
	}
	// The store lists records in canonical order: users sorted, each
	// user's records in arrival order.
	want := append([]*fingerprint.Record(nil), ds.Records...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].UserID < want[j].UserID })
	for i, got := range store.Records() {
		if !got.FP.Equal(want[i].FP) {
			t.Fatalf("record %d corrupted in transit", i)
		}
	}
}

func BenchmarkSubmitDedup(b *testing.B) {
	store := storage.NewShardedStore(1)
	srv := NewServer(store)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rec := sampleRecord()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Submit(rec); err != nil {
			b.Fatal(err)
		}
	}
}
