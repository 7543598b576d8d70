package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/storage"
)

// Chaos tests: kill the server mid-stream (Close tears connections
// down without responses, the in-process SIGKILL equivalent — with
// fsync=Always every ACKed record hit stable storage first), restart
// via RecoverSharded, and assert the crash-safety contract: zero ACKed-record
// loss, no double appends, and recovered indexes byte-identical to an
// uninterrupted run over the same records.

// chaosRecord builds a record whose UserID encodes its identity so
// post-recovery presence and duplicate checks are exact.
func chaosRecord(cid string, seq uint64) *fingerprint.Record {
	rec := sampleRecord()
	rec.UserID = fmt.Sprintf("u-%s-%d", cid, seq)
	rec.Cookie = fmt.Sprintf("ck-%s", cid)
	return rec
}

// storeDigest serializes records plus the byUser index shape and the
// records grouped by cookie for byte-identical comparison across
// recoveries.
func storeDigest(t *testing.T, s *storage.ShardedStore) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	recs := s.Records()
	if err := enc.Encode(recs); err != nil {
		t.Fatal(err)
	}
	users := make(map[string]bool)
	cookies := make(map[string]bool)
	for _, r := range recs {
		users[r.UserID] = true
		if r.Cookie != "" {
			cookies[r.Cookie] = true
		}
	}
	encodeIndex := func(m map[string]bool, lookup func(string) []*fingerprint.Record) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hits := lookup(k)
			uids := make([]string, len(hits))
			for i, r := range hits {
				uids[i] = r.UserID
			}
			if err := enc.Encode([]any{k, uids}); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeIndex(users, s.ByUser)
	encodeIndex(cookies, func(cookie string) []*fingerprint.Record {
		var hits []*fingerprint.Record
		for _, r := range recs {
			if r.Cookie == cookie {
				hits = append(hits, r)
			}
		}
		return hits
	})
	return buf.String()
}

// recoverStore recovers the one-shard store under dir, as fpserver
// -shards 1 does.
func recoverStore(t *testing.T, dir string) *storage.ShardedStore {
	t.Helper()
	st, _, err := storage.RecoverSharded(storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{Dir: dir, Policy: storage.SyncAlways},
		Shards:     1,
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return st
}

// TestChaosKillRecoverNoAcceptedLoss is the acceptance scenario:
// several rounds of concurrent clients streaming submissions into a
// WAL-backed server that is killed abruptly mid-stream, recovered, and
// restarted. Every ACKed record must be present after every recovery,
// exactly once, and re-recovering the same log must be byte-identical.
func TestChaosKillRecoverNoAcceptedLoss(t *testing.T) {
	dir := t.TempDir()
	const rounds = 3
	const workers = 4

	acked := make(map[string]bool) // UserID → ACK observed by a client
	var ackedMu sync.Mutex
	seqs := make([]uint64, workers) // per-client monotonic sequence

	for round := 0; round < rounds; round++ {
		st := recoverStore(t, dir)

		// Invariant on entry: everything ACKed in earlier rounds is here.
		ackedMu.Lock()
		for uid := range acked {
			if len(st.ByUser(uid)) != 1 {
				t.Fatalf("round %d: ACKed record %s has %d copies after recovery", round, uid, len(st.ByUser(uid)))
			}
		}
		ackedMu.Unlock()

		srv := NewServer(st)
		srv.Logf = func(string, ...any) {} // connection teardown noise is expected
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() { srv.Serve(lis); close(serveDone) }()
		addr := lis.Addr().String()

		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				cid := fmt.Sprintf("c%d", wkr)
				c, err := Dial(addr)
				if err != nil {
					return // server already gone
				}
				defer c.Close()
				for i := 0; i < 50; i++ {
					seq := seqs[wkr] + 1
					rec := chaosRecord(cid, seq)
					if _, _, err := submitOne(c, rec, cid, seq); err != nil {
						return // killed mid-stream: this record was never ACKed
					}
					seqs[wkr] = seq
					ackedMu.Lock()
					acked[rec.UserID] = true
					ackedMu.Unlock()
				}
			}(wkr)
		}
		// Kill mid-stream: abrupt teardown, no drain, no responses for
		// in-flight requests.
		time.Sleep(time.Duration(5+round*7) * time.Millisecond)
		srv.Close()
		wg.Wait()
		<-serveDone
		st.CloseWALs()
	}

	if len(acked) == 0 {
		t.Fatal("chaos produced no ACKed records; timings too tight")
	}

	// Final recovery: zero ACKed loss, no duplicates.
	st := recoverStore(t, dir)
	defer st.CloseWALs()
	for uid := range acked {
		if n := len(st.ByUser(uid)); n != 1 {
			t.Fatalf("ACKed record %s present %d times after final recovery", uid, n)
		}
	}

	// Byte-identical recovery: replaying the same WAL twice yields the
	// same records and indexes, and they match an uninterrupted
	// in-memory run over the same record stream.
	st2 := recoverStore(t, dir)
	defer st2.CloseWALs()
	if storeDigest(t, st) != storeDigest(t, st2) {
		t.Fatal("two recoveries of the same WAL differ")
	}
	uninterrupted := storage.NewShardedStore(1)
	for _, rec := range st.Records() {
		uninterrupted.Append(rec)
	}
	if storeDigest(t, st) != storeDigest(t, uninterrupted) {
		t.Fatal("recovered indexes differ from an uninterrupted run")
	}
}

// TestChaosResilientClientAcrossRestarts drives the client half of the
// §2.2 outage story against real crashes: a ResilientClient keeps
// submitting while the server is repeatedly killed and recovered on
// the same address. Sequence IDs make its retransmissions exact, so
// after the final flush every record is delivered exactly once.
func TestChaosResilientClientAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	r := NewResilientClient(addr)
	r.MaxRetries = 2
	r.Backoff = time.Millisecond
	defer r.Close()

	const total = 40
	const rounds = 4
	submitted := 0
	for round := 0; round < rounds; round++ {
		st := recoverStore(t, dir)
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			t.Skipf("could not rebind %s: %v", addr, err)
		}
		srv := NewServer(st)
		srv.Logf = func(string, ...any) {}
		go srv.Serve(lis)

		for i := 0; i < total/rounds; i++ {
			rec := sampleRecord()
			rec.UserID = fmt.Sprintf("ru-%d", submitted)
			submitted++
			r.Submit(rec) // errors just leave it buffered
			if i == total/rounds/2 {
				srv.Close() // kill mid-round; later submits buffer
			}
		}
		srv.Close()
		st.CloseWALs()
	}

	// Final, healthy server: drain the backlog.
	st := recoverStore(t, dir)
	defer st.CloseWALs()
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv := NewServer(st)
	srv.Logf = t.Logf
	go srv.Serve(lis2)
	defer srv.Close()
	if err := r.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}

	// Exactly-once delivery: every submitted record present once, and
	// the totals reconcile (sent - retransmits + dropped == submitted).
	for i := 0; i < submitted; i++ {
		uid := fmt.Sprintf("ru-%d", i)
		if n := len(st.ByUser(uid)); n != 1 {
			t.Fatalf("record %s delivered %d times", uid, n)
		}
	}
	stats := r.Stats()
	if stats.Dropped != 0 {
		t.Fatalf("buffer evicted %d records with limit %d", stats.Dropped, r.BufferLimit)
	}
	if got := stats.Sent - stats.Retransmits; got != int64(submitted) {
		t.Fatalf("sent-retransmits = %d, want %d (stats %+v)", got, submitted, stats)
	}
}

// TestSeqIdempotentAcrossRecovery pins the deterministic core of the
// chaos property: a resubmitted (clientID, seq) is deduped both on a
// live server and after a crash + recovery rebuilt the table from WAL.
func TestSeqIdempotentAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	st := recoverStore(t, dir)
	srv := NewServer(st)
	srv.Logf = t.Logf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rec := chaosRecord("idem", 1)
	idx, dup, err := submitOne(c, rec, "idem", 1)
	if err != nil || dup || idx != 0 {
		t.Fatalf("first: idx=%d dup=%v err=%v", idx, dup, err)
	}
	// Live retransmission: same sequence ID, no double append.
	idx2, dup2, err := submitOne(c, rec, "idem", 1)
	if err != nil || !dup2 || idx2 != 0 {
		t.Fatalf("retransmit: idx=%d dup=%v err=%v", idx2, dup2, err)
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d", st.Len())
	}
	if s, duped := srv.Stats(), srv.metrics.recordsDuped.Value(); s.RecordsAccepted != 1 || duped != 1 {
		t.Fatalf("stats = %+v, duped = %d", s, duped)
	}
	c.Close()
	srv.Close()
	st.CloseWALs()

	// Crash + restart: the idempotency table is rebuilt from the WAL.
	st2 := recoverStore(t, dir)
	defer st2.CloseWALs()
	srv2 := NewServer(st2)
	srv2.Logf = t.Logf
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(lis2)
	defer srv2.Close()
	c2, err := Dial(lis2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, dup, err := submitOne(c2, rec, "idem", 1); err != nil || !dup {
		t.Fatalf("post-recovery retransmit: dup=%v err=%v", dup, err)
	}
	if st2.Len() != 1 {
		t.Fatalf("post-recovery len = %d", st2.Len())
	}
}

// TestChaosTornConnectionMidFrame uses fault injection to tear the
// client connection partway through a submit frame: the server must
// not store a half record, and the retransmission over a fresh
// connection must land exactly once.
func TestChaosTornConnectionMidFrame(t *testing.T) {
	dir := t.TempDir()
	st := recoverStore(t, dir)
	defer st.CloseWALs()
	srv := NewServer(st)
	srv.Logf = func(string, ...any) {}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	// Allow the ping and the check round trip through, then tear the
	// conn 100 bytes into the submit frame.
	raw, err := net.DialTimeout("tcp", lis.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fc := &faultinject.Conn{
		Conn:        raw,
		WriteScript: &faultinject.Script{FailAfter: 600},
		CloseOnTrip: true,
	}
	c := NewClient(fc)
	rec := chaosRecord("torn", 1)
	_, _, err = submitOne(c, rec, "torn", 1)
	if err == nil {
		t.Fatal("submit succeeded over a torn connection")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Logf("torn submit failed with: %v", err) // transport error also acceptable
	}
	c.Close()

	// Give the server a beat to process the torn frame, then verify no
	// partial record landed.
	time.Sleep(20 * time.Millisecond)
	if st.Len() != 0 {
		t.Fatalf("half record stored: len=%d", st.Len())
	}

	// Retransmit over a healthy connection with the same sequence ID.
	c2, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, dup, err := submitOne(c2, rec, "torn", 1); err != nil || dup {
		t.Fatalf("retransmit: dup=%v err=%v", dup, err)
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d", st.Len())
	}
}

// TestServerDisconnectsStalledWriter covers the slow-client guard: a
// client that stops reading responses cannot pin a handler past its
// write deadline.
func TestServerStalledClientDisconnected(t *testing.T) {
	st := storage.NewShardedStore(1)
	srv := NewServer(st)
	srv.Logf = func(string, ...any) {}
	srv.ReadTimeout = 100 * time.Millisecond
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	// Connect and go silent: the read deadline must reap the handler.
	conn, err := net.DialTimeout("tcp", lis.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected server to close the idle connection")
	}
}

// TestServerRejectsOversizedFrame covers the inbound-blob guard: a
// request line beyond MaxFrame is refused and the connection closed
// before the payload is buffered in full.
func TestServerRejectsOversizedFrame(t *testing.T) {
	st := storage.NewShardedStore(1)
	srv := NewServer(st)
	srv.Logf = func(string, ...any) {}
	srv.MaxFrame = 4 << 10
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := sampleRecord()
	huge := make([]string, 2000)
	for i := range huge {
		huge[i] = fmt.Sprintf("Font Family %04d With A Long Name", i)
	}
	rec.FP.Fonts = huge
	if _, err := c.Submit(rec); err == nil {
		t.Fatal("oversized submit accepted")
	}
	// The server itself is still healthy for well-behaved clients.
	c2, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Submit(sampleRecord()); err != nil {
		t.Fatalf("server wedged after oversized frame: %v", err)
	}
}
