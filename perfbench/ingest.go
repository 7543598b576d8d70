package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/storage"
)

// The ingest workload: a closed loop of two connections replays a
// simulated population into collector.Server over loopback, in
// 32-record binary-framed SubmitBatch calls, onto a 4-shard
// storage.ShardedStore whose WAL writes every group commit but leaves
// syncing to the OS (fsync=never): an fsync's cost is the host disk's,
// and on a shared disk it moves by more than the benchmark's bounds
// from one run to the next. A phase is a
// sequence of rounds; each round replays the whole population into a
// fresh store (so memory stays bounded by one population), and only
// the time inside rounds is measured.
const (
	ingestUsers  = 2000
	ingestConns  = 2
	ingestBatch  = 32
	ingestShards = 4
)

type ingestInput struct {
	lanes       [ingestConns][]*fingerprint.Record
	allocPerRec float64
	fullDigest  string // WriteTo digest of a store holding every record
}

func (in *ingestInput) records() int {
	n := 0
	for _, l := range in.lanes {
		n += len(l)
	}
	return n
}

func laneOf(key string, lanes int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(lanes))
}

func openShardedStore(dir string) (*storage.ShardedStore, error) {
	ss, _, err := storage.RecoverSharded(storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{Dir: dir, Policy: storage.SyncNever},
		Shards:     ingestShards,
	})
	return ss, err
}

// ingestPhase accumulates one measured stretch.
type ingestPhase struct {
	batches opLog
	acked   int
	elapsed time.Duration // inside rounds only
	mem     memDelta
	rounds  []float64 // acked records per second, per complete round

	// Traced only.
	appendMs samples // twin AppendBatchDurable per batch
	residual samples // RTT − encode − decode − append per batch
	enc, dec time.Duration
	walBytes int64
}

// newValues returns the blobs of batch that store does not hold yet,
// first occurrence first: what the client's hash check makes it send.
func newValues(store *storage.ShardedStore, batch []collector.BatchRecord) (hashes []string, blobs map[string][]byte) {
	blobs = map[string][]byte{}
	for _, b := range batch {
		_, _, bl := collector.StripRecord(b.Rec)
		for h, v := range bl {
			if _, seen := blobs[h]; !seen && !store.HasValue(h) {
				blobs[h] = v
				hashes = append(hashes, h)
			}
		}
	}
	return hashes, blobs
}

// ingestRound is one replay into a fresh store.
type ingestRound struct {
	acked [ingestConns][]*fingerprint.Record
	store *storage.ShardedStore
}

func (r *ingestRound) ackedRecords() int {
	n := 0
	for _, a := range r.acked {
		n += len(a)
	}
	return n
}

func runIngest(e *env) (*outcome, error) {
	o := newOutcome()
	o.params["users"] = ingestUsers
	o.params["connections"] = ingestConns
	o.params["batch"] = ingestBatch
	o.params["shards"] = ingestShards
	o.params["fsync"] = "never"
	o.params["framing"] = collector.FramingBinary

	setup, in, err := medianSetup(3, func() (*ingestInput, error) {
		ds, alloc := simulate(ingestUsers, e.seed)
		in := &ingestInput{allocPerRec: alloc}
		for _, r := range ds.Records {
			l := laneOf(r.UserID, ingestConns)
			in.lanes[l] = append(in.lanes[l], r)
		}
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.params["population_records"] = in.records()
	if in.fullDigest, err = storeDigest(expectedStore(in.lanes)); err != nil {
		return nil, err
	}

	// One unmeasured round first, so connections, caches and the file
	// system are warm when timing starts.
	warm := &ingestPhase{}
	r, err := ingestRun(in, warm, filepath.Join(e.work, "ingest-warm"), time.Now().Add(time.Minute), nil)
	if err != nil {
		return nil, err
	}
	checkIngest(o, in, r, true)
	r.store.CloseWALs()
	os.RemoveAll(filepath.Join(e.work, "ingest-warm"))
	o.attempted += warm.batches.attempted
	o.failed += warm.batches.failed

	var phases []*ingestPhase
	round := 0
	for i, d := range e.phases() {
		if e.trace && i == 1 {
			o.tr = newTracer()
		}
		ph := &ingestPhase{}
		runtime.GC() // every phase starts from a settled heap
		m0 := memSample()
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			dir := filepath.Join(e.work, fmt.Sprintf("ingest-%d", round))
			r, err := ingestRun(in, ph, dir, deadline, o.tr)
			if err != nil {
				return nil, err
			}
			checkIngest(o, in, r, false)
			// The round's files go as soon as it is checked: at
			// fsync=never their pages are still dirty then, so they
			// never reach the disk, and no write-back of earlier
			// rounds competes with later ones or with the next run.
			r.store.CloseWALs()
			os.RemoveAll(dir)
			round++
		}
		ph.mem = memSince(m0)
		o.attempted += ph.batches.attempted
		o.failed += ph.batches.failed
		o.check(ph.batches.failed == 0, "ingest: %d of %d batches failed", ph.batches.failed, ph.batches.attempted)
		phases = append(phases, ph)
	}
	o.params["rounds"] = round
	o.params["round_records_per_s"] = phases[0].rounds

	base := phases[0]
	// Throughput is the median over complete rounds, so a burst of
	// contention from the host's other tenants moves a few rounds and
	// not the result; a run too short to complete a round falls back
	// to the whole phase.
	o.e2e["records_per_s"] = float64(base.acked) / base.elapsed.Seconds()
	if len(base.rounds) > 0 {
		o.e2e["records_per_s"] = medianOf(base.rounds)
	}
	o.pctMetric(o.e2e, "latency_p50_ms", base.batches.latency.report(0.50, limitMs(e)))
	o.samples["latency_p99_ms"] = base.batches.latency.reportTail(0.99, limitMs(e))
	// Every ingest operation is a write: the add latency is the batch
	// ACK round trip itself.
	o.e2e["add_latency_p50_ms"] = o.e2e["latency_p50_ms"]

	if e.trace {
		tp := phases[1]
		n := float64(tp.acked)
		o.layer["fingerprint.encode_us"] = float64(tp.enc.Microseconds()) / n
		o.layer["fingerprint.decode_us"] = float64(tp.dec.Microseconds()) / n
		o.layer["collector.residual_ms"] = tp.residual.median()
		o.pctMetric(o.layer, "storage.append_batch_p50_ms", tp.appendMs.report(0.50, limitMs(e)))
		o.pctMetric(o.layer, "storage.append_batch_p99_ms", tp.appendMs.reportTail(0.99, limitMs(e)))
		o.layer["storage.wal_bytes_per_record"] = float64(tp.walBytes) / n
		o.layer["population.alloc_bytes_per_record"] = in.allocPerRec
		runtimeLayer(o, tp.mem, tp.acked)
		// A closed loop sends each batch as soon as the previous one is
		// acknowledged, so nothing is ever late.
		o.layer["loadgen.late_p99_ms"] = 0
		lg := computeLedger(o.tr.snapshot())
		o.ledger = &lg
		o.layer["trace.coverage"] = lg.coverage()
		// Overhead: time per acked record, traced over untraced.
		o.layer["trace.overhead_ratio"] = (tp.elapsed.Seconds() / n) /
			(base.elapsed.Seconds() / float64(base.acked))
		fillZero(o.layer)
	}
	return o, nil
}

// ingestRun replays the population once into a fresh store under dir,
// stopping early at deadline, and adds what it measured to ph.
func ingestRun(in *ingestInput, ph *ingestPhase, dir string, deadline time.Time, tr *tracer) (*ingestRound, error) {
	ss, err := openShardedStore(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	var twin *storage.ShardedStore
	if tr != nil {
		if twin, err = openShardedStore(filepath.Join(dir, "twin")); err != nil {
			return nil, err
		}
		defer twin.CloseWALs()
	}
	srv := collector.NewServer(ss)
	srv.Logf = func(string, ...any) {}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(lis)
	defer srv.Close()

	clients := make([]*collector.Client, ingestConns)
	for l := range clients {
		c, err := collector.Dial(lis.Addr().String())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if f, err := c.Negotiate(); err != nil || f != collector.FramingBinary {
			return nil, fmt.Errorf("negotiate: framing %q, %v", f, err)
		}
		clients[l] = c
	}

	r := &ingestRound{store: ss}
	var mu sync.Mutex // guards ph
	var wg sync.WaitGroup
	errs := make([]error, ingestConns)
	start := time.Now()
	for l := range clients {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cid := fmt.Sprintf("perfbench-%d", l)
			recs := in.lanes[l]
			for lo := 0; lo < len(recs) && time.Now().Before(deadline); lo += ingestBatch {
				hi := min(lo+ingestBatch, len(recs))
				batch := make([]collector.BatchRecord, 0, hi-lo)
				for k := lo; k < hi; k++ {
					batch = append(batch, collector.BatchRecord{Rec: recs[k], Seq: uint64(k + 1)})
				}
				t0 := time.Now()
				acks, err := clients[l].SubmitBatch(batch, cid)
				t1 := time.Now()
				ok := err == nil && len(acks) == len(batch)
				for _, a := range acks {
					ok = ok && a.Error == "" && !a.Dup && a.Index >= 0
				}
				ph.batches.observe(t0, t0, t1, !ok)
				if !ok {
					return // the lane's sequence state is unknown past a failure
				}
				r.acked[l] = append(r.acked[l], recs[lo:hi]...)
				if tr == nil {
					continue
				}
				enc, dec, app, err := ingestTwin(twin, batch, cid)
				if err != nil {
					errs[l] = err
					return
				}
				req := tr.add(0, 0, "request.batch", t0, t1)
				call := tr.add(req, req, "collector.SubmitBatch", t0, t1)
				cur := t0
				tr.derive(req, call, "fingerprint.encode", &cur, enc)
				tr.derive(req, call, "fingerprint.decode", &cur, dec)
				tr.derive(req, call, "storage.AppendBatchDurable", &cur, app)
				mu.Lock()
				ph.enc += enc
				ph.dec += dec
				ph.appendMs.add(app)
				ph.residual.add(t1.Sub(t0) - enc - dec - app)
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	ph.elapsed += time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ph.acked += r.ackedRecords()
	if r.ackedRecords() == in.records() {
		ph.rounds = append(ph.rounds, float64(in.records())/time.Since(start).Seconds())
	}
	ph.walBytes += dirSize(filepath.Join(dir, "wal"))
	return r, nil
}

// ingestTwin repeats a batch's server-side work on the benchmark's side
// of the wire: the JSON codec of the batch request (client encode,
// server decode), and on a twin store with the same shard count and
// fsync policy the durable puts of the list values new to it plus the
// group commit of the records.
func ingestTwin(twin *storage.ShardedStore, batch []collector.BatchRecord, cid string) (enc, dec, app time.Duration, err error) {
	hashes, blobs := newValues(twin, batch)
	items := make([]collector.BatchItem, len(batch))
	appends := make([]storage.BatchAppend, len(batch))
	for i, b := range batch {
		wire, refs, _ := collector.StripRecord(b.Rec)
		items[i] = collector.BatchItem{Record: wire, Refs: refs, Seq: b.Seq}
		appends[i] = storage.BatchAppend{Record: b.Rec, Seq: b.Seq}
	}
	t0 := time.Now()
	payload, err := json.Marshal(&collector.Request{Type: collector.TypeBatch, Batch: items, ClientID: cid})
	t1 := time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	var req collector.Request
	err = json.Unmarshal(payload, &req)
	t2 := time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, h := range hashes {
		if err := twin.PutValueDurable(h, blobs[h]); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := twin.AppendBatchDurable(appends, cid); err != nil {
		return 0, 0, 0, err
	}
	return t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
}

// storeDigest is the SHA-256 of a store's canonical WriteTo export.
func storeDigest(ss *storage.ShardedStore) (string, error) {
	h := sha256.New()
	if _, err := ss.WriteTo(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// expectedStore holds exactly the given input records, with their
// deduplicated list values, as the collector should store them.
func expectedStore(lanes [ingestConns][]*fingerprint.Record) *storage.ShardedStore {
	ref := storage.NewShardedStore(ingestShards)
	for _, lane := range lanes {
		for _, rec := range lane {
			_, _, blobs := collector.StripRecord(rec)
			for h, v := range blobs {
				ref.PutValue(h, v)
			}
			ref.Append(rec)
		}
	}
	return ref
}

// checkIngest verifies one round: the store holds exactly the acked
// records — by count, and by the WriteTo digest of a store built
// directly from those input records. With readBack set it also sets
// top1_accuracy, the share of acked records read back identical.
func checkIngest(o *outcome, in *ingestInput, r *ingestRound, readBack bool) {
	acked := r.ackedRecords()
	o.check(r.store.Len() == acked, "ingest: store holds %d records, %d were acked", r.store.Len(), acked)
	got, err1 := storeDigest(r.store)
	want, err2 := in.fullDigest, error(nil)
	var ref *storage.ShardedStore
	if acked != in.records() || readBack {
		ref = expectedStore(r.acked)
		want, err2 = storeDigest(ref)
	}
	o.check(err1 == nil && err2 == nil && got == want, "ingest: store digest %s, input digest %s (%v, %v)", got, want, err1, err2)
	if !readBack {
		return
	}
	same := 0
	seen := map[string]bool{}
	for _, lane := range r.acked {
		for _, rec := range lane {
			if seen[rec.UserID] {
				continue
			}
			seen[rec.UserID] = true
			a, b := r.store.ByUser(rec.UserID), ref.ByUser(rec.UserID)
			for i := range b {
				if i < len(a) && sameJSON(a[i], b[i]) {
					same++
				}
			}
		}
	}
	o.e2e["top1_accuracy"] = float64(same) / float64(acked)
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}
