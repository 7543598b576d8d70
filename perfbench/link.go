package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linkd"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/storage"
)

// The link-* workloads: linkd.Service behind linkd.Server over
// loopback, its table pre-loaded with every simulated instance's first
// visit. The remaining visits arrive open-loop at a fixed rate over two
// connections partitioned by instance; each visit is a query (k=10)
// followed by an add of the visit under its true instance id. The
// journal is on at fsync=interval. Scoring is serial (Workers=1): a
// query fanned out over both vCPUs of a shared 2-vCPU machine waits
// for whichever vCPU the host has lent elsewhere, so its median would
// follow the neighbours' load rather than the program.
const (
	linkConns      = 2
	linkK          = 10
	linkWorkers    = 1
	linkTrainUsers = 2000 // fplinkd's -train-users default
	// linkWarmup is unmeasured traffic before the first measured phase,
	// so connections, caches and the journal are warm when timing starts.
	linkWarmup = 2 * time.Second
)

// linkShape sizes one link workload.
type linkShape struct {
	users int     // simulated users at least; the table holds their instances
	rate  float64 // visits per second (each is a query plus an add)
}

// visitsPerUser is a floor on the non-first visits a simulated user
// contributes (about 1.9 at the default calibration).
const visitsPerUser = 1.7

// usersFor sizes the population so the open loop never runs out of
// visits over phases.
func (s linkShape) usersFor(phases []time.Duration) int {
	var total time.Duration
	for _, d := range phases {
		total += d
	}
	// Lanes split instances by hash, so either lane may get a little
	// more than half the visits it needs; 10% covers the imbalance.
	need := 1.1 * s.rate * total.Seconds()
	return max(s.users, int(need/visitsPerUser)+1)
}

var (
	ruleShape  = linkShape{users: 2000, rate: 400}
	learnShape = linkShape{users: 6000, rate: 100}
)

type visit struct {
	id  string
	rec *fingerprint.Record
}

type linkInput struct {
	firsts, visits []visit
	forest         *mlearn.Forest
	rule           *fpstalker.RuleLinker
	learn          *fpstalker.LearnLinker
	allocPerRec    float64
	bytesPerEntry  float64
	internHitRate  float64
}

func instanceID(inst int) string { return fmt.Sprintf("inst-%d", inst) }

// trainForest trains the pair model as fplinkd does: 15 trees of depth
// 8 on a separate seeded population.
func trainForest(seed int64) (*mlearn.Forest, error) {
	ds, _ := simulate(linkTrainUsers, seed)
	return fpstalker.TrainPairModel(ds.Records, ds.TrueInstance,
		mlearn.ForestConfig{Seed: seed, NumTrees: 15, MaxDepth: 8})
}

// newLinkers builds the linkers and pre-loads every first visit.
func newLinkers(firsts []visit, forest *mlearn.Forest) (*fpstalker.RuleLinker, *fpstalker.LearnLinker) {
	rule := fpstalker.NewRuleLinker()
	rule.Workers = linkWorkers
	var learn *fpstalker.LearnLinker
	if forest != nil {
		learn = fpstalker.NewLearnLinker(forest)
		learn.Workers = linkWorkers
	}
	for _, v := range firsts {
		rule.Add(v.id, v.rec)
		if learn != nil {
			learn.Add(v.id, v.rec)
		}
	}
	return rule, learn
}

func linkSetup(seed int64, shape linkShape, learning bool) (*linkInput, error) {
	in := &linkInput{}
	ds, alloc := simulate(shape.users, seed)
	in.allocPerRec = alloc
	seen := map[int]bool{}
	for i, r := range ds.Records {
		v := visit{id: instanceID(ds.TrueInstance[i]), rec: r}
		if seen[ds.TrueInstance[i]] {
			in.visits = append(in.visits, v)
		} else {
			seen[ds.TrueInstance[i]] = true
			in.firsts = append(in.firsts, v)
		}
	}
	if learning {
		f, err := trainForest(seed + 7919)
		if err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		in.forest = f
	}
	runtime.GC()
	h0 := memSample().HeapAlloc
	in.rule, in.learn = newLinkers(in.firsts, in.forest)
	runtime.GC()
	h1 := memSample().HeapAlloc
	in.bytesPerEntry = (float64(h1) - float64(h0)) / float64(len(in.firsts))
	st := in.rule.StoreStats()
	if in.learn != nil {
		st = in.learn.StoreStats()
	}
	if n := st.InternHits + st.InternMisses; n > 0 {
		in.internHitRate = float64(st.InternHits) / float64(n)
	}
	return in, nil
}

// linkClient speaks the linkd protocol over one connection in binary
// framing.
type linkClient struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func dialLink(addr string) (*linkClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &linkClient{conn: conn, br: bufio.NewReader(conn)}
	hello, _ := json.Marshal(&linkd.Request{Type: linkd.TypeHello, Framing: collector.FramingBinary}) // fixed fields always marshal
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		conn.Close()
		return nil, err
	}
	line, err := collector.ReadLine(c.br, linkd.DefaultMaxFrame)
	var resp linkd.Response
	if err == nil {
		err = json.Unmarshal(line, &resp)
	}
	if err != nil || resp.Framing != collector.FramingBinary {
		conn.Close()
		return nil, fmt.Errorf("linkd hello: framing %q, %v", resp.Framing, err)
	}
	return c, nil
}

func (c *linkClient) call(payload []byte) (*linkd.Response, error) {
	c.wbuf = storage.AppendFrame(c.wbuf[:0], payload)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, err
	}
	p, err := storage.ReadFrame(c.br, linkd.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	var resp linkd.Response
	if err := json.Unmarshal(p, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// linkPhase is one measured stretch of the open loop.
type linkPhase struct {
	queries, adds opLog
	hits          int
	completed     int
	queued        int     // queries whose lane was still busy at their due time
	wake          samples // send − max(due, lane ready): the load generator's own delay
	added         []int   // visit indices whose add was acknowledged
	elapsed       time.Duration
	mem           memDelta

	// Traced only: twin measurements per query / add, and the first
	// twin call that failed.
	twinErr                                       error
	topk, decodeUs, encodeUs, residual, admission samples
	svcAddUs, fpAddUs                             samples
	records                                       []*fingerprint.Record
}

// linkTwin holds the traced phase's twin state: a second service and a
// third pair of linkers with the same table, so an add can be timed
// through Service.Add and through the linkers alone.
type linkTwin struct {
	svc     *linkd.Service
	rule    *fpstalker.RuleLinker
	learn   *fpstalker.LearnLinker
	serving fpstalker.DynamicLinker
	live    *linkd.Service // the measured service, for Service.Query twins
}

func runLink(e *env, learning bool) (*outcome, error) {
	o := newOutcome()
	shape, mode := ruleShape, linkd.ModeRule
	if learning {
		shape, mode = learnShape, linkd.ModeLearning
	}
	periods := append([]time.Duration{linkWarmup}, e.phases()...)
	shape.users = shape.usersFor(periods)
	o.params["users"] = shape.users
	o.params["rate_visits_per_s"] = shape.rate
	o.params["connections"] = linkConns
	o.params["k"] = linkK
	o.params["scoring_workers"] = linkWorkers
	o.params["mode"] = mode
	o.params["journal_fsync"] = "interval"
	if learning {
		o.params["train_users"] = linkTrainUsers
		o.params["forest"] = "15 trees, depth 8"
	}

	setup, in, err := medianSetup(3, func() (*linkInput, error) {
		return linkSetup(e.seed, shape, learning)
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.params["table_entries"] = len(in.firsts)
	// Each lane carries the visits of its instances, in time order.
	var lanes [linkConns][]int
	for i, v := range in.visits {
		l := laneOf(v.id, linkConns)
		lanes[l] = append(lanes[l], i)
	}
	for l := range lanes {
		need := 0
		for _, d := range periods {
			need += openLoop{Rate: shape.rate, Lanes: linkConns, Duration: d}.arrivals(l)
		}
		if len(lanes[l]) < need {
			return nil, fmt.Errorf("lane %d has %d visits, the open loop needs %d", l, len(lanes[l]), need)
		}
	}

	journal := filepath.Join(e.work, "journal")
	svc, _, err := linkd.Open(linkd.Options{
		Rule: in.rule, Learn: in.learn,
		WAL: storage.WALOptions{Dir: journal, Policy: storage.SyncInterval},
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	srv := linkd.NewServer(svc)
	srv.Logf = func(string, ...any) {}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(lis)
	defer srv.Close()
	clients := make([]*linkClient, linkConns)
	for l := range clients {
		if clients[l], err = dialLink(lis.Addr().String()); err != nil {
			return nil, err
		}
		defer clients[l].conn.Close()
	}

	var phases []*linkPhase
	var cursor [linkConns]int // visits each lane has issued so far
	// phases[0] is the warm-up, phases[1] the untraced measurement and,
	// in a traced run, phases[2] the traced one.
	for i, d := range periods {
		var tw *linkTwin
		if e.trace && i == 2 {
			o.tr = newTracer()
			if tw, err = newLinkTwin(e, in, svc); err != nil {
				return nil, err
			}
		}
		loop := openLoop{Rate: shape.rate, Lanes: linkConns, Duration: d}
		ph := linkRun(loop, in.visits, &lanes, &cursor, clients, mode, o.tr, tw)
		if tw != nil {
			tw.svc.Close()
		}
		if ph.twinErr != nil {
			return nil, ph.twinErr
		}
		o.attempted += ph.queries.attempted + ph.adds.attempted
		o.failed += ph.queries.failed + ph.adds.failed
		phases = append(phases, ph)
	}

	// Correctness: every response was a result or an ok, and the live
	// indexes equal an in-process replay of the acknowledged adds.
	for _, ph := range phases {
		o.check(ph.queries.failed == 0 && ph.adds.failed == 0,
			"link: %d failed queries, %d failed adds", ph.queries.failed, ph.adds.failed)
	}
	var added []int
	for _, ph := range phases {
		added = append(added, ph.added...)
	}
	adds := len(added)
	checkLinkDigests(o, svc, in, added)

	base := phases[1]
	o.e2e["records_per_s"] = float64(base.completed) / base.elapsed.Seconds()
	o.pctMetric(o.e2e, "latency_p50_ms", base.queries.latency.report(0.50, limitMs(e)))
	o.samples["latency_p99_ms"] = base.queries.latency.reportTail(0.99, limitMs(e))
	o.pctMetric(o.e2e, "add_latency_p50_ms", base.adds.latency.report(0.50, limitMs(e)))
	o.samples["add_latency_p99_ms"] = base.adds.latency.reportTail(0.99, limitMs(e))
	o.e2e["top1_accuracy"] = float64(base.hits) / float64(base.queries.attempted)
	late := base.queries.late.reportTail(0.99, limitMs(e))
	o.samples["loadgen.late_p99_ms"] = late
	o.samples["loadgen.wake_p99_ms"] = base.wake.reportTail(0.99, limitMs(e))
	o.params["queued_share"] = float64(base.queued) / float64(base.queries.attempted)

	if e.trace {
		tp := phases[2]
		enc, dec, err := codecCost(tp.records)
		if err != nil {
			return nil, err
		}
		n := float64(len(tp.records))
		o.layer["fingerprint.encode_us"] = float64(enc.Microseconds()) / n
		o.layer["fingerprint.decode_us"] = float64(dec.Microseconds()) / n
		svc.Close() // flushes the journal
		o.layer["storage.journal_bytes_per_add"] = float64(dirSize(journal)) / float64(adds)
		o.layer["linkd.add_us"] = tp.svcAddUs.median()
		o.layer["fpstalker.add_us"] = tp.fpAddUs.median()
		o.layer["linkd.decode_us"] = tp.decodeUs.median()
		o.layer["linkd.encode_us"] = tp.encodeUs.median()
		o.layer["linkd.server_residual_ms"] = tp.residual.median()
		o.layer["linkd.admission_ms"] = tp.admission.median()
		o.pctMetric(o.layer, "fpstalker.topk_p50_ms", tp.topk.report(0.50, limitMs(e)))
		o.pctMetric(o.layer, "fpstalker.topk_p99_ms", tp.topk.reportTail(0.99, limitMs(e)))
		o.layer["fpstalker.bytes_per_entry"] = in.bytesPerEntry
		o.layer["fpstalker.intern_hit_rate"] = in.internHitRate
		o.layer["population.alloc_bytes_per_record"] = in.allocPerRec
		runtimeLayer(o, tp.mem, tp.queries.attempted)
		o.layer["loadgen.late_p99_ms"] = late.Value
		lg := computeLedger(o.tr.snapshot())
		o.ledger = &lg
		o.layer["trace.coverage"] = lg.coverage()
		o.layer["trace.overhead_ratio"] = tp.queries.latency.median() / base.queries.latency.median()
		fillZero(o.layer)
	}
	return o, nil
}

// checkLinkDigests compares the service's index digests with an
// in-process replay: fresh linkers pre-loaded like the service's, then
// every acknowledged add (visit indices) in time order, which keeps
// each instance's adds in the order its connection sent them.
func checkLinkDigests(o *outcome, svc *linkd.Service, in *linkInput, added []int) {
	added = append([]int(nil), added...)
	sort.Ints(added)
	rule, learn := newLinkers(in.firsts, in.forest)
	for _, vi := range added {
		v := in.visits[vi]
		rule.Add(v.id, v.rec)
		if learn != nil {
			learn.Add(v.id, v.rec)
		}
	}
	gotRule, gotLearn := svc.IndexDigests()
	o.check(gotRule == rule.IndexDigest(), "link: rule index digest differs from the replay of %d adds", len(added))
	if learn != nil {
		o.check(gotLearn == learn.IndexDigest(), "link: learning index digest differs from the replay of %d adds", len(added))
	}
}

func newLinkTwin(e *env, in *linkInput, live *linkd.Service) (*linkTwin, error) {
	tw := &linkTwin{live: live}
	svcRule, svcLearn := newLinkers(in.firsts, in.forest)
	svc, _, err := linkd.Open(linkd.Options{
		Rule: svcRule, Learn: svcLearn,
		WAL: storage.WALOptions{Dir: filepath.Join(e.work, "twin-journal"), Policy: storage.SyncInterval},
	})
	if err != nil {
		return nil, err
	}
	tw.svc = svc
	tw.rule, tw.learn = newLinkers(in.firsts, in.forest)
	tw.serving = in.rule
	if in.learn != nil {
		tw.serving = in.learn
	}
	return tw, nil
}

// linkRun drives one phase of the open loop: lane l issues the visits
// lanes[l][cursor[l]:], and the cursors advance past what was issued.
func linkRun(loop openLoop, visits []visit, lanes *[linkConns][]int, cursor *[linkConns]int, clients []*linkClient, mode string, tr *tracer, tw *linkTwin) *linkPhase {
	ph := &linkPhase{}
	var mu sync.Mutex
	avail := make([]int, linkConns)
	for l := range avail {
		avail[l] = len(lanes[l]) - cursor[l]
	}
	runtime.GC() // every phase starts from a settled heap
	m0 := memSample()
	start := time.Now()
	issued := loop.run(avail, func(l, k int) func(time.Time, time.Time) {
		vi := lanes[l][cursor[l]+k]
		v := visits[vi]
		// A record always marshals; a nil payload would fail the query.
		qPayload, _ := json.Marshal(&linkd.Request{Type: linkd.TypeQuery, Record: v.rec, K: linkK})
		return func(due, ready time.Time) { linkVisit(ph, &mu, clients[l], v, vi, qPayload, due, ready, mode, tr, tw) }
	})
	for l, n := range issued {
		cursor[l] += n
	}
	ph.elapsed = time.Since(start)
	ph.mem = memSince(m0)
	return ph
}

// linkVisit sends one visit's query, then its add, and accounts both.
func linkVisit(ph *linkPhase, mu *sync.Mutex, c *linkClient, v visit, index int, qPayload []byte, due, ready time.Time, mode string, tr *tracer, tw *linkTwin) {
	qSent := time.Now()
	resp, err := c.call(qPayload)
	qDone := time.Now()
	qOK := err == nil && resp.Type == linkd.TypeResult && resp.Mode == mode
	ph.queries.observe(due, qSent, qDone, !qOK)
	hit := qOK && len(resp.Candidates) > 0 && resp.Candidates[0].ID == v.id

	aPayload, err := json.Marshal(&linkd.Request{Type: linkd.TypeAdd, ID: v.id, Record: v.rec})
	aSent := time.Now()
	var aresp *linkd.Response
	if err == nil {
		aresp, err = c.call(aPayload)
	}
	aDone := time.Now()
	aOK := err == nil && aresp.Type == linkd.TypeOK
	// The add is due once its visit's query has been answered.
	ph.adds.observe(qDone, aSent, aDone, !aOK)

	mu.Lock()
	if ready.After(due) {
		ph.queued++
		ph.wake.add(qSent.Sub(ready))
	} else {
		ph.wake.add(qSent.Sub(due))
	}
	if hit {
		ph.hits++
	}
	if qOK && aOK {
		ph.completed++
	}
	if aOK {
		ph.added = append(ph.added, index)
	}
	mu.Unlock()

	if tr == nil || !qOK || !aOK {
		return
	}
	q, err := queryTwin(tw, qPayload, v.rec)
	var a addCost
	if err == nil {
		a, err = addTwin(tw, aPayload, v)
	}
	if err != nil {
		mu.Lock()
		if ph.twinErr == nil {
			ph.twinErr = err
		}
		mu.Unlock()
		return
	}

	req := tr.add(0, 0, "request.query", due, qDone)
	if ready.After(due) {
		tr.add(req, req, "loadgen.queue", due, ready)
		due = ready
	}
	tr.add(req, req, "loadgen.wake", due, qSent)
	rt := tr.add(req, req, "linkd.roundtrip", qSent, qDone)
	cur := qSent
	tr.derive(req, rt, "linkd.decode", &cur, q.decode)
	sq := cur
	call := tr.derive(req, rt, "linkd.Service.Query", &cur, q.query)
	tr.derive(req, call, "fpstalker.TopKCtx", &sq, q.topk)
	tr.derive(req, rt, "linkd.encode", &cur, q.encode)

	areq := tr.add(0, 0, "request.add", qDone, aDone)
	art := tr.add(areq, areq, "linkd.roundtrip", aSent, aDone)
	cur = aSent
	tr.derive(areq, art, "linkd.decode", &cur, a.decode)
	sa := cur
	acall := tr.derive(areq, art, "linkd.Service.Add", &cur, a.svcAdd)
	tr.derive(areq, acall, "fpstalker.Add", &sa, a.linkerAdd)
	tr.derive(areq, art, "linkd.encode", &cur, a.encode)

	mu.Lock()
	defer mu.Unlock()
	ph.records = append(ph.records, v.rec)
	ph.topk.add(q.topk)
	ph.decodeUs.addMs(float64(q.decode) / float64(time.Microsecond))
	ph.encodeUs.addMs(float64(q.encode) / float64(time.Microsecond))
	ph.residual.add(qDone.Sub(qSent) - q.decode - q.query - q.encode)
	ph.admission.add(q.query - q.topk)
	ph.svcAddUs.addMs(float64(a.svcAdd) / float64(time.Microsecond))
	ph.fpAddUs.addMs(float64(a.linkerAdd) / float64(time.Microsecond))
}

type queryCost struct{ decode, query, topk, encode time.Duration }

// queryTwin repeats a query's server-side work through the public
// functions the server calls: DecodeRequest on the same payload,
// Service.Query on the live service, the serving linker's TopKCtx,
// and the JSON encode of the response.
func queryTwin(tw *linkTwin, payload []byte, rec *fingerprint.Record) (queryCost, error) {
	var c queryCost
	t0 := time.Now()
	if _, err := linkd.DecodeRequest(payload); err != nil {
		return c, fmt.Errorf("twin decode: %w", err)
	}
	t1 := time.Now()
	cands, mode, err := tw.live.Query(context.Background(), rec, linkK)
	if err != nil {
		return c, fmt.Errorf("twin query: %w", err)
	}
	t2 := time.Now()
	if _, err := tw.serving.TopKCtx(context.Background(), rec, linkK); err != nil {
		return c, fmt.Errorf("twin TopKCtx: %w", err)
	}
	t3 := time.Now()
	if _, err := json.Marshal(&linkd.Response{Type: linkd.TypeResult, Candidates: cands, Mode: mode}); err != nil {
		return c, fmt.Errorf("twin encode: %w", err)
	}
	t4 := time.Now()
	c.decode, c.query, c.topk, c.encode = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return c, nil
}

type addCost struct{ decode, svcAdd, linkerAdd, encode time.Duration }

// addTwin repeats an add's server-side work: decode, Service.Add on the
// twin service (journal included), the linkers' Add alone on the twin
// linkers, and the response encode.
func addTwin(tw *linkTwin, payload []byte, v visit) (addCost, error) {
	var c addCost
	t0 := time.Now()
	if _, err := linkd.DecodeRequest(payload); err != nil {
		return c, fmt.Errorf("twin decode: %w", err)
	}
	t1 := time.Now()
	if err := tw.svc.Add(v.id, v.rec); err != nil {
		return c, fmt.Errorf("twin add: %w", err)
	}
	t2 := time.Now()
	tw.rule.Add(v.id, v.rec)
	if tw.learn != nil {
		tw.learn.Add(v.id, v.rec)
	}
	t3 := time.Now()
	if _, err := json.Marshal(&linkd.Response{Type: linkd.TypeOK}); err != nil {
		return c, fmt.Errorf("twin encode: %w", err)
	}
	t4 := time.Now()
	c.decode, c.svcAdd, c.linkerAdd, c.encode = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return c, nil
}
