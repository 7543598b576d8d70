package linkd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/obs"
	"fpdyn/internal/parallel"
	"fpdyn/internal/storage"
)

// wallClock is this package's single wall-clock source. Everything
// that reads time for a *decision* (eviction cutoffs, latency
// observations, drain deadlines) goes through Options.Clock or this
// variable, never time.Now directly — scripts/lint_determinism.sh
// enforces it — so tests inject a fake clock and get bit-reproducible
// eviction and chaos runs.
var wallClock = time.Now

// ErrOverloaded is returned by Query when admission control sheds the
// request: the in-flight limit and the queue are both full. Clients
// should back off and retry; the server maps it to TypeOverloaded.
var ErrOverloaded = errors.New("linkd: overloaded")

// ErrClosed is returned once the service has shut down.
var ErrClosed = errors.New("linkd: service closed")

// Options configures Open. The zero value of every field except the
// linkers has a usable default.
type Options struct {
	// Rule is the rule-based linker (required — it is both the
	// degraded-mode server and the cheap recovery index).
	Rule *fpstalker.RuleLinker
	// Learn is the learning-based linker; nil runs the service
	// rule-only (no degradation machinery engages).
	Learn *fpstalker.LearnLinker

	// WAL configures the add journal. An empty WAL.Dir runs the
	// service in memory only: adds are not durable and Compact is
	// unavailable.
	WAL storage.WALOptions

	// Window is the sliding collect period: an instance whose latest
	// observation (by record time) is older than Window at eviction
	// time is removed from the table and all indexes. 0 disables
	// eviction.
	Window time.Duration

	// MaxInFlight bounds concurrently scoring queries (default
	// GOMAXPROCS). QueueDepth bounds queries waiting for a slot
	// (default 4×MaxInFlight); arrivals beyond MaxInFlight+QueueDepth
	// are shed immediately with ErrOverloaded.
	MaxInFlight int
	QueueDepth  int

	// Clock supplies "now" for eviction cutoffs and latency
	// measurement; defaults to the wall clock. Tests inject a fake.
	Clock func() time.Time

	// Fault, when set, stalls every admitted query before scoring —
	// the overload tests' slow-scorer injection point.
	Fault *faultinject.Script

	// Registry receives the service's metrics; nil allocates a private
	// one (reachable via Metrics).
	Registry *obs.Registry

	// SampleEvery starts a background goroutine that calls
	// SampleOverload and EvictExpired on this period. 0 leaves both to
	// the caller (tests drive them manually).
	SampleEvery time.Duration
}

func (o *Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return parallel.Resolve(0)
}

func (o *Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 4 * o.maxInFlight()
}

func (o *Options) clock() func() time.Time {
	if o.Clock != nil {
		return o.Clock
	}
	return wallClock
}

// journalEntry is the payload of one journaled add. Evictions are NOT
// journaled: eviction is a pure function of (live records, now), so
// replaying the adds and re-running the evictor reproduces the exact
// post-eviction state — and Compact writes only live entries, which is
// where evicted history leaves the disk.
type journalEntry struct {
	ID  string              `json:"id"`
	Rec *fingerprint.Record `json:"rec"`
}

// serviceMetrics is the service's obs wiring; the query path performs
// only atomic updates.
type serviceMetrics struct {
	reg *obs.Registry

	queriesOK      *obs.Counter
	queriesShed    *obs.Counter
	queriesExpired *obs.Counter
	querySeconds   *obs.Histogram
	adds           *obs.Counter
	evictions      *obs.Counter

	inflight    *obs.Gauge
	queued      *obs.Gauge
	modeRule    *obs.Gauge
	transitions *obs.Counter
}

func newServiceMetrics(reg *obs.Registry) serviceMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return serviceMetrics{
		reg:            reg,
		queriesOK:      reg.Counter("linkd_queries_total", "Queries by outcome.", "outcome", "ok"),
		queriesShed:    reg.Counter("linkd_queries_total", "Queries by outcome.", "outcome", "shed"),
		queriesExpired: reg.Counter("linkd_queries_total", "Queries by outcome.", "outcome", "expired"),
		querySeconds:   reg.Histogram("linkd_query_seconds", "Latency of served queries (admission wait included).", nil),
		adds:           reg.Counter("linkd_adds_total", "Fingerprint observations registered."),
		evictions:      reg.Counter("linkd_evictions_total", "Instances evicted by the collect window."),

		inflight:    reg.Gauge("linkd_inflight_queries", "Queries currently scoring."),
		queued:      reg.Gauge("linkd_pending_queries", "Queries admitted or waiting for a scoring slot."),
		modeRule:    reg.Gauge("linkd_mode_rule", "1 while queries are served by the rule-based linker (degraded or rule-only)."),
		transitions: reg.Counter("linkd_mode_transitions_total", "Linker-mode flips by the overload controller."),
	}
}

// Service is the linking service core: linkers + journal + evictor +
// admission control + overload controller. The network server
// (Server) and the binary (cmd/fplinkd) are thin shells over it.
type Service struct {
	opts  Options
	rule  *fpstalker.RuleLinker
	learn *fpstalker.LearnLinker
	now   func() time.Time
	m     serviceMetrics

	// mu orders journal appends with table mutations so journal order
	// equals apply order — the invariant replay determinism rests on.
	// Queries do not take it (the linkers have their own locks).
	mu    sync.Mutex
	wal   *storage.WAL
	live  map[string]*fingerprint.Record
	evict *windowEvictor
	// evicted is set when an eviction dropped live entries since the
	// last Compact cut: evictions are not journaled, so only a
	// checkpoint takes them off the disk.
	evicted bool

	compactMu sync.Mutex

	sem     chan struct{} // in-flight scoring slots
	pending atomic.Int64  // admitted (queued + in-flight) queries

	degradeMu sync.Mutex
	deg       degrader
	degraded  atomic.Bool
	// Previous cumulative counter and bucket values for interval
	// sampling.
	prevArrivals  int64
	prevShed      int64
	prevQueries   uint64
	prevUnderLow  uint64
	prevUnderHigh uint64

	closed     atomic.Bool
	stopSample chan struct{}
	sampleDone chan struct{}
}

// Open builds a Service and, when WAL.Dir is set, replays the journal:
// the newest snapshot plus every uncovered segment is applied to the
// linkers (torn tails truncated), and subsequent adds append after the
// replayed history. The returned stats describe what recovery found.
func Open(opts Options) (*Service, storage.JournalReplayStats, error) {
	var stats storage.JournalReplayStats
	if opts.Rule == nil {
		return nil, stats, errors.New("linkd: Options.Rule is required")
	}
	s := &Service{
		opts:  opts,
		rule:  opts.Rule,
		learn: opts.Learn,
		now:   opts.clock(),
		m:     newServiceMetrics(opts.Registry),
		live:  make(map[string]*fingerprint.Record),
		evict: newWindowEvictor(),
		sem:   make(chan struct{}, opts.maxInFlight()),
	}
	s.m.reg.GaugeFunc("linkd_entries", "Live instances in the linking table.", func() float64 {
		return float64(s.rule.Len())
	})
	if s.learn == nil {
		s.m.modeRule.Set(1) // rule-only: the mode gauge tells the truth
	}
	if opts.WAL.Dir != "" {
		apply := func(payload []byte) error {
			var e journalEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return fmt.Errorf("linkd: journal entry: %w", err)
			}
			if e.ID == "" || e.Rec == nil || e.Rec.FP == nil {
				return errors.New("linkd: journal entry without id or record")
			}
			s.applyLocked(e.ID, e.Rec)
			return nil
		}
		w, st, err := storage.ReplayJournal(opts.WAL, apply, apply)
		if err != nil {
			return nil, st, err
		}
		s.wal = w
		stats = st
	}
	if opts.SampleEvery > 0 {
		s.stopSample = make(chan struct{})
		s.sampleDone = make(chan struct{})
		go s.sampleLoop(opts.SampleEvery)
	}
	return s, stats, nil
}

// Metrics returns the service's metric registry.
func (s *Service) Metrics() *obs.Registry { return s.m.reg }

// WALError returns the journal's sticky write or fsync error, or nil
// (no journal, or a healthy one). Once it is set every later add is
// refused until a restart recovers the journal.
func (s *Service) WALError() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Err()
}

// Len returns the number of live instances.
func (s *Service) Len() int { return s.rule.Len() }

// applyLocked installs one observation into the table, the evictor and
// both linkers, without journaling. Callers hold s.mu (or own the
// service exclusively during recovery).
//
// The canonical record is retained only when a journal is configured:
// live exists solely to feed Compact's snapshot cut (which requires a
// journal), and the linkers' interned store no longer holds records —
// so a memory-only service keeps nothing but the interned tables.
// Gated on the option, not s.wal: recovery replays entries through
// here before Open assigns s.wal.
func (s *Service) applyLocked(id string, rec *fingerprint.Record) {
	if s.opts.WAL.Dir != "" {
		s.live[id] = rec
	}
	s.evict.observe(id, rec.Time)
	s.rule.Add(id, rec)
	if s.learn != nil {
		s.learn.Add(id, rec)
	}
}

// Add registers rec as the latest fingerprint of instance id. With a
// journal attached the call returns only after the entry is durable
// per the WAL's fsync policy — the ACK-after-durable contract the
// chaos test holds the service to.
func (s *Service) Add(id string, rec *fingerprint.Record) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if id == "" || rec == nil || rec.FP == nil {
		return errors.New("linkd: add without id or record")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		payload, err := json.Marshal(&journalEntry{ID: id, Rec: rec})
		if err != nil {
			return fmt.Errorf("linkd: journal encode: %w", err)
		}
		if err := s.wal.AppendPayload(payload); err != nil {
			return err
		}
	}
	s.applyLocked(id, rec)
	s.m.adds.Inc()
	return nil
}

// Query ranks up to k linking candidates for rec, reporting which
// linker mode served it. Admission control runs first: beyond
// MaxInFlight+QueueDepth concurrently admitted queries the call sheds
// immediately with ErrOverloaded (never queuing behind a full house),
// and a ctx that expires while queued or mid-scan aborts with ctx's
// error — the scoring workers observe the same ctx and stop within a
// bounded number of candidates.
func (s *Service) Query(ctx context.Context, rec *fingerprint.Record, k int) ([]fpstalker.Candidate, string, error) {
	if s.closed.Load() {
		return nil, "", ErrClosed
	}
	if n := s.pending.Add(1); n > int64(s.opts.maxInFlight()+s.opts.queueDepth()) {
		s.pending.Add(-1)
		s.m.queriesShed.Inc()
		return nil, "", ErrOverloaded
	}
	s.m.queued.Add(1)
	defer func() {
		s.pending.Add(-1)
		s.m.queued.Add(-1)
	}()
	start := s.now()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.sem <- struct{}{}:
	case <-done:
		s.m.queriesExpired.Inc()
		return nil, "", ctx.Err()
	}
	defer func() { <-s.sem }()
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	s.opts.Fault.Stalled() // overload tests: the injected slow scorer

	mode := ModeRule
	var linker fpstalker.DynamicLinker = s.rule
	if s.learn != nil && !s.degraded.Load() {
		mode, linker = ModeLearning, s.learn
	}
	cands, err := linker.TopKCtx(ctx, rec, k)
	s.m.querySeconds.ObserveDuration(s.now().Sub(start))
	if err != nil {
		s.m.queriesExpired.Inc()
		return nil, mode, err
	}
	s.m.queriesOK.Inc()
	return cands, mode, nil
}

// EvictExpired removes every instance whose latest observation has
// slid out of the collect window, from the table and every index, and
// returns how many went. A no-op when Window is 0. Deterministic for
// a given add history and clock.
func (s *Service) EvictExpired() int {
	if s.opts.Window <= 0 {
		return 0
	}
	cutoff := s.now().Add(-s.opts.Window)
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.evict.expired(cutoff)
	for _, id := range ids {
		delete(s.live, id)
		s.rule.Remove(id)
		if s.learn != nil {
			s.learn.Remove(id)
		}
	}
	s.m.evictions.Add(int64(len(ids)))
	s.evicted = s.evicted || len(ids) > 0
	return len(ids)
}

// SampleOverload feeds one interval sample (shed rate and query
// latency counts since the previous call) to the overload controller
// and applies any mode flip. Returns the mode in force after the
// sample.
func (s *Service) SampleOverload() (degraded bool) {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()

	shed := s.m.queriesShed.Value()
	arrivals := shed + s.m.queriesOK.Value() + s.m.queriesExpired.Value()
	dShed := shed - s.prevShed
	dArrivals := arrivals - s.prevArrivals
	s.prevShed, s.prevArrivals = shed, arrivals
	shedRate := 0.0
	if dArrivals > 0 {
		shedRate = float64(dShed) / float64(dArrivals)
	}
	// Buckets are cumulative, so the interval's counts are deltas of
	// the cumulative counts at the two watermark bounds and at +Inf.
	var queries, underLow, underHigh uint64
	for _, b := range s.m.querySeconds.Snapshot().Buckets {
		switch b.UpperBound {
		case p99Low:
			underLow = b.Cumulative
		case p99High:
			underHigh = b.Cumulative
		}
		queries = b.Cumulative
	}
	n, dLow, dHigh := queries-s.prevQueries, underLow-s.prevUnderLow, underHigh-s.prevUnderHigh
	s.prevQueries, s.prevUnderLow, s.prevUnderHigh = queries, underLow, underHigh

	if s.learn == nil {
		return true // rule-only: nothing to degrade to
	}
	degraded, changed := s.deg.sample(shedRate, n, dLow, dHigh)
	if changed {
		s.degraded.Store(degraded)
		s.m.transitions.Inc()
		if degraded {
			s.m.modeRule.Set(1)
		} else {
			s.m.modeRule.Set(0)
		}
	}
	return degraded
}

// IndexDigests returns the canonical digests of the rule and learning
// indexes ("" when the learning linker is absent) — the chaos test's
// recovered-state comparison.
func (s *Service) IndexDigests() (rule, learn string) {
	rule = s.rule.IndexDigest()
	if s.learn != nil {
		learn = s.learn.IndexDigest()
	}
	return rule, learn
}

// Compact checkpoints the live (non-evicted) table into a snapshot and
// deletes the journal segments it covers (storage.WAL.Checkpoint):
// evicted instances leave the disk here, and the next recovery replays
// live state, not history. Adds are blocked only while the cut is
// captured. The stats count the snapshot's entries in Records (Values
// stays 0). With no add and no eviction since the last cut (the
// journal is Idle) nothing is written and CoveredSeg is 0; a real
// checkpoint — even of an empty table — covers at least segment 1.
func (s *Service) Compact() (storage.CompactionStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	w := s.wal
	if w == nil {
		s.mu.Unlock()
		return storage.CompactionStats{}, errors.New("linkd: compact needs a journal")
	}
	if !s.evicted && w.Idle() {
		s.mu.Unlock()
		return storage.CompactionStats{}, nil
	}
	active, err := w.Rotate()
	if err != nil {
		s.mu.Unlock()
		return storage.CompactionStats{}, fmt.Errorf("linkd: compact rotate: %w", err)
	}
	// The cut: every live entry, sorted by id so equal state yields
	// byte-identical snapshots.
	cut := make([]journalEntry, 0, len(s.live))
	for id, rec := range s.live {
		cut = append(cut, journalEntry{ID: id, Rec: rec})
	}
	s.evicted = false
	s.mu.Unlock()
	sort.Slice(cut, func(i, j int) bool { return cut[i].ID < cut[j].ID })
	cs := storage.CompactionStats{Records: len(cut), CoveredSeg: active - 1}
	cs.SnapshotBytes, cs.SegmentsRemoved, err = w.Checkpoint(cs.CoveredSeg, func(write func(payload []byte) error) error {
		for i := range cut {
			payload, err := json.Marshal(&cut[i])
			if err != nil {
				return fmt.Errorf("linkd: snapshot encode: %w", err)
			}
			if err := write(payload); err != nil {
				return err
			}
		}
		return nil
	})
	return cs, err
}

// sampleLoop drives SampleOverload and EvictExpired on a fixed period.
func (s *Service) sampleLoop(every time.Duration) {
	defer close(s.sampleDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopSample:
			return
		case <-t.C:
			s.SampleOverload()
			s.EvictExpired()
		}
	}
}

// Close stops the background sampler and closes the journal. In-flight
// queries finish; new calls fail with ErrClosed.
func (s *Service) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.stopSample != nil {
		close(s.stopSample)
		<-s.sampleDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}
