package collector

import (
	"encoding/json"
	"sort"
	"time"

	"fpdyn/internal/hashutil"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// Server is the data-storage server: it accepts collection connections,
// answers dedup checks against its value store, and appends
// reconstructed records to the backing store. It runs on a ConnServer
// (accept loop, framing, drain), which supplies Serve, Close, Shutdown,
// Draining and the connection fields (ReadTimeout, MaxFrame,
// DrainGrace, Logf); the collector's own part is decoding and
// dispatching one request. A request line that does not decode is
// answered "malformed request" and costs the connection.
//
// Every record lands through the store's AppendBatchDurable — a batch
// is group-committed with one WAL write+fsync per touched shard and
// (client ID, seq) dedup. When the store has
// WALs attached, a record is ACKed only after it is durable; an append
// error means the batch is not ACKed (the client retransmits, and seq
// dedup absorbs any sub-batch that did land).
type Server struct {
	*ConnServer

	store *storage.ShardedStore
	// lists decodes each stored list value once, for every record
	// restored from it.
	lists *ValueLists

	// metrics backs both Stats() and the /metrics scrape, so the two
	// views can never disagree.
	metrics serverMetrics
}

// serverMetrics is the collector server's obs wiring. Counters are
// resolved once at construction; the request path only performs atomic
// updates. The connection series (collector_active_connections,
// collector_bytes_received_total, ...) belong to the ConnServer.
type serverMetrics struct {
	reg *obs.Registry

	requestsPing  *obs.Counter
	requestsCheck *obs.Counter
	requestsHello *obs.Counter
	requestsBatch *obs.Counter
	requestsOther *obs.Counter
	reqLatency    *obs.Histogram

	recordsAccepted *obs.Counter
	recordsDuped    *obs.Counter
	valuesReceived  *obs.Counter
	valuesDeduped   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		reg:           reg,
		requestsPing:  reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypePing),
		requestsCheck: reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeCheck),
		requestsHello: reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeHello),
		requestsBatch: reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", TypeBatch),
		requestsOther: reg.Counter("collector_requests_total", "Requests handled, by protocol verb.", "verb", "other"),
		reqLatency:    reg.Histogram("collector_request_seconds", "Request dispatch latency (decode excluded).", nil),

		recordsAccepted: reg.Counter("collector_records_accepted_total", "Records appended to the store."),
		recordsDuped:    reg.Counter("collector_records_duped_total", "Records answered from the idempotency table."),
		valuesReceived:  reg.Counter("collector_values_received_total", "Content-addressed blobs transferred."),
		valuesDeduped:   reg.Counter("collector_values_deduped_total", "Blobs skipped thanks to the hash check."),
	}
}

// NewServer creates a server over the given store.
func NewServer(store *storage.ShardedStore) *Server {
	s := &Server{store: store, lists: NewValueLists(store.Value), metrics: newServerMetrics(obs.NewRegistry())}
	s.ConnServer = NewConnServer("collector", s.metrics.reg, DefaultMaxFrame, DefaultDrainGrace, s.handle)
	return s
}

// Metrics returns the server's metric registry for the admin endpoint
// (/metrics, /varz) to serve.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Stats is a snapshot of server counters.
type Stats struct {
	RecordsAccepted int64
	ValuesReceived  int64 // blobs actually transferred
	ValuesDeduped   int64 // blobs skipped thanks to the hash check
	BytesReceived   int64
}

// Stats returns a snapshot of the counters. The same counters back the
// /metrics exposition, so a scrape and a Stats call always agree.
func (s *Server) Stats() Stats {
	return Stats{
		RecordsAccepted: s.metrics.recordsAccepted.Value(),
		ValuesReceived:  s.metrics.valuesReceived.Value(),
		ValuesDeduped:   s.metrics.valuesDeduped.Value(),
		BytesReceived:   s.bytesReceived.Value(),
	}
}

// handle decodes one request payload and dispatches it.
func (s *Server) handle(payload []byte) Reply {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return Reply{Resp: &Response{Type: TypeError, Error: "malformed request"}, Close: err}
	}
	resp := s.dispatch(&req)
	return Reply{Resp: resp, Binary: resp.Type == TypeHello && resp.Framing == FramingBinary}
}

// dispatch processes one request, counting it by verb and timing it
// into the request-latency histogram. The instrumentation is two
// atomic adds plus one clock read pair — nothing on this path
// allocates.
func (s *Server) dispatch(req *Request) *Response {
	switch req.Type {
	case TypePing:
		s.metrics.requestsPing.Inc()
	case TypeCheck:
		s.metrics.requestsCheck.Inc()
	case TypeHello:
		s.metrics.requestsHello.Inc()
	case TypeBatch:
		s.metrics.requestsBatch.Inc()
	default:
		s.metrics.requestsOther.Inc()
	}
	start := time.Now()
	resp := s.dispatchInner(req)
	s.metrics.reqLatency.ObserveDuration(time.Since(start))
	return resp
}

func (s *Server) dispatchInner(req *Request) *Response {
	switch req.Type {
	case TypePing:
		return &Response{Type: TypePong}
	case TypeHello:
		f := FramingJSON
		if req.Framing == FramingBinary {
			f = FramingBinary
		}
		return &Response{Type: TypeHello, Framing: f}
	case TypeBatch:
		return &Response{Type: TypeOK, Acks: s.ingest(req.Batch, req.ClientID)}
	case TypeCheck:
		var missing []string
		for _, h := range req.Hashes {
			if s.store.HasValue(h) {
				s.metrics.valuesDeduped.Inc()
			} else {
				missing = append(missing, h)
			}
		}
		return &Response{Type: TypeNeed, Hashes: missing}
	default:
		return &Response{Type: TypeError, Error: "unknown request type " + req.Type}
	}
}

// ingest lands a batch's records; it is the one path every record takes
// into the store. Two phases. First walk the items in order, landing
// each item's blobs in hash order (so identical requests write
// identical WAL bytes) and restoring its record; a blob whose content
// does not hash to its key is refused. A bad item stops the walk
// — items after it are not attempted, so the client's per-seq
// retransmission invariant (in order, head-blocking) holds within
// batches too. Then group-commit every restored record in one
// AppendBatchDurable call: one WAL write+fsync per touched shard. The
// acks cover the committed records in order, plus one error ack for the
// item that stopped the walk. If the group commit fails, nothing in the
// batch may be ACKed: the only ack is the error, at position 0, telling
// the client the server got nowhere.
func (s *Server) ingest(batch []BatchItem, clientID string) []Ack {
	var itemErr string
	items := make([]storage.BatchAppend, 0, len(batch))
walk:
	for i := range batch {
		it := &batch[i]
		if it.Record == nil || it.Record.FP == nil {
			itemErr = "submit without record"
			break
		}
		hashes := make([]string, 0, len(it.Values))
		for h := range it.Values {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)
		for _, h := range hashes {
			content := it.Values[h]
			if hashutil.SHA1HexBytes(content) != h {
				itemErr = "value " + h + " does not match its hash"
				break walk
			}
			if err := s.store.PutValueDurable(h, content); err != nil {
				itemErr = "value not durable: " + err.Error()
				break walk
			}
			s.metrics.valuesReceived.Inc()
		}
		rec, err := RestoreRecord(it.Record, it.Refs, s.lists)
		if err != nil {
			itemErr = err.Error()
			break
		}
		items = append(items, storage.BatchAppend{Record: rec, Seq: it.Seq})
	}
	results, err := s.store.AppendBatchDurable(items, clientID)
	if err != nil {
		return []Ack{{Error: "record not durable: " + err.Error()}}
	}
	acks := make([]Ack, 0, len(results)+1)
	for _, r := range results {
		if r.Dup {
			s.metrics.recordsDuped.Inc()
		} else {
			s.metrics.recordsAccepted.Inc()
		}
		acks = append(acks, Ack{Index: r.Idx, Dup: r.Dup})
	}
	if itemErr != "" {
		acks = append(acks, Ack{Error: itemErr})
	}
	return acks
}
