package linkd

import (
	"context"
	"errors"
	"time"

	"fpdyn/internal/collector"
)

// DefaultDrainGrace is how long in-flight requests may finish after
// Shutdown begins, unless DrainGrace is set.
const DefaultDrainGrace = 2 * time.Second

// Server speaks the linkd wire protocol over TCP, dispatching into a
// Service. It runs on the collector's connection server
// (collector.ConnServer), which supplies the accept loop, the
// newline-JSON-then-binary framing, Serve, Close, Shutdown and the
// connection fields (ReadTimeout, MaxFrame, DrainGrace, Logf;
// MaxFrame defaults to DefaultMaxFrame), and registers the
// linkd_* connection series on the Service's registry. linkd's own
// part is decoding and dispatching one request; a request that does
// not decode is answered TypeError and the connection keeps serving.
// Robustness decisions (shedding, deadlines, degradation) live in the
// Service; the server only translates them onto the wire — crucially,
// an Overloaded response goes out immediately, from the connection's
// goroutine, so a full queue never stalls the connection.
type Server struct {
	*collector.ConnServer

	svc *Service
}

// NewServer wraps a Service.
func NewServer(svc *Service) *Server {
	s := &Server{svc: svc}
	s.ConnServer = collector.NewConnServer("linkd", svc.Metrics(), DefaultMaxFrame, DefaultDrainGrace, s.handle)
	return s
}

// handle decodes one request payload and dispatches it.
func (s *Server) handle(payload []byte) collector.Reply {
	req, err := DecodeRequest(payload)
	if err != nil {
		// A malformed request costs the client a round trip, not the
		// connection.
		return collector.Reply{Resp: &Response{Type: TypeError, Error: err.Error()}}
	}
	resp := s.dispatch(req)
	return collector.Reply{Resp: resp, Binary: resp.Type == TypeHello && resp.Framing == collector.FramingBinary}
}

// dispatch executes one validated request against the service.
func (s *Server) dispatch(req *Request) *Response {
	switch req.Type {
	case TypePing:
		return &Response{Type: TypePong}
	case TypeHello:
		f := collector.FramingJSON
		if req.Framing == collector.FramingBinary {
			f = collector.FramingBinary
		}
		return &Response{Type: TypeHello, Framing: f}
	case TypeAdd:
		if err := s.svc.Add(req.ID, req.Record); err != nil {
			return &Response{Type: TypeError, Error: "add not durable: " + err.Error()}
		}
		return &Response{Type: TypeOK}
	case TypeQuery:
		ctx := context.Background()
		if req.DeadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
			defer cancel()
		}
		cands, mode, err := s.svc.Query(ctx, req.Record, req.K)
		switch {
		case errors.Is(err, ErrOverloaded):
			return &Response{Type: TypeOverloaded, Error: err.Error()}
		case err != nil:
			return &Response{Type: TypeError, Error: err.Error(), Mode: mode}
		}
		return &Response{Type: TypeResult, Candidates: cands, Mode: mode}
	default: // DecodeRequest admits no other types
		return &Response{Type: TypeError, Error: "unknown request type " + req.Type}
	}
}
