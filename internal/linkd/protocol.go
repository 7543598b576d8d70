// Package linkd is the always-on linking service: it wraps the
// FP-Stalker matching engine (internal/fpstalker) behind a small
// framed request protocol and adds the robustness machinery a
// production matcher needs — admission control with load shedding,
// per-request deadline propagation into the scoring workers, hysteretic
// degradation from the learning-based to the ~25×-cheaper rule-based
// linker under sustained overload, a crash-safe journal of incremental
// adds through the internal/storage WAL, and a sliding time-window
// evictor implementing the paper's collect-period semantics (Figure 9:
// linking quality and cost are both functions of how much history the
// matcher retains).
//
// The server runs on the collector's connection server
// (collector.ConnServer): connections start in newline-delimited JSON
// and a hello exchange may switch both sides to CRC-32C
// length-prefixed binary frames (storage.AppendFrame/ReadFrame)
// carrying the same JSON payloads.
package linkd

import (
	"encoding/json"
	"errors"
	"fmt"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
)

// Request types (client → server).
const (
	TypeHello = "hello" // framing negotiation
	TypePing  = "ping"  // liveness probe
	TypeAdd   = "add"   // register a fingerprint observation
	TypeQuery = "query" // rank linking candidates for a fingerprint
)

// Response types (server → client).
const (
	TypePong       = "pong"
	TypeOK         = "ok"         // add accepted (durable per journal policy)
	TypeResult     = "result"     // query answered
	TypeOverloaded = "overloaded" // shed at admission: retry with backoff
	TypeError      = "error"
)

// Linker modes a Result reports (and the mode gauge exposes).
const (
	ModeLearning = "learning"
	ModeRule     = "rule"
)

// Protocol limits. Requests outside them are rejected at decode time,
// before any work is admitted.
const (
	// MaxK caps the candidates one query may request.
	MaxK = 1000
	// DefaultK is used when a query leaves K zero.
	DefaultK = 10
	// MaxDeadlineMS caps the client-supplied deadline; a query that
	// asks for more gets an error, not a silent clamp.
	MaxDeadlineMS = 60_000
	// DefaultMaxFrame bounds one request frame in bytes.
	DefaultMaxFrame = 1 << 20
)

// Request is a client→server message.
type Request struct {
	Type string `json:"type"`
	// Framing is the framing mode a hello requests.
	Framing string `json:"framing,omitempty"`
	// ID is the instance whose fingerprint an add registers.
	ID string `json:"id,omitempty"`
	// Record carries the fingerprint of an add or query.
	Record *fingerprint.Record `json:"record,omitempty"`
	// K is how many candidates a query wants (DefaultK when 0).
	K int `json:"k,omitempty"`
	// DeadlineMS is the query's compute budget in milliseconds from
	// arrival; 0 means no deadline beyond the server's own limits. The
	// deadline propagates into the scoring workers, so an expired query
	// stops consuming CPU mid-scan.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Response is a server→client message.
type Response struct {
	Type  string `json:"type"`
	Error string `json:"error,omitempty"`
	// Framing confirms a hello.
	Framing string `json:"framing,omitempty"`
	// Candidates are a query's ranked results, best first.
	Candidates []fpstalker.Candidate `json:"candidates,omitempty"`
	// Mode names the linker variant that served a query — how a client
	// observes degradation.
	Mode string `json:"mode,omitempty"`
}

// ErrBadRequest wraps every validation failure DecodeRequest reports.
var ErrBadRequest = errors.New("linkd: bad request")

// DecodeRequest parses and validates one request payload. Every frame
// off the wire funnels through here, so the fuzz target for the
// decoder covers the full parse-then-validate surface: malformed JSON,
// unknown types, missing records, oversized k, absurd deadlines.
func DecodeRequest(payload []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("%w: malformed JSON: %v", ErrBadRequest, err)
	}
	switch req.Type {
	case TypeHello, TypePing:
		return &req, nil
	case TypeAdd:
		if req.ID == "" {
			return nil, fmt.Errorf("%w: add without id", ErrBadRequest)
		}
		if req.Record == nil || req.Record.FP == nil {
			return nil, fmt.Errorf("%w: add without record", ErrBadRequest)
		}
		return &req, nil
	case TypeQuery:
		if req.Record == nil || req.Record.FP == nil {
			return nil, fmt.Errorf("%w: query without record", ErrBadRequest)
		}
		if req.K < 0 || req.K > MaxK {
			return nil, fmt.Errorf("%w: k %d outside [0, %d]", ErrBadRequest, req.K, MaxK)
		}
		if req.K == 0 {
			req.K = DefaultK
		}
		if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
			return nil, fmt.Errorf("%w: deadline %dms outside [0, %d]", ErrBadRequest, req.DeadlineMS, MaxDeadlineMS)
		}
		return &req, nil
	case "":
		return nil, fmt.Errorf("%w: missing type", ErrBadRequest)
	default:
		return nil, fmt.Errorf("%w: unknown type %q", ErrBadRequest, req.Type)
	}
}
