// Package collector implements the measurement platform of Figure 1:
// a data-collection client whose task manager gathers feature groups in
// parallel, a transfer module that content-addresses bulky feature
// values so the client sends only a hash when the server already holds
// the value (§2.2.1), and a TCP data-storage server that reconstructs
// and appends full visit records to a storage.ShardedStore.
package collector

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
)

// Message types of the wire protocol. The protocol is newline-delimited
// JSON over a single TCP connection; every request gets exactly one
// response.
const (
	TypeCheck = "check" // client → server: which of these value hashes do you have?
	TypePing  = "ping"  // client → server: liveness probe
	TypeHello = "hello" // client → server: framing negotiation
	TypeBatch = "batch" // client → server: records plus any values the server was missing

	TypeNeed  = "need"  // server → client: the hashes it does not have
	TypeOK    = "ok"    // server → client: record accepted
	TypePong  = "pong"  // server → client: liveness reply
	TypeError = "error" // server → client: request rejected
)

// Framing modes a hello exchange can negotiate. The connection starts
// in newline-JSON; when client and server agree on binary, both sides
// switch — after the hello response — to CRC-32C length-prefixed
// frames (storage.AppendFrame/ReadFrame) carrying the same JSON
// payloads. A legacy server answers hello with TypeError and the
// client simply stays on JSON, so new clients interoperate with old
// servers and vice versa.
const (
	FramingJSON   = "json"
	FramingBinary = "binary"
)

// BatchItem is one record inside a TypeBatch request. The batch shares
// one ClientID (on the Request); each item carries its own sequence
// number and any value blobs the server was missing.
type BatchItem struct {
	Record *fingerprint.Record `json:"record"`
	// Refs maps dedup field names to the hash of their content; the
	// record is sent with those fields stripped.
	Refs map[string]string `json:"refs,omitempty"`
	// Values carries the content for hashes the server reported missing.
	Values map[string][]byte `json:"values,omitempty"`
	// Seq is monotonic per ClientID; a reconnecting client resubmits an
	// un-ACKed record under its original Seq and the server appends it
	// at most once.
	Seq uint64 `json:"seq,omitempty"`
}

// Ack is one record's outcome inside a TypeBatch response. A non-empty
// Error marks where the server stopped: the ack list is always a
// prefix of the batch (plus at most one failed item), and nothing past
// it was ACKed. Un-acked items may or may not have reached stable
// storage (a group commit can fail after some shards committed); the
// client retransmits them and the per-client sequence table turns any
// that did land into dups — preserving the in-order idempotency
// invariant either way.
type Ack struct {
	Index int    `json:"index"`
	Dup   bool   `json:"dup,omitempty"`
	Error string `json:"error,omitempty"`
}

// Request is a client→server message.
type Request struct {
	Type   string   `json:"type"`
	Hashes []string `json:"hashes,omitempty"`
	// ClientID and each item's Seq form the client-assigned sequence ID
	// of a batch's records. Empty ClientID opts out of deduplication.
	ClientID string `json:"cid,omitempty"`
	// Framing is the framing mode a hello requests.
	Framing string `json:"framing,omitempty"`
	// Batch carries the records of a TypeBatch request, in sequence
	// order.
	Batch []BatchItem `json:"batch,omitempty"`
}

// Response is a server→client message.
type Response struct {
	Type   string   `json:"type"`
	Hashes []string `json:"hashes,omitempty"`
	Error  string   `json:"error,omitempty"`
	// Framing is the framing mode a hello reply confirms.
	Framing string `json:"framing,omitempty"`
	// Acks are the per-record outcomes of a TypeBatch request.
	Acks []Ack `json:"acks,omitempty"`
}

// Dedup field names: the list-valued features bulky enough to be worth
// content addressing. The font list alone dominates record size.
const (
	FieldFonts   = "fonts"
	FieldPlugins = "plugins"
	FieldHeaders = "hdrs"
	FieldLangs   = "langs"
)

// DedupFields enumerates the dedupable fields in a stable order.
var DedupFields = []string{FieldFonts, FieldPlugins, FieldHeaders, FieldLangs}

// fieldValue extracts a dedup field's list from a fingerprint.
func fieldValue(fp *fingerprint.Fingerprint, field string) []string {
	switch field {
	case FieldFonts:
		return fp.Fonts
	case FieldPlugins:
		return fp.Plugins
	case FieldHeaders:
		return fp.HeaderList
	case FieldLangs:
		return fp.Languages
	}
	return nil
}

// setFieldValue writes a dedup field's list back into a fingerprint.
func setFieldValue(fp *fingerprint.Fingerprint, field string, v []string) {
	switch field {
	case FieldFonts:
		fp.Fonts = v
	case FieldPlugins:
		fp.Plugins = v
	case FieldHeaders:
		fp.HeaderList = v
	case FieldLangs:
		fp.Languages = v
	}
}

// encodeList canonically serializes a list value for content
// addressing.
func encodeList(v []string) []byte {
	b, _ := json.Marshal(v) // string slices cannot fail to marshal
	return b
}

// decodeList parses a stored list value.
func decodeList(b []byte) ([]string, error) {
	var v []string
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("collector: bad list value: %w", err)
	}
	return v, nil
}

// StripRecord splits a record into its wire form: a copy with dedup
// fields removed, the field→hash reference map, and the hash→content
// blobs. The caller sends only the blobs the server reports missing.
// Each list is encoded once, for both its hash and its blob; an empty
// list is encoded as nil (null), so it shares a nil list's address.
func StripRecord(r *fingerprint.Record) (wire *fingerprint.Record, refs map[string]string, blobs map[string][]byte) {
	cp := *r
	fp := *r.FP
	cp.FP = &fp
	refs = make(map[string]string, len(DedupFields))
	blobs = make(map[string][]byte, len(DedupFields))
	for _, field := range DedupFields {
		v := fieldValue(&fp, field)
		if len(v) == 0 {
			v = nil
		}
		b := encodeList(v)
		h := hashutil.SHA1HexBytes(b)
		refs[field] = h
		blobs[h] = b
		setFieldValue(&fp, field, nil)
	}
	return &cp, refs, blobs
}

// ValueLists resolves content addresses to decoded list values over a
// value store's lookup. Each hash is decoded once, on its first
// successful resolve, and every record restored from it afterwards
// shares that slice. This is sound because a stored value never
// changes under its hash: the store ignores a re-put, and the server
// checks each value against its hash before storing it. The shared
// slices are cap-clipped, so an append to one record's list copies
// instead of writing into another's. A decode failure is not kept: it
// fails again, with the same error, on the next resolve.
type ValueLists struct {
	lookup func(hash string) ([]byte, bool)
	lists  sync.Map // hash → []string
}

// NewValueLists returns an empty memo over lookup.
func NewValueLists(lookup func(hash string) ([]byte, bool)) *ValueLists {
	return &ValueLists{lookup: lookup}
}

// resolve returns the list stored under hash; ok is false when the
// store does not hold it.
func (vl *ValueLists) resolve(hash string) ([]string, bool, error) {
	if v, ok := vl.lists.Load(hash); ok {
		return v.([]string), true, nil
	}
	content, ok := vl.lookup(hash)
	if !ok {
		return nil, false, nil
	}
	v, err := decodeList(content)
	if err != nil {
		return nil, true, err
	}
	shared, _ := vl.lists.LoadOrStore(hash, v[:len(v):len(v)])
	return shared.([]string), true, nil
}

// RestoreRecord reinstates dedup fields on a wire record from lists.
func RestoreRecord(wire *fingerprint.Record, refs map[string]string, lists *ValueLists) (*fingerprint.Record, error) {
	fields := make([]string, 0, len(refs))
	for f := range refs {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, field := range fields {
		h := refs[field]
		v, ok, err := lists.resolve(h)
		if !ok {
			return nil, fmt.Errorf("collector: missing value %s for field %s", h, field)
		}
		if err != nil {
			return nil, err
		}
		setFieldValue(wire.FP, field, v)
	}
	return wire, nil
}
