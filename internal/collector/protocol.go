// Package collector implements the measurement platform of Figure 1:
// a data-collection client whose task manager gathers feature groups in
// parallel, a transfer module that content-addresses bulky feature
// values so the client sends only a hash when the server already holds
// the value (§2.2.1), and a TCP data-storage server that reconstructs
// and appends full visit records to a storage.ShardedStore.
package collector

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
)

// Message types of the wire protocol. Every request gets exactly one
// response, in the framing it arrived in.
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
// frames (storage.AppendFrame/ReadFrame) whose payloads are the binary
// codec below. A server that does not know hello answers TypeError and
// the client stays on newline-JSON, so a client works against any
// server that speaks newline-JSON. Over binary frames both sides must
// speak this codec: its version byte makes a peer that sends JSON
// payloads in binary frames fail loudly — the server answers
// "malformed request" and hangs up, the client reports a version error
// — instead of being misread.
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

// The binary payload codec: what a binary frame carries, in both
// directions. Layout, every integer a uvarint and every string its
// length then its bytes (fingerprint.AppendString):
//
//	version byte (wireVersion)
//	type     string
//	fields   by type:
//	  check, need  hash count, then the hashes
//	  hello        framing
//	  error        error
//	  batch        client ID, item count, then per item: seq, the wire
//	               record (fingerprint.AppendRecord), the ref count and
//	               (field, hash) pairs in field order, then the value
//	               count and (hash, content) pairs in hash order, each
//	               content raw length-prefixed bytes
//	  ok           ack count, then per ack: index (zigzag varint, -1 on a
//	               dup), dup (0 or 1), error
//	  ping, pong and any other type: none
//
// Decoding is strict: a payload decodes only if encoding the result
// gives back the same bytes. Truncation, trailing bytes, non-minimal
// varints, keys out of order or repeated, and counts larger than the
// bytes that remain are all refused, and a count is checked before
// anything is allocated for it.
const wireVersion = 1

// Smallest encodings, in bytes, of the repeated elements: a count
// larger than the remaining bytes allow is refused up front.
const (
	minStringBytes = 1 // an empty string: its zero length
	minPairBytes   = 2 // two empty strings
	minAckBytes    = 3 // index, dup, empty error
	// minItemBytes is a seq, the smallest record (version, three time
	// varints, five empty strings, flags) and two empty counts.
	minItemBytes = 13
)

// errMalformedPayload reports a binary payload the codec refuses.
var errMalformedPayload = errors.New("collector: malformed binary payload")

// decoders pools the record decoders binary requests are read with. A
// fingerprint.Decoder is not safe for concurrent use, so each request
// takes its own; pooling keeps each one's intern table warm.
var decoders = sync.Pool{New: func() any { return fingerprint.NewDecoder() }}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = fingerprint.AppendString(dst, s)
	}
	return dst
}

// appendMap appends m's size, then its entries in key order.
func appendMap[V any](dst []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = fingerprint.AppendString(dst, k)
		dst = appendValue(dst, m[k])
	}
	return dst
}

// appendRequest appends req's binary payload to dst. Every batch item
// must carry a record.
func appendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, wireVersion)
	dst = fingerprint.AppendString(dst, req.Type)
	switch req.Type {
	case TypeCheck:
		dst = appendStrings(dst, req.Hashes)
	case TypeHello:
		dst = fingerprint.AppendString(dst, req.Framing)
	case TypeBatch:
		dst = fingerprint.AppendString(dst, req.ClientID)
		dst = binary.AppendUvarint(dst, uint64(len(req.Batch)))
		for i := range req.Batch {
			it := &req.Batch[i]
			dst = binary.AppendUvarint(dst, it.Seq)
			dst = fingerprint.AppendRecord(dst, it.Record)
			dst = appendMap(dst, it.Refs, fingerprint.AppendString)
			dst = appendMap(dst, it.Values, appendBytes)
		}
	}
	return dst
}

// appendResponse appends resp's binary payload to dst.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, wireVersion)
	dst = fingerprint.AppendString(dst, resp.Type)
	switch resp.Type {
	case TypeNeed:
		dst = appendStrings(dst, resp.Hashes)
	case TypeHello:
		dst = fingerprint.AppendString(dst, resp.Framing)
	case TypeError:
		dst = fingerprint.AppendString(dst, resp.Error)
	case TypeOK:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Acks)))
		for _, a := range resp.Acks {
			dst = binary.AppendVarint(dst, int64(a.Index))
			dup := byte(0)
			if a.Dup {
				dup = 1
			}
			dst = append(dst, dup)
			dst = fingerprint.AppendString(dst, a.Error)
		}
	}
	return dst
}

// wireReader is a bounds-checked cursor over one binary payload; the
// first error sticks, and every later read returns zero values. With a
// Decoder it interns strings and can read records.
type wireReader struct {
	p   []byte
	err error
	dec *fingerprint.Decoder
}

// newWireReader checks p's version byte and returns a reader over the
// rest.
func newWireReader(p []byte, dec *fingerprint.Decoder) *wireReader {
	r := &wireReader{dec: dec}
	switch {
	case len(p) == 0:
		r.err = errMalformedPayload
	case p[0] != wireVersion:
		r.err = fmt.Errorf("%w: version %d, want %d", errMalformedPayload, p[0], wireVersion)
	default:
		r.p = p[1:]
	}
	return r
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errMalformedPayload
	}
	r.p = nil
}

// skip consumes the n-byte varint at the front of the payload, or fails
// when n reports none or the varint is not in its shortest form (only
// a one-byte varint may end in a zero byte).
func (r *wireReader) skip(n int) bool {
	if n <= 0 || n > 1 && r.p[n-1] == 0 {
		r.fail()
		return false
	}
	r.p = r.p[n:]
	return true
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if !r.skip(n) {
		return 0
	}
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.p)
	if !r.skip(n) {
		return 0
	}
	return v
}

// count reads a count of elements that each take at least size bytes.
func (r *wireReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.p)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string; the result aliases the
// payload.
func (r *wireReader) bytes() []byte {
	n := r.count(1)
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

func (r *wireReader) str() string {
	if r.dec == nil {
		return string(r.bytes())
	}
	s, rest, err := r.dec.String(r.p)
	if err != nil {
		r.fail()
		return ""
	}
	r.p = rest
	return s
}

func (r *wireReader) strs() []string {
	n := r.count(minStringBytes)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// readMap reads an appendMap-encoded map, whose keys must be strictly
// increasing, reading each value with value.
func readMap[V any](r *wireReader, value func() V) map[string]V {
	n := r.count(minPairBytes)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := range n {
		k := r.str()
		if i > 0 && k <= prev {
			r.fail()
		}
		m[k] = value()
		prev = k
	}
	return m
}

func (r *wireReader) record() *fingerprint.Record {
	if r.err != nil {
		return nil
	}
	rec := new(fingerprint.Record)
	rest, err := r.dec.Decode(r.p, rec)
	if err != nil {
		r.fail()
		return nil
	}
	r.p = rest
	return rec
}

// end fails the read unless every byte was consumed, and returns its
// error.
func (r *wireReader) end() error {
	if r.err == nil && len(r.p) != 0 {
		r.fail()
	}
	return r.err
}

// decodeRequest decodes a binary request payload into req, reading
// records and interning strings through dec.
func decodeRequest(p []byte, req *Request, dec *fingerprint.Decoder) error {
	r := newWireReader(p, dec)
	req.Type = r.str()
	switch req.Type {
	case TypeCheck:
		req.Hashes = r.strs()
	case TypeHello:
		req.Framing = r.str()
	case TypeBatch:
		req.ClientID = r.str()
		n := r.count(minItemBytes)
		if n > 0 {
			req.Batch = make([]BatchItem, n)
		}
		for i := range req.Batch {
			it := &req.Batch[i]
			it.Seq = r.uvarint()
			it.Record = r.record()
			it.Refs = readMap(r, r.str)
			it.Values = readMap(r, r.bytes)
			if r.err != nil {
				return r.err
			}
		}
	}
	return r.end()
}

// decodeResponse decodes a binary response payload.
func decodeResponse(p []byte) (*Response, error) {
	r := newWireReader(p, nil)
	resp := &Response{Type: r.str()}
	switch resp.Type {
	case TypeNeed:
		resp.Hashes = r.strs()
	case TypeHello:
		resp.Framing = r.str()
	case TypeError:
		resp.Error = r.str()
	case TypeOK:
		if n := r.count(minAckBytes); n > 0 {
			resp.Acks = make([]Ack, n)
		}
		for i := range resp.Acks {
			a := &resp.Acks[i]
			idx := r.varint()
			dup := r.uvarint()
			if idx != int64(int(idx)) || dup > 1 {
				r.fail()
			}
			a.Index, a.Dup, a.Error = int(idx), dup == 1, r.str()
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return resp, nil
}
