package fingerprint

// The binary record codec: an append-style encoding of Record for the
// streamed pipeline's spill runs, where reflective JSON was most of the
// decode cost. Layout (version 1), every integer a varint:
//
//	version byte
//	time       unix seconds (zigzag), nanoseconds, zone offset seconds (zigzag)
//	UserID Cookie Browser OS Device    strings: length, bytes
//	flags      bit 0 FP present, bit 1 Mobile, bits 2-10 the FP booleans
//	FP (when present):
//	  slice counts for HeaderList Plugins Languages Fonts, each 0 for
//	  nil and n+1 otherwise (so nil and empty survive as JSON gives them),
//	  then their elements in that order, then the 17 string features
//	  (fpStrings) and the 3 int features (fpInts, zigzag).
//
// A version byte leads so a format change is refused, not misread.
// Decoding is strict: a record decodes only if AppendRecord gives back
// the bytes it was read from, so a non-minimal varint or a flag bit the
// format does not define is refused. The decoder interns repeated
// strings (fonts, plugins, UA, GPU, ...) in a bounded per-decoder
// table; user, cookie and IP identifiers are read plain because they
// rarely repeat.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// recordCodecVersion is the leading byte of every encoded record.
const recordCodecVersion = 1

// maxInterned bounds a Decoder's string table; the table is emptied
// when it fills, so memory stays bounded whatever the input.
const maxInterned = 1 << 14

// ErrMalformedRecord reports a binary record that is truncated, declares
// a length or count larger than the bytes that remain, or carries an
// unknown version.
var ErrMalformedRecord = errors.New("fingerprint: malformed binary record")

// Record flag bits; the FP booleans follow from bit 2 in fpBools order.
const (
	flagFP = 1 << iota
	flagMobile
	flagBoolBase

	// flagsFP is every bit a record with a fingerprint may set: FP,
	// Mobile and the nine booleans. Without a fingerprint only Mobile
	// may be set.
	flagsFP = flagBoolBase<<9 - 1
)

// The fingerprint's fields by kind, in wire order. Encode and decode
// both walk these, so the order is written down once.
func fpBools(fp *Fingerprint) [9]*bool {
	return [9]*bool{
		&fp.CookieEnabled, &fp.WebGL, &fp.LocalStorage, &fp.AddBehavior, &fp.OpenDatabase,
		&fp.ConsLanguage, &fp.ConsResolution, &fp.ConsOS, &fp.ConsBrowser,
	}
}

func fpLists(fp *Fingerprint) [4]*[]string {
	return [4]*[]string{&fp.HeaderList, &fp.Plugins, &fp.Languages, &fp.Fonts}
}

func fpStrings(fp *Fingerprint) [17]*string {
	return [17]*string{
		&fp.UserAgent, &fp.Accept, &fp.Encoding, &fp.Language, &fp.CanvasHash,
		&fp.GPUVendor, &fp.GPURenderer, &fp.GPUType, &fp.CPUClass, &fp.AudioInfo,
		&fp.ScreenResolution, &fp.PixelRatio, &fp.IPAddr, &fp.IPCity, &fp.IPRegion,
		&fp.IPCountry, &fp.GPUImageHash,
	}
}

func fpInts(fp *Fingerprint) [3]*int {
	return [3]*int{&fp.TimezoneOffset, &fp.CPUCores, &fp.ColorDepth}
}

// AppendString appends s in the codec's string encoding (varint length,
// then the bytes). Callers that wrap a record in a larger item use it
// for their own string fields.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendSliceCount(dst []byte, s []string) []byte {
	if s == nil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(len(s))+1)
}

// AppendRecord appends the binary encoding of r to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, recordCodecVersion)
	// Seconds plus nanoseconds rather than UnixNano, which overflows for
	// the zero time.
	_, offset := r.Time.Zone()
	dst = binary.AppendVarint(dst, r.Time.Unix())
	dst = binary.AppendUvarint(dst, uint64(r.Time.Nanosecond()))
	dst = binary.AppendVarint(dst, int64(offset))
	for _, s := range [...]string{r.UserID, r.Cookie, r.Browser, r.OS, r.Device} {
		dst = AppendString(dst, s)
	}
	var flags uint64
	if r.Mobile {
		flags |= flagMobile
	}
	fp := r.FP
	if fp == nil {
		return binary.AppendUvarint(dst, flags)
	}
	flags |= flagFP
	for i, b := range fpBools(fp) {
		if *b {
			flags |= flagBoolBase << i
		}
	}
	dst = binary.AppendUvarint(dst, flags)
	lists := fpLists(fp)
	for _, l := range lists {
		dst = appendSliceCount(dst, *l)
	}
	for _, l := range lists {
		for _, s := range *l {
			dst = AppendString(dst, s)
		}
	}
	for _, s := range fpStrings(fp) {
		dst = AppendString(dst, *s)
	}
	for _, v := range fpInts(fp) {
		dst = binary.AppendVarint(dst, int64(*v))
	}
	return dst
}

// Decoder decodes binary records. It keeps a bounded intern table so
// strings that repeat across records (the ~48 fonts of a fingerprint
// among a few hundred distinct ones, UAs, GPU strings) are allocated
// once and shared; decoded records never share slices. A Decoder is not
// safe for concurrent use: give each consumer its own.
type Decoder struct {
	strs map[string]string
}

// NewDecoder returns a Decoder with an empty intern table.
func NewDecoder() *Decoder {
	return &Decoder{strs: make(map[string]string)}
}

func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if len(d.strs) >= maxInterned {
		clear(d.strs)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// reader is a bounds-checked cursor over one payload; the first error
// sticks and every later read returns zero values.
type reader struct {
	p   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrMalformedRecord
	}
	r.p = nil
}

// minimal reports whether the n-byte varint at the front of p is in its
// shortest form: only a one-byte varint may end in a zero byte.
func minimal(p []byte, n int) bool {
	return n == 1 || (n > 1 && p[n-1] != 0)
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if !minimal(r.p, n) {
		r.fail()
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.p)
	if !minimal(r.p, n) {
		r.fail()
		return 0
	}
	r.p = r.p[n:]
	return v
}

// bytes reads a length-prefixed byte string; the result aliases the
// payload.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.fail()
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

// String decodes one AppendString-encoded string from the front of p
// through the intern table and returns it with the remaining bytes.
func (d *Decoder) String(p []byte) (string, []byte, error) {
	r := reader{p: p}
	b := r.bytes()
	if r.err != nil {
		return "", nil, r.err
	}
	return d.intern(b), r.p, nil
}

// Decode decodes one record from the front of p into rec, overwriting
// every field, and returns the bytes after it. A non-nil rec.FP is
// reused for the fingerprint (and may be partly overwritten on error);
// its slices are always fresh, so slices handed out earlier are never
// touched. Malformed input yields an error wrapping ErrMalformedRecord,
// never a panic, and an oversized length or count fails before anything
// is allocated for it.
func (d *Decoder) Decode(p []byte, rec *Record) ([]byte, error) {
	return d.decode(p, rec, false)
}

// DecodeKey is Decode for consumers that only need a record's
// browser-ID key: it walks and checks the whole record exactly as
// Decode does, and fails exactly when Decode fails, but keeps only
// Time, UserID, Cookie, Browser, OS, Device and Mobile, plus the FP's
// CPUClass, CPUCores, GPUVendor and GPURenderer. Every other FP field
// is left zero, so the fingerprint's lists are never allocated.
func (d *Decoder) DecodeKey(p []byte, rec *Record) ([]byte, error) {
	return d.decode(p, rec, true)
}

func (d *Decoder) decode(p []byte, rec *Record, keyOnly bool) ([]byte, error) {
	if len(p) == 0 {
		return nil, ErrMalformedRecord
	}
	if p[0] != recordCodecVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrMalformedRecord, p[0], recordCodecVersion)
	}
	r := reader{p: p[1:]}
	sec, nsec, offset := r.varint(), r.uvarint(), r.varint()
	userID, cookie := string(r.bytes()), string(r.bytes())
	browser, osName, device := d.intern(r.bytes()), d.intern(r.bytes()), d.intern(r.bytes())
	flags := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if nsec >= uint64(time.Second) {
		return nil, fmt.Errorf("%w: nanoseconds %d out of range", ErrMalformedRecord, nsec)
	}
	allowed := uint64(flagMobile)
	if flags&flagFP != 0 {
		allowed = flagsFP
	}
	if flags&^allowed != 0 {
		return nil, fmt.Errorf("%w: flags %#x", ErrMalformedRecord, flags)
	}
	var fp *Fingerprint
	if flags&flagFP != 0 {
		var err error
		if fp, err = d.decodeFP(&r, flags, rec.FP, keyOnly); err != nil {
			return nil, err
		}
	}
	*rec = Record{
		Time:    decodeTime(sec, int64(nsec), int(offset)),
		UserID:  userID,
		Cookie:  cookie,
		FP:      fp,
		Browser: browser,
		OS:      osName,
		Device:  device,
		Mobile:  flags&flagMobile != 0,
	}
	return r.p, nil
}

// decodeTime rebuilds the location exactly as a JSON (RFC 3339) round
// trip does: offset 0 is UTC, an offset matching the local zone at that
// instant is Local, anything else an unnamed fixed zone.
func decodeTime(sec, nsec int64, offset int) time.Time {
	t := time.Unix(sec, nsec)
	if offset == 0 {
		return t.UTC()
	}
	if _, local := t.Zone(); local == offset {
		return t
	}
	return t.In(time.FixedZone("", offset))
}

// decodeFP decodes the fingerprint into reuse, or a new Fingerprint
// when reuse is nil. keyOnly skips over every field but the browser-ID
// key's.
func (d *Decoder) decodeFP(r *reader, flags uint64, reuse *Fingerprint, keyOnly bool) (*Fingerprint, error) {
	var counts [4]uint64
	var total uint64
	for i := range counts {
		counts[i] = r.uvarint()
		// Every element takes at least its one-byte length, so a count
		// past the remaining bytes is malformed before anything is
		// allocated for it.
		if counts[i] > uint64(len(r.p))+1 {
			r.fail()
		}
		if counts[i] > 0 {
			total += counts[i] - 1
		}
	}
	if r.err != nil || total > uint64(len(r.p)) {
		return nil, ErrMalformedRecord
	}
	fp := reuse
	if fp == nil {
		fp = new(Fingerprint)
	} else {
		*fp = Fingerprint{}
	}
	if keyOnly {
		for range total {
			r.bytes()
		}
		for _, s := range fpStrings(fp) {
			if b := r.bytes(); s == &fp.CPUClass || s == &fp.GPUVendor || s == &fp.GPURenderer {
				*s = d.intern(b)
			}
		}
		for _, v := range fpInts(fp) {
			if n := int(r.varint()); v == &fp.CPUCores {
				*v = n
			}
		}
		return fp, r.err
	}
	// One backing array serves all four lists; each gets a capped
	// window, so appending to one never spills into the next.
	backing := make([]string, total)
	for i, l := range fpLists(fp) {
		if counts[i] == 0 {
			continue
		}
		n := counts[i] - 1
		*l, backing = backing[:n:n], backing[n:]
		for j := range *l {
			(*l)[j] = d.intern(r.bytes())
		}
	}
	for _, s := range fpStrings(fp) {
		if s == &fp.IPAddr {
			*s = string(r.bytes()) // rarely repeats; keep it out of the table
		} else {
			*s = d.intern(r.bytes())
		}
	}
	for _, v := range fpInts(fp) {
		*v = int(r.varint())
	}
	for i, b := range fpBools(fp) {
		*b = flags&(flagBoolBase<<i) != 0
	}
	return fp, r.err
}
