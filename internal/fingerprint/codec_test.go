package fingerprint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"
)

// binaryRoundTrip encodes r and decodes it through a fresh Decoder.
func binaryRoundTrip(t testing.TB, r *Record) *Record {
	t.Helper()
	var got Record
	rest, err := NewDecoder().Decode(AppendRecord(nil, r), &got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	return &got
}

func jsonRoundTrip(t testing.TB, r *Record) *Record {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got := new(Record)
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	return got
}

func sampleRecord() *Record {
	return &Record{
		Time:    time.Date(2018, 3, 14, 15, 9, 26, 535897932, time.UTC),
		UserID:  "u-1f3a",
		Cookie:  "c-77",
		FP:      sample(),
		Browser: "Chrome",
		OS:      "Windows",
		Device:  "Other",
	}
}

// codecCases are the edge cases the JSON-equivalence property covers
// beside simulated records (those are checked in internal/population).
func codecCases() map[string]*Record {
	cases := map[string]*Record{"sample": sampleRecord()}
	r := sampleRecord()
	r.FP = nil
	r.Mobile = true
	cases["nil FP"] = r
	r = sampleRecord()
	r.FP.HeaderList, r.FP.Plugins, r.FP.Languages, r.FP.Fonts = nil, []string{}, nil, []string{}
	cases["nil and empty slices"] = r
	r = sampleRecord()
	r.FP.Fonts = []string{"", "Arial", ""}
	cases["empty strings in a list"] = r
	cases["zero record"] = &Record{}
	r = sampleRecord()
	r.Time = time.Time{}
	cases["zero time"] = r
	r = sampleRecord()
	r.Time = time.Date(2018, 1, 2, 3, 4, 5, 6, time.FixedZone("IST", 5*3600+1800))
	cases["non-UTC half-hour offset"] = r
	r = sampleRecord()
	r.Time = time.Date(2017, 12, 31, 23, 0, 0, 0, time.FixedZone("PST", -8*3600))
	cases["negative offset"] = r
	r = sampleRecord()
	r.Time = time.Date(2018, 6, 1, 0, 0, 0, 0, time.FixedZone("GMT", 0))
	cases["named zero offset"] = r
	r = sampleRecord()
	r.UserID, r.Device = "ユーザー", "Pixel 2 — “XL” ✓"
	r.FP.Fonts = []string{"微软雅黑", "Noto Color Emoji 😀", "Arial"}
	r.FP.IPCity = "São Paulo"
	r.FP.TimezoneOffset, r.FP.CPUCores, r.FP.ColorDepth = -570, 1<<40, -1
	cases["unicode and wide ints"] = r
	return cases
}

// TestRecordCodecMatchesJSON is the JSON-equivalence property: for
// every case, the binary round trip is reflect.DeepEqual to the JSON
// round trip — nil and empty slices, time locations included.
func TestRecordCodecMatchesJSON(t *testing.T) {
	for name, r := range codecCases() {
		if got, want := binaryRoundTrip(t, r), jsonRoundTrip(t, r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: binary round trip\n%+v\nJSON round trip\n%+v", name, got, want)
		}
	}
}

// TestRecordCodecLocalZone covers the third location branch: an offset
// that matches the local zone decodes as Local, as JSON does.
func TestRecordCodecLocalZone(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("CET", 3600)
	defer func() { time.Local = saved }()
	for _, loc := range []*time.Location{time.Local, time.FixedZone("", 3600), time.FixedZone("", 7200)} {
		r := sampleRecord()
		r.Time = time.Date(2018, 2, 3, 4, 5, 6, 7, loc)
		got, want := binaryRoundTrip(t, r), jsonRoundTrip(t, r)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: binary %v, JSON %v", loc, got.Time, want.Time)
		}
	}
}

// TestRecordCodecCoversEveryField sets every field of Record and
// Fingerprint to a distinct non-zero value by reflection, so a field
// added to the structs but not to the codec fails here.
func TestRecordCodecCoversEveryField(t *testing.T) {
	r := &Record{FP: &Fingerprint{}}
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			n++
			switch f.Kind() {
			case reflect.String:
				f.SetString(strings.Repeat("x", n))
			case reflect.Int:
				f.SetInt(int64(n))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Slice:
				f.Set(reflect.ValueOf([]string{strings.Repeat("s", n), "t"}))
			case reflect.Pointer:
				fill(f.Elem())
			case reflect.Struct: // time.Time
				f.Set(reflect.ValueOf(time.Unix(int64(n)*1e6, int64(n)).UTC()))
			default:
				t.Fatalf("field %s: kind %v not covered by this test", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(r).Elem())
	if got := binaryRoundTrip(t, r); !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", got.FP, r.FP)
	}
	// And every boolean on its own, so a flag-bit mixup shows.
	bools := fpBools(r.FP)
	for i := range bools {
		c := *r
		fp := *r.FP
		c.FP = &fp
		for j, b := range fpBools(c.FP) {
			*b = i == j
		}
		if got := binaryRoundTrip(t, &c); !reflect.DeepEqual(got, &c) {
			t.Fatalf("boolean %d alone does not round-trip", i)
		}
	}
}

// TestDecoderInternsStringsNotSlices checks that one Decoder shares the
// bytes of repeated strings across records while every record owns its
// slices, and that decoding into a reused Record leaves earlier
// records' slices alone.
func TestDecoderInternsStringsNotSlices(t *testing.T) {
	payload := AppendRecord(nil, sampleRecord())
	d := NewDecoder()
	var a, b Record
	if _, err := d.Decode(payload, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(payload, &b); err != nil {
		t.Fatal(err)
	}
	for i := range a.FP.Fonts {
		if unsafe.StringData(a.FP.Fonts[i]) != unsafe.StringData(b.FP.Fonts[i]) {
			t.Fatalf("font %q decoded twice into separate strings", a.FP.Fonts[i])
		}
	}
	if unsafe.StringData(a.FP.UserAgent) != unsafe.StringData(b.FP.UserAgent) {
		t.Fatal("user agent not interned")
	}
	if unsafe.StringData(a.UserID) == unsafe.StringData(b.UserID) {
		t.Fatal("user IDs are interned; they are meant to be read plain")
	}
	b.FP.Fonts[0] = "Comic Sans MS"
	b.FP.Plugins = append(b.FP.Plugins, "Flash")
	if a.FP.Fonts[0] != "Arial" {
		t.Fatal("two records share a Fonts slice")
	}
	if a.FP.Languages[0] != "en-US" || b.FP.Languages[0] != "en-US" {
		t.Fatal("appending to Plugins spilled into Languages")
	}
	// Reuse: decoding into b again reuses its Fingerprint but gives it
	// fresh slices, so a slice taken from b before stays intact.
	fonts, fp := b.FP.Fonts, b.FP
	if _, err := d.Decode(payload, &b); err != nil {
		t.Fatal(err)
	}
	if b.FP != fp {
		t.Fatal("Decode did not reuse the Record's Fingerprint")
	}
	if fonts[0] != "Comic Sans MS" || b.FP.Fonts[0] != "Arial" {
		t.Fatal("Decode wrote into a slice of the reused record")
	}
	if !reflect.DeepEqual(&b, binaryRoundTrip(t, sampleRecord())) {
		t.Fatal("decoding into a used Record left stale fields")
	}
}

// TestDecoderInternBound fills the table past its bound: the table
// stays bounded and decoding stays correct across the reset.
func TestDecoderInternBound(t *testing.T) {
	d := NewDecoder()
	r := sampleRecord()
	var got Record
	for i := 0; i < maxInterned/len(r.FP.Fonts)+10; i++ {
		r.FP.Fonts = []string{string(rune('a'+i%26)) + strings.Repeat("f", i), "Arial", "x" + strings.Repeat("y", i)}
		if _, err := d.Decode(AppendRecord(nil, r), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.FP.Fonts, r.FP.Fonts) {
			t.Fatalf("iteration %d: fonts %q, want %q", i, got.FP.Fonts, r.FP.Fonts)
		}
		if len(d.strs) > maxInterned {
			t.Fatalf("intern table grew to %d entries", len(d.strs))
		}
	}
}

// oversized builds payloads that declare a length or count larger
// than the bytes that follow, at each variable-length position.
func oversized() map[string][]byte {
	head := func() []byte {
		p := []byte{recordCodecVersion}
		p = binary.AppendVarint(p, 0)
		p = binary.AppendUvarint(p, 0)
		p = binary.AppendVarint(p, 0)
		return p
	}
	out := map[string][]byte{}
	p := head()
	out["UserID length"] = binary.AppendUvarint(p, 1<<40)
	p = head()
	for i := 0; i < 5; i++ {
		p = append(p, 0)
	}
	p = binary.AppendUvarint(p, flagFP)
	out["Fonts count"] = binary.AppendUvarint(append(p, 0, 0, 0), 1<<40)
	out["HeaderList count"] = binary.AppendUvarint(p[:len(p):len(p)], 1<<62)
	out["max count"] = binary.AppendUvarint(append(p[:len(p):len(p)], 0), ^uint64(0))
	q := append(p[:len(p):len(p)], 0, 0, 0, 0)
	out["UserAgent length"] = binary.AppendUvarint(q, 1<<40)
	q = append(p[:len(p):len(p)], 0, 0, 0, 3) // two fonts
	out["font length"] = binary.AppendUvarint(q, 1<<30)
	return out
}

// TestDecodeOversizedFailsWithoutAllocating: a declared length or count
// past the end of the payload is an error, and nothing is allocated
// for it. The record's Fingerprint is reused, so the count measures
// only what the decoder spends on the oversized field.
func TestDecodeOversizedFailsWithoutAllocating(t *testing.T) {
	d := NewDecoder()
	for name, p := range oversized() {
		rec := Record{FP: &Fingerprint{}}
		if _, err := d.Decode(p, &rec); !errors.Is(err, ErrMalformedRecord) {
			t.Fatalf("%s: want ErrMalformedRecord, got %v", name, err)
		}
		if name == "font length" {
			continue // the two-font list itself is legitimately allocated
		}
		if allocs := testing.AllocsPerRun(20, func() { d.Decode(p, &rec) }); allocs != 0 {
			t.Errorf("%s: %v allocations before failing", name, allocs)
		}
	}
}

// flagged re-encodes p, an encoded record, with its flags replaced by
// flags.
func flagged(p []byte, flags uint64) []byte {
	var r Record
	rest, err := NewDecoder().Decode(p, &r)
	if err != nil || len(rest) != 0 {
		panic(err)
	}
	// The flags follow the time and the five strings.
	head := AppendRecord(nil, &Record{Time: r.Time, UserID: r.UserID, Cookie: r.Cookie, Browser: r.Browser, OS: r.OS, Device: r.Device})
	head = head[:len(head)-1] // drop the zero flags byte
	_, n := binary.Uvarint(p[len(head):])
	return append(binary.AppendUvarint(head, flags), p[len(head)+n:]...)
}

// TestDecodeRejectsMalformed covers version, truncation, range and
// non-canonical encoding errors.
func TestDecodeRejectsMalformed(t *testing.T) {
	good := AppendRecord(nil, sampleRecord())
	epoch := AppendRecord(nil, &Record{Time: time.Unix(0, 0).UTC()})
	if _, err := NewDecoder().Decode(epoch, &Record{}); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"empty":     nil,
		"version":   append([]byte{recordCodecVersion + 1}, good[1:]...),
		"nanos":     append(binary.AppendUvarint(binary.AppendVarint([]byte{recordCodecVersion}, 0), uint64(time.Second)), make([]byte, 8)...),
		"truncated": good[:len(good)-1],
		// Zero seconds as the two-byte varint 0x80 0x00.
		"long varint": append([]byte{recordCodecVersion, 0x80, 0x00}, epoch[2:]...),
		"flag bit 11": flagged(good, flagsFP+1),
		"bool no fp":  flagged(AppendRecord(nil, &Record{}), flagBoolBase),
	}
	for i := 1; i < len(good); i += 7 {
		bad["cut at "+strconv.Itoa(i)] = good[:i]
	}
	for name, p := range bad {
		if _, err := NewDecoder().Decode(p, &Record{}); !errors.Is(err, ErrMalformedRecord) {
			t.Errorf("%s: want ErrMalformedRecord, got %v", name, err)
		}
		if _, err := NewDecoder().DecodeKey(p, &Record{}); !errors.Is(err, ErrMalformedRecord) {
			t.Errorf("%s: DecodeKey: want ErrMalformedRecord, got %v", name, err)
		}
	}
}

// keyFields is r reduced to the fields DecodeKey keeps.
func keyFields(r *Record) *Record {
	k := &Record{Time: r.Time, UserID: r.UserID, Cookie: r.Cookie,
		Browser: r.Browser, OS: r.OS, Device: r.Device, Mobile: r.Mobile}
	if r.FP != nil {
		k.FP = &Fingerprint{CPUClass: r.FP.CPUClass, CPUCores: r.FP.CPUCores,
			GPUVendor: r.FP.GPUVendor, GPURenderer: r.FP.GPURenderer}
	}
	return k
}

// checkDecodeKey holds DecodeKey to Decode on p: it fails exactly when
// Decode fails, and otherwise returns the same remaining bytes and
// exactly Decode's key fields.
func checkDecodeKey(t *testing.T, p []byte) {
	t.Helper()
	var full, key Record
	restFull, errFull := NewDecoder().Decode(p, &full)
	restKey, errKey := NewDecoder().DecodeKey(p, &key)
	if (errFull == nil) != (errKey == nil) {
		t.Fatalf("Decode error %v, DecodeKey error %v", errFull, errKey)
	}
	if errFull != nil {
		return
	}
	if len(restFull) != len(restKey) {
		t.Fatalf("Decode left %d bytes, DecodeKey %d", len(restFull), len(restKey))
	}
	if want := keyFields(&full); !reflect.DeepEqual(&key, want) {
		t.Fatalf("DecodeKey:\n got %+v\nwant %+v", key, *want)
	}
}

// fuzzRecord builds a record from fuzz input: data split on NUL feeds
// the strings and lists in turn, the integers the time and the ints.
func fuzzRecord(data []byte, sec int64, nsec uint32, offset int32, flags uint16) *Record {
	parts := strings.Split(string(data), "\x00")
	next := func() string {
		s := parts[0]
		parts = append(parts[1:], s)
		return s
	}
	r := &Record{
		Time:   decodeTime(sec, int64(nsec%uint32(time.Second)), int(offset)),
		UserID: next(), Cookie: next(), Browser: next(), OS: next(), Device: next(),
		Mobile: flags&1 != 0,
	}
	if flags&2 == 0 {
		return r
	}
	r.FP = &Fingerprint{}
	for i, l := range fpLists(r.FP) {
		switch n := int(flags>>(2+2*i)) & 3; n {
		case 0: // nil
		case 1:
			*l = []string{}
		default:
			for j := 0; j < n+len(parts)%5; j++ {
				*l = append(*l, next())
			}
		}
	}
	for _, s := range fpStrings(r.FP) {
		*s = next()
	}
	for i, v := range fpInts(r.FP) {
		*v = int(sec>>(8*i)) ^ int(offset)
	}
	for i, b := range fpBools(r.FP) {
		*b = (flags>>(10+i%6))&1 != 0
	}
	return r
}

// FuzzRecordCodec: arbitrary bytes never panic the decoder, whatever
// decodes re-encodes to the bytes it was read from, records built from the input
// round-trip exactly, and DecodeKey agrees with Decode on both.
func FuzzRecordCodec(f *testing.F) {
	for _, r := range codecCases() {
		f.Add(AppendRecord(nil, r), r.Time.Unix(), uint32(r.Time.Nanosecond()), int32(0), uint16(0xffff))
	}
	for _, p := range oversized() {
		f.Add(p, int64(-62135596800), uint32(0), int32(19800), uint16(0x2aa))
	}
	f.Fuzz(func(t *testing.T, data []byte, sec int64, nsec uint32, offset int32, flags uint16) {
		checkDecodeKey(t, data)
		d := NewDecoder()
		var got Record
		if rest, err := d.Decode(data, &got); err == nil {
			enc := AppendRecord(nil, &got)
			if !bytes.Equal(enc, data[:len(data)-len(rest)]) {
				t.Fatalf("decoded record re-encodes to other bytes")
			}
			var again Record
			if _, err := d.Decode(enc, &again); err != nil {
				t.Fatalf("re-decoding a decoded record: %v", err)
			}
			if !reflect.DeepEqual(&got, &again) {
				t.Fatalf("decode→encode→decode changed the record")
			}
			if !bytes.Equal(AppendRecord(nil, &again), enc) {
				t.Fatalf("encoding is not a fixed point")
			}
		} else if !errors.Is(err, ErrMalformedRecord) {
			t.Fatalf("error %v does not wrap ErrMalformedRecord", err)
		}

		r := fuzzRecord(data, sec, nsec, offset, flags)
		checkDecodeKey(t, AppendRecord(nil, r))
		got = Record{}
		rest, err := d.Decode(AppendRecord(nil, r), &got)
		if err != nil || len(rest) != 0 {
			t.Fatalf("round trip: err %v, %d trailing bytes", err, len(rest))
		}
		if !reflect.DeepEqual(&got, r) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, *r)
		}
		// Records JSON carries faithfully must agree with its round trip:
		// RFC 3339 drops offset seconds, and JSON replaces invalid UTF-8.
		if _, err := json.Marshal(r); err == nil && offset%60 == 0 && validUTF8(r) {
			if want := jsonRoundTrip(t, r); !reflect.DeepEqual(&got, want) {
				t.Fatalf("binary and JSON round trips differ:\n got %+v\nwant %+v", got, *want)
			}
		}
	})
}

func validUTF8(r *Record) bool {
	strs := []string{r.UserID, r.Cookie, r.Browser, r.OS, r.Device}
	if r.FP != nil {
		for _, s := range fpStrings(r.FP) {
			strs = append(strs, *s)
		}
		for _, l := range fpLists(r.FP) {
			strs = append(strs, *l...)
		}
	}
	for _, s := range strs {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

func BenchmarkAppendRecord(b *testing.B) {
	r := sampleRecord()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], r)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecodeRecord(b *testing.B) {
	p := AppendRecord(nil, sampleRecord())
	d := NewDecoder()
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		var r Record
		if _, err := d.Decode(p, &r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONUnmarshalRecord(b *testing.B) {
	p, err := json.Marshal(sampleRecord())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		if err := json.Unmarshal(p, new(Record)); err != nil {
			b.Fatal(err)
		}
	}
}
