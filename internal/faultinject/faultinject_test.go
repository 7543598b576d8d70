package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestWriterFailAfterBytes(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, Script: &Script{FailAfter: 10}}
	n, err := w.Write(make([]byte, 6))
	if n != 6 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	// The write crossing the 10-byte boundary transfers 4 and fails.
	n, err = w.Write(make([]byte, 6))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("boundary write: n=%d err=%v", n, err)
	}
	if buf.Len() != 10 {
		t.Fatalf("underlying saw %d bytes, want 10", buf.Len())
	}
	// Once tripped, everything fails without transferring.
	if n, err := w.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-trip write: n=%d err=%v", n, err)
	}
	if !w.Script.tripped {
		t.Fatal("script not marked tripped")
	}
}

func TestWriterShortWrites(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf, Script: &Script{ShortWrites: true}}
	n, err := w.Write(make([]byte, 8))
	if n != 4 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// A 1-byte write cannot be shortened.
	if n, err := w.Write([]byte("x")); n != 1 || err != nil {
		t.Fatalf("1-byte write: n=%d err=%v", n, err)
	}
}

func TestWriterCustomError(t *testing.T) {
	sentinel := errors.New("boom")
	w := &Writer{W: io.Discard, Script: &Script{FailAfter: 1, Err: sentinel}}
	if _, err := w.Write([]byte("ab")); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestNilScriptPassesThrough(t *testing.T) {
	var buf bytes.Buffer
	w := &Writer{W: &buf}
	if n, err := w.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestConnDropAfterBytes(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := &Conn{Conn: a, WriteScript: &Script{FailAfter: 4}, CloseOnTrip: true}
	errs := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		total := 0
		for {
			n, err := b.Read(buf[total:])
			total += n
			if err != nil {
				if total != 4 {
					errs <- errors.New("peer saw wrong byte count")
					return
				}
				errs <- nil
				return
			}
		}
	}()
	n, err := fc.Write([]byte("abcdefgh"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// The conn closed on trip: further writes fail at the transport.
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("write succeeded on closed conn")
	}
}

func TestConnStall(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := &Conn{Conn: a, WriteScript: &Script{Stall: 30 * time.Millisecond}}
	go io.Copy(io.Discard, b)
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("write returned after %v, want >= stall", d)
	}
}

func TestConnReadBudgetRefund(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := &Conn{Conn: a, ReadScript: &Script{FailAfter: 10}}
	go b.Write([]byte("abc"))
	buf := make([]byte, 64)
	n, err := fc.Read(buf)
	if n != 3 || err != nil {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	// Only 3 of the 10-byte budget is consumed: 7 more bytes pass.
	go b.Write([]byte("defghijkl")) // 9 bytes: fault fires at byte 7
	total := 0
	for {
		n, err = fc.Read(buf)
		total += n
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("read err = %v", err)
			}
			break
		}
	}
	if total != 7 {
		t.Fatalf("read %d more bytes before trip, want 7", total)
	}
}

type memFile struct {
	bytes.Buffer
	syncs int
}

func (m *memFile) Sync() error  { m.syncs++; return nil }
func (m *memFile) Close() error { return nil }

func TestFileFailSyncAt(t *testing.T) {
	mf := &memFile{}
	f := &File{F: mf, FailSyncAt: 2}
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("third sync: %v", err)
	}
	if mf.syncs != 1 {
		t.Fatalf("underlying synced %d times, want 1", mf.syncs)
	}
	if f.syncs != 3 {
		t.Fatalf("observed %d syncs, want 3", f.syncs)
	}
}

func TestFileWriteFault(t *testing.T) {
	mf := &memFile{}
	f := &File{F: mf, Script: &Script{FailAfter: 3}}
	if n, err := f.Write([]byte("abcd")); n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if mf.Len() != 3 {
		t.Fatalf("underlying holds %d bytes, want 3", mf.Len())
	}
}
