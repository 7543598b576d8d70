// Package faultinject provides scripted failure injection for the
// collection platform's robustness tests: wrappers over net.Conn,
// io.Writer, and the storage tier's segment files that drop a
// connection after N bytes, stall, return short writes, or fail fsync
// on cue. The chaos tests in internal/collector use them to prove the
// WAL-backed store loses no ACKed record across crashes (the paper's
// §2.2 outage scenario, pushed down from "server unreachable" to
// "server torn mid-write").
package faultinject

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// ErrInjected is the default error returned by a tripped fault script.
var ErrInjected = errors.New("faultinject: injected fault")

// Script is a byte-budget fault plan shared by the writer and conn
// wrappers. The zero value injects nothing. A Script must not be
// shared between wrappers unless the combined byte budget is intended.
type Script struct {
	// FailAfter injects Err once this many bytes have passed through
	// (0 disables). The operation that crosses the boundary transfers
	// the bytes up to it and returns the error.
	FailAfter int64
	// Err is the injected error; defaults to ErrInjected.
	Err error
	// ShortWrites makes every write transfer at most half its buffer,
	// returning io.ErrShortWrite for the remainder. Exercises callers'
	// partial-write handling.
	ShortWrites bool
	// Stall sleeps this long before every operation — a slow-client
	// simulation for deadline tests.
	Stall time.Duration

	mu      sync.Mutex
	passed  int64
	tripped bool
}

// Stalled sleeps for the script's Stall duration, if any — a
// compute-path fault point for code with no byte stream to wrap
// (linkd injects it into the scoring path to simulate slow queries in
// overload tests). Nil-safe and free when Stall is zero.
func (s *Script) Stalled() {
	if s != nil && s.Stall > 0 {
		time.Sleep(s.Stall)
	}
}

func (s *Script) err() error {
	if s.Err != nil {
		return s.Err
	}
	return ErrInjected
}

// admit decides how many of n bytes may pass and which error (if any)
// to return after transferring them.
func (s *Script) admit(n int) (allow int, short bool, err error) {
	if s == nil {
		return n, false, nil
	}
	if s.Stall > 0 {
		time.Sleep(s.Stall)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	allow = n
	if s.FailAfter > 0 {
		if s.tripped {
			return 0, false, s.err()
		}
		if remaining := s.FailAfter - s.passed; int64(allow) >= remaining {
			allow = int(remaining)
			s.tripped = true
			err = s.err()
		}
	}
	if s.ShortWrites && err == nil && allow > 1 {
		allow = (allow + 1) / 2
		short = true
	}
	s.passed += int64(allow)
	return allow, short, err
}

// Writer wraps an io.Writer with a fault script.
//
// api: a test seam; storage's export tests fault a writer through it.
type Writer struct {
	W      io.Writer
	Script *Script
}

func (w *Writer) Write(p []byte) (int, error) {
	allow, short, ferr := w.Script.admit(len(p))
	n, err := w.W.Write(p[:allow])
	if err != nil {
		return n, err
	}
	if ferr != nil {
		return n, ferr
	}
	if short || n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

// Conn wraps a net.Conn with independent read- and write-side fault
// scripts. A tripped write script also closes the underlying
// connection when CloseOnTrip is set, simulating a peer torn away
// mid-frame.
//
// api: a test seam; collector's chaos tests tear connections through it.
type Conn struct {
	net.Conn
	ReadScript  *Script
	WriteScript *Script
	CloseOnTrip bool

	closeOnce sync.Once
}

func (c *Conn) Read(p []byte) (int, error) {
	s := c.ReadScript
	if s == nil {
		return c.Conn.Read(p)
	}
	if s.Stall > 0 {
		time.Sleep(s.Stall)
	}
	// Unlike writes, a read may return fewer bytes than admitted, so
	// the budget is charged on actual bytes after the read.
	s.mu.Lock()
	if s.FailAfter > 0 && s.tripped {
		s.mu.Unlock()
		return 0, s.err()
	}
	allow := len(p)
	if s.FailAfter > 0 {
		if remaining := s.FailAfter - s.passed; int64(allow) > remaining {
			allow = int(remaining)
		}
	}
	s.mu.Unlock()
	n, err := c.Conn.Read(p[:allow])
	s.mu.Lock()
	s.passed += int64(n)
	var ferr error
	if s.FailAfter > 0 && s.passed >= s.FailAfter {
		s.tripped = true
		ferr = s.err()
	}
	s.mu.Unlock()
	if err != nil {
		return n, err
	}
	return n, ferr
}

func (c *Conn) Write(p []byte) (int, error) {
	allow, short, ferr := c.WriteScript.admit(len(p))
	var n int
	var err error
	if allow > 0 {
		n, err = c.Conn.Write(p[:allow])
	}
	if ferr != nil && c.CloseOnTrip {
		c.closeOnce.Do(func() { c.Conn.Close() })
	}
	if err != nil {
		return n, err
	}
	if ferr != nil {
		return n, ferr
	}
	if short || n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

// File wraps a WAL segment file (anything with Write/Sync/Close),
// injecting write faults via Script and fsync failures via FailSyncAt.
// It satisfies storage.SegmentFile.
//
// api: a test seam; the storage, extsort, population, collector and
// linkd tests fail writes and fsyncs through it.
type File struct {
	F interface {
		io.Writer
		Sync() error
		Close() error
	}
	Script *Script
	// FailSyncAt makes the n-th Sync call (1-based) and every later
	// one return SyncErr; 0 disables.
	FailSyncAt int
	// SyncErr defaults to ErrInjected.
	SyncErr error

	mu    sync.Mutex
	syncs int
}

func (f *File) Write(p []byte) (int, error) {
	allow, short, ferr := f.Script.admit(len(p))
	n, err := f.F.Write(p[:allow])
	if err != nil {
		return n, err
	}
	if ferr != nil {
		return n, ferr
	}
	if short || n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

func (f *File) Sync() error {
	f.mu.Lock()
	f.syncs++
	fail := f.FailSyncAt > 0 && f.syncs >= f.FailSyncAt
	f.mu.Unlock()
	if fail {
		if f.SyncErr != nil {
			return f.SyncErr
		}
		return ErrInjected
	}
	return f.F.Sync()
}

func (f *File) Close() error { return f.F.Close() }
