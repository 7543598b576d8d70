package collector

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/storage"
)

// Browser is the surface the collection client's task manager probes.
// Each method corresponds to one parallel collection task; in a real
// deployment these are JavaScript modules running in the page, here
// they are served by an adapter over simulated visit state.
type Browser interface {
	HTTPHeaders() (HTTPHeaders, error)
	BrowserFeatures() (BrowserFeatures, error)
	OSFeatures() (OSFeatures, error)
	HardwareFeatures() (HardwareFeatures, error)
	IPFeatures() (IPFeatures, error)
	ConsistencyFeatures() (ConsistencyFeatures, error)
	GPUImage() (string, error)
}

// Feature-group payloads, one per collection task.
type (
	// HTTPHeaders is the header-derived feature group.
	HTTPHeaders struct {
		UserAgent, Accept, Encoding, Language string
		HeaderList                            []string
	}
	// BrowserFeatures is the JavaScript-probed browser feature group.
	BrowserFeatures struct {
		Plugins                                                       []string
		CookieEnabled, WebGL, LocalStorage, AddBehavior, OpenDatabase bool
		TimezoneOffset                                                int
	}
	// OSFeatures is the side-channel OS feature group.
	OSFeatures struct {
		Languages, Fonts []string
		CanvasHash       string
	}
	// HardwareFeatures is the hardware feature group.
	HardwareFeatures struct {
		GPUVendor, GPURenderer, GPUType string
		CPUCores                        int
		CPUClass, AudioInfo             string
		ScreenResolution                string
		ColorDepth                      int
		PixelRatio                      string
	}
	// IPFeatures is derived server-side from the connection address in a
	// real deployment; the simulator supplies it with the visit.
	IPFeatures struct {
		Addr, City, Region, Country string
	}
	// ConsistencyFeatures records whether independent collection methods
	// agreed.
	ConsistencyFeatures struct {
		Language, Resolution, OS, Browser bool
	}
)

// Collect runs the task manager: all seven collection tasks in
// parallel, assembled into one fingerprint. It fails fast on the first
// task error and respects ctx cancellation. The paper's tool finishes
// within one second; CollectTimeout mirrors that budget.
func Collect(ctx context.Context, b Browser) (*fingerprint.Fingerprint, error) {
	fp := &fingerprint.Fingerprint{}
	var mu sync.Mutex // guards fp against partially ordered writes
	g := newGroup(ctx)

	g.Go("http-headers", func() error {
		v, err := b.HTTPHeaders()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.UserAgent, fp.Accept, fp.Encoding, fp.Language = v.UserAgent, v.Accept, v.Encoding, v.Language
		fp.HeaderList = v.HeaderList
		return nil
	})
	g.Go("browser-features", func() error {
		v, err := b.BrowserFeatures()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.Plugins = v.Plugins
		fp.CookieEnabled, fp.WebGL, fp.LocalStorage = v.CookieEnabled, v.WebGL, v.LocalStorage
		fp.AddBehavior, fp.OpenDatabase = v.AddBehavior, v.OpenDatabase
		fp.TimezoneOffset = v.TimezoneOffset
		return nil
	})
	g.Go("os-features", func() error {
		v, err := b.OSFeatures()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.Languages, fp.Fonts, fp.CanvasHash = v.Languages, v.Fonts, v.CanvasHash
		return nil
	})
	g.Go("hardware", func() error {
		v, err := b.HardwareFeatures()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.GPUVendor, fp.GPURenderer, fp.GPUType = v.GPUVendor, v.GPURenderer, v.GPUType
		fp.CPUCores, fp.CPUClass, fp.AudioInfo = v.CPUCores, v.CPUClass, v.AudioInfo
		fp.ScreenResolution, fp.ColorDepth, fp.PixelRatio = v.ScreenResolution, v.ColorDepth, v.PixelRatio
		return nil
	})
	g.Go("ip", func() error {
		v, err := b.IPFeatures()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.IPAddr, fp.IPCity, fp.IPRegion, fp.IPCountry = v.Addr, v.City, v.Region, v.Country
		return nil
	})
	g.Go("consistency", func() error {
		v, err := b.ConsistencyFeatures()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.ConsLanguage, fp.ConsResolution, fp.ConsOS, fp.ConsBrowser = v.Language, v.Resolution, v.OS, v.Browser
		return nil
	})
	g.Go("gpu-image", func() error {
		v, err := b.GPUImage()
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		fp.GPUImageHash = v
		return nil
	})

	if err := g.Wait(); err != nil {
		return nil, err
	}
	return fp, nil
}

// group is a minimal errgroup (stdlib-only): first error wins, context
// cancellation is honoured.
type group struct {
	ctx  context.Context
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

func newGroup(ctx context.Context) *group { return &group{ctx: ctx} }

func (g *group) Go(name string, fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				g.once.Do(func() { g.err = fmt.Errorf("task %s: %w", name, err) })
			}
		case <-g.ctx.Done():
			g.once.Do(func() { g.err = fmt.Errorf("task %s: %w", name, g.ctx.Err()) })
		}
	}()
}

func (g *group) Wait() error {
	g.wg.Wait()
	return g.err
}

// Client is the transfer module: it submits collected records over one
// TCP connection using the hash-dedup protocol. A client starts in
// newline-JSON framing; Negotiate can switch the connection to binary
// frames, which carry the binary payload codec.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder

	// binary framing state, set by Negotiate: br reads frames starting
	// with whatever the JSON decoder had buffered; pbuf and wbuf are the
	// reused outbound payload and frame.
	binary bool
	br     *bufio.Reader
	pbuf   []byte
	wbuf   []byte

	bytesSent atomic.Int64
	submitted atomic.Int64
}

// Dial connects to a collection server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("collector: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (handy for tests over
// net.Pipe).
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn}
	c.enc = json.NewEncoder(countingWriter{conn, &c.bytesSent})
	c.dec = json.NewDecoder(conn)
	return c
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// roundTrip sends one request and reads one response in whichever
// framing the connection is in.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	resp, err := c.exchange(req)
	if err != nil {
		return nil, err
	}
	if resp.Type == TypeError {
		return nil, fmt.Errorf("collector: server error: %s", resp.Error)
	}
	return resp, nil
}

// exchange performs one request/response cycle without interpreting
// TypeError — Negotiate needs the raw reply to fall back gracefully.
func (c *Client) exchange(req *Request) (*Response, error) {
	if c.binary {
		c.pbuf = appendRequest(c.pbuf[:0], req)
		c.wbuf = storage.AppendFrame(c.wbuf[:0], c.pbuf)
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return nil, fmt.Errorf("collector: send: %w", err)
		}
		c.bytesSent.Add(int64(len(c.wbuf)))
		reply, err := storage.ReadFrame(c.br, 0)
		if err != nil {
			return nil, fmt.Errorf("collector: recv: %w", err)
		}
		resp, err := decodeResponse(reply)
		if err != nil {
			return nil, fmt.Errorf("collector: recv: %w", err)
		}
		return resp, nil
	}
	var resp Response
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("collector: send: %w", err)
	}
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("collector: recv: %w", err)
	}
	return &resp, nil
}

// Negotiate asks the server to switch the connection to binary
// framing and returns the framing now in effect. A legacy server
// answers hello with an error; the client stays on newline-JSON and
// keeps working, so Negotiate is safe to call against any server.
// Call it once, before submissions, from the goroutine that owns the
// client.
func (c *Client) Negotiate() (string, error) {
	if c.binary {
		return FramingBinary, nil
	}
	resp, err := c.exchange(&Request{Type: TypeHello, Framing: FramingBinary})
	if err != nil {
		return "", err
	}
	switch {
	case resp.Type == TypeHello && resp.Framing == FramingBinary:
		// The switch takes effect after the hello reply. The JSON
		// decoder may have read ahead past that reply; hand its
		// buffered remainder to the frame reader so no bytes are lost.
		br := bufio.NewReader(io.MultiReader(c.dec.Buffered(), c.conn))
		// The reply line's '\n' terminator is not part of the JSON
		// value, so the decoder leaves it unread; consume it here or
		// it would shift every binary frame header by one byte.
		switch b, err := br.ReadByte(); {
		case err != nil:
			return "", fmt.Errorf("collector: hello terminator: %w", err)
		case b != '\n':
			return "", fmt.Errorf("collector: unexpected byte %q after hello reply", b)
		}
		c.binary = true
		c.br = br
		return FramingBinary, nil
	case resp.Type == TypeHello || resp.Type == TypeError:
		// Declined, or a legacy server that does not know hello at
		// all: stay on JSON.
		return FramingJSON, nil
	default:
		return "", fmt.Errorf("collector: unexpected hello reply %q", resp.Type)
	}
}

// framing returns the framing mode the connection is currently in.
func (c *Client) framing() string {
	if c.binary {
		return FramingBinary
	}
	return FramingJSON
}

// Ping verifies the connection.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(&Request{Type: TypePing})
	if err != nil {
		return err
	}
	if resp.Type != TypePong {
		return fmt.Errorf("collector: unexpected ping reply %q", resp.Type)
	}
	return nil
}

// Submit transfers one record as a batch of one: first a hash check
// for the bulky list values, then the record with only the missing
// blobs attached. It returns the server-side record index. The record
// carries no sequence ID, so a resend appends again; SubmitBatch with a
// client ID makes resubmission idempotent.
func (c *Client) Submit(rec *fingerprint.Record) (int, error) {
	acks, err := c.SubmitBatch([]BatchRecord{{Rec: rec}}, "")
	if err != nil {
		return 0, err
	}
	return firstAck(acks)
}

// BatchRecord pairs a record with its client-assigned sequence number
// for SubmitBatch.
type BatchRecord struct {
	Rec *fingerprint.Record
	Seq uint64
}

// SubmitBatch transfers many records in two round trips: one hash
// check covering every dedupable value in the batch, then one batch
// request carrying all records plus only the missing blobs. The
// returned acks parallel the batch prefix the server processed: a
// short list (or one whose last entry has a non-empty Error) means the
// remaining records were never attempted and should stay buffered.
// Records must be in seq order. Works in either framing mode — binary
// framing sends the batch as one frame in the binary codec, with its
// records in the binary record encoding and its values as raw bytes,
// where newline-JSON sends a JSON line with base64 values.
func (c *Client) SubmitBatch(batch []BatchRecord, clientID string) ([]Ack, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	items := make([]BatchItem, len(batch))
	blobs := make(map[string][]byte)
	hashes := make([]string, 0, len(batch)*len(DedupFields))
	// The check lists each hash once, in record order and then
	// DedupFields order, so identical batches send identical frames.
	for i, b := range batch {
		wire, refs, bl := StripRecord(b.Rec)
		items[i] = BatchItem{Record: wire, Refs: refs, Seq: b.Seq}
		for _, field := range DedupFields {
			h := refs[field]
			if _, ok := blobs[h]; !ok {
				blobs[h] = bl[h]
				hashes = append(hashes, h)
			}
		}
	}
	resp, err := c.roundTrip(&Request{Type: TypeCheck, Hashes: hashes})
	if err != nil {
		return nil, err
	}
	need := make(map[string]bool, len(resp.Hashes))
	for _, h := range resp.Hashes {
		need[h] = true
	}
	// Attach each missing blob to the first item referencing it; the
	// server applies values before the item's append, and items are
	// processed in order, so later references resolve from the store.
	attached := make(map[string]bool, len(need))
	for i := range items {
		for _, h := range items[i].Refs {
			if need[h] && !attached[h] {
				if items[i].Values == nil {
					items[i].Values = make(map[string][]byte)
				}
				items[i].Values[h] = blobs[h]
				attached[h] = true
			}
		}
	}
	return c.sendBatch(items, clientID)
}

// sendBatch sends one batch request and counts the ACKed records.
func (c *Client) sendBatch(items []BatchItem, clientID string) ([]Ack, error) {
	resp, err := c.roundTrip(&Request{Type: TypeBatch, Batch: items, ClientID: clientID})
	if err != nil {
		return nil, err
	}
	if resp.Type != TypeOK {
		return nil, fmt.Errorf("collector: unexpected batch reply %q", resp.Type)
	}
	for _, a := range resp.Acks {
		if a.Error == "" {
			c.submitted.Add(1)
		}
	}
	return resp.Acks, nil
}

// firstAck returns the record index a one-record batch was ACKed with,
// or the error the server stopped at.
func firstAck(acks []Ack) (int, error) {
	if len(acks) == 0 {
		return 0, fmt.Errorf("collector: batch reply without acks")
	}
	if acks[0].Error != "" {
		return 0, fmt.Errorf("collector: server error: %s", acks[0].Error)
	}
	return acks[0].Index, nil
}

// BytesSent returns the total bytes written to the connection.
func (c *Client) BytesSent() int64 { return c.bytesSent.Load() }

// Submitted returns the number of accepted submissions.
func (c *Client) Submitted() int64 { return c.submitted.Load() }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
