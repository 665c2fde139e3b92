package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"image/png"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roughsurface/internal/par"
)

// client drives one rrsd over at most conns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	ids  []string // scene IDs of the workload's setup scenes
	pngs pngMemo
	// bufs recycles tile bodies between ops, so a run at thousands of
	// ops per second does not spend the cores rrsd shares with it on
	// allocating and collecting 100 KB bodies.
	bufs sync.Pool
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil, // loopback only, whatever the environment says
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	c := &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
	c.bufs.New = func() any { return new([]byte) }
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// result is the outcome of one op. Times are offsets from the start of
// the window the op ran in. For a closed loop Due equals Sent; in an
// open loop Due is the scheduled arrival, so Done−Due includes any wait
// for a free connection.
type result struct {
	K               int64
	Class           string
	Path            string
	Due, Sent, Done time.Duration
	Err             string // empty when the op succeeded and its output checked out
	Digest          uint64 // CRC-32C and length of the tile body
}

func (r result) ok() bool                { return r.Err == "" }
func (r result) latency() time.Duration  { return r.Done - r.Due }
func (r result) lateness() time.Duration { return r.Sent - r.Due }
func digestOf(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(uint32(len(body)))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fetch issues one request and returns the body of a response with the
// wanted status, read into dst when it is large enough. Bodies are read
// whole before returning, so a latency ends when the last byte has
// arrived.
func (c *client) fetch(ctx context.Context, method, path string, body, dst []byte, want ...int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []byte
	if n := resp.ContentLength; n > 0 {
		if int64(cap(dst)) >= n {
			out = dst[:n]
		} else {
			out = make([]byte, n)
		}
		_, err = io.ReadFull(resp.Body, out)
	} else {
		out, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return out, nil
		}
	}
	msg := strings.TrimSpace(string(out))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
}

// register POSTs a scene document and returns the ID rrsd assigned.
func (c *client) register(ctx context.Context, doc []byte) (string, error) {
	body, err := c.fetch(ctx, http.MethodPost, "/v1/scene", doc, nil, http.StatusCreated, http.StatusOK)
	if err != nil {
		return "", err
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("POST /v1/scene: decoding response: %w", err)
	}
	return resp.ID, nil
}

// do runs op o, timing it against t0 and recording spans into tr (nil
// when untraced). Output checks run after the op's clock has stopped.
func (c *client) do(ctx context.Context, o op, t0 time.Time, tr *tracer) result {
	r := result{K: o.K, Class: o.Class, Sent: time.Since(t0)}
	r.Due = r.Sent
	root := tr.begin(o.K, "http.op", -1)
	var id string
	var postErr error
	if o.Doc != nil {
		sp := tr.begin(o.K, "http.post", root)
		id, postErr = c.register(ctx, o.Doc)
		tr.end(sp)
	} else {
		id = c.ids[o.Scene]
	}
	buf := c.bufs.Get().(*[]byte)
	defer c.bufs.Put(buf)
	var body []byte
	var err error
	if postErr == nil {
		r.Path = o.path(id)
		sp := tr.begin(o.K, "http.tile", root)
		body, err = c.fetch(ctx, http.MethodGet, r.Path, nil, *buf, http.StatusOK)
		tr.end(sp)
		if cap(body) > cap(*buf) {
			*buf = body[:0]
		}
	}
	r.Done = time.Since(t0)
	tr.end(root)
	switch {
	case postErr != nil:
		r.Err = postErr.Error()
		return r
	case err != nil:
		r.Err = err.Error()
		return r
	}
	if o.Doc != nil {
		if want, err := sceneID(o.Doc); err != nil || want != id {
			r.Err = fmt.Sprintf("POST returned scene id %s, want %s (%v)", id, want, err)
			return r
		}
	}
	//lint:ignore detflow the digest covers response bytes only; op timings never reach it
	r.Digest = digestOf(body)
	if err := c.checkBody(o, r.Path, body, r.Digest); err != nil {
		r.Err = err.Error()
	}
	return r
}

// checkBody validates a tile body: an f32 body holds 4·nx·ny bytes of
// finite little-endian floats; a PNG body decodes to nx×ny. A PNG tile
// fetched again must come back identical, so it is decoded once and
// later bodies are matched by digest.
func (c *client) checkBody(o op, path string, body []byte, digest uint64) error {
	switch o.Format {
	case "f32":
		if want := 4 * o.Nx * o.Ny; len(body) != want {
			return fmt.Errorf("%s: f32 body of %d bytes, want %d", path, len(body), want)
		}
		for i := 0; i < len(body); i += 4 {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(body[i:])))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: non-finite sample %d", path, i/4)
			}
		}
		return nil
	case "png":
		return c.pngs.check(path, body, digest, o.Nx, o.Ny)
	}
	return fmt.Errorf("%s: unknown format %q", path, o.Format)
}

// pngMemo remembers the digest of the first body of every PNG tile
// path.
type pngMemo struct {
	mu   sync.Mutex
	seen map[string]uint64
}

func (m *pngMemo) check(path string, body []byte, digest uint64, nx, ny int) error {
	m.mu.Lock()
	first, seen := m.seen[path]
	m.mu.Unlock()
	if seen {
		if digest != first {
			return fmt.Errorf("%s: PNG body differs from the first response for this tile", path)
		}
		return nil
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: decoding PNG: %w", path, err)
	}
	if b := img.Bounds(); b.Dx() != nx || b.Dy() != ny {
		return fmt.Errorf("%s: PNG is %dx%d, want %dx%d", path, b.Dx(), b.Dy(), nx, ny)
	}
	m.mu.Lock()
	if m.seen == nil {
		m.seen = make(map[string]uint64)
	}
	m.seen[path] = digest
	m.mu.Unlock()
	return nil
}

// closedLoop runs ops k0, k0+1, ... over conns connections, each
// sending its next op as soon as its previous one returns, until dur
// has passed. End-of-window rule: an op is attempted when it is sent
// before dur; every attempted op runs to completion and counts, and
// the window is measured to the last completion.
func (c *client) closedLoop(ctx context.Context, sched func(int64) op, k0 int64, dur time.Duration, tr *tracer) ([]result, time.Duration) {
	t0 := time.Now()
	var next atomic.Int64
	next.Store(k0)
	per := make([][]result, conns)
	par.ForEach(conns, conns, func(i int) {
		for time.Since(t0) < dur && ctx.Err() == nil {
			per[i] = append(per[i], c.do(ctx, sched(next.Add(1)-1), t0, tr))
		}
	})
	return merge(per)
}

// openLoop releases op k0+n at n/rate seconds into the window, for
// arrivals due before dur, onto conns connections; an arrival that
// finds both busy waits for one, and its latency still runs from its
// due time. Every released op runs to completion and counts.
func (c *client) openLoop(ctx context.Context, sched func(int64) op, k0 int64, rate float64, dur time.Duration, tr *tracer) ([]result, time.Duration) {
	type arrival struct {
		o   op
		due time.Duration
	}
	t0 := time.Now()
	jobs := make(chan arrival)
	per := make([][]result, conns)
	// Index conns is the dispatcher; the others are the connections.
	par.ForEach(conns+1, conns+1, func(i int) {
		if i < conns {
			for a := range jobs {
				r := c.do(ctx, a.o, t0, tr)
				r.Due = a.due
				per[i] = append(per[i], r)
			}
			return
		}
		defer close(jobs)
		for n := int64(0); ctx.Err() == nil; n++ {
			due := time.Duration(float64(n) / rate * float64(time.Second))
			if due >= dur {
				return
			}
			if wait := due - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			jobs <- arrival{o: sched(k0 + n), due: due}
		}
	})
	return merge(per)
}

// merge orders the per-connection results by op and returns the
// window's length: start to the last completion.
func merge(per [][]result) ([]result, time.Duration) {
	var all []result
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].K < all[b].K })
	var end time.Duration
	for _, r := range all {
		end = max(end, r.Done)
	}
	return all, end
}

// runAll fetches a fixed list of ops over conns connections (setup's
// warm pass) and fails on the first bad response.
func (c *client) runAll(ctx context.Context, ops []op) error {
	var next atomic.Int64
	errs := make([]error, conns)
	t0 := time.Now()
	par.ForEach(conns, conns, func(i int) {
		for {
			k := next.Add(1) - 1
			if k >= int64(len(ops)) || ctx.Err() != nil {
				return
			}
			if r := c.do(ctx, ops[k], t0, nil); !r.ok() {
				errs[i] = fmt.Errorf("warm-up: %s", r.Err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// scrape reads rrsd's /metrics.
func (c *client) scrape(ctx context.Context) (exposition, error) {
	body, err := c.fetch(ctx, http.MethodGet, "/metrics", nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseExposition(bytes.NewReader(body))
}
