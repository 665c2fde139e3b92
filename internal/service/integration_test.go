package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// testServer boots a Server (small limits so tests are fast) behind
// httptest and returns helpers. Callers own both closes, in this
// order: ts.Close (drains handlers), then s.Close (joins the pool).
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postScene(t *testing.T, ts *httptest.Server, doc string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/scene", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/scene: %d %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// getTile fetches a tile and returns (body, X-Cache header).
func getTile(t *testing.T, ts *httptest.Server, path string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache")
}

// TestKernelDesignsShared registers two scenes that differ only in seed
// and renders a tile from each: /metrics' rrsd_kernel_designs_total
// rises by exactly one, because the second scene's components reuse the
// first scene's kernel design.
func TestKernelDesignsShared(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, PrefetchQueue: -1})
	designs := func() int {
		for _, line := range strings.Split(metricsText(t, ts), "\n") {
			if v, ok := strings.CutPrefix(line, "rrsd_kernel_designs_total "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatal("metrics output missing rrsd_kernel_designs_total")
		return 0
	}
	before := designs()
	for _, seed := range []int{5, 6} {
		id := postScene(t, ts, fmt.Sprintf(`{"nx":64,"ny":64,"method":"homogeneous","seed":%d,"spectrum":{"family":"gaussian","h":1,"cl":13}}`, seed))
		getTile(t, ts, "/v1/scene/"+id+"/tile/0,0,64x64?format=f32")
	}
	if got := designs() - before; got != 1 {
		t.Errorf("two scenes differing only in seed computed %d kernel designs, want 1", got)
	}
}

// TestTileDeterminism is the wire-level determinism contract: the same
// scene+seed+window must produce byte-identical bodies cached and
// uncached, across server instances, and across intra-tile worker
// counts.
func TestTileDeterminism(t *testing.T) {
	for _, fixture := range []struct{ name, doc string }{
		{"homog", fixtureHomog}, {"plate", fixturePlate}, {"point", fixturePoint},
	} {
		t.Run(fixture.name, func(t *testing.T) {
			_, ts := testServer(t, Config{Workers: 2})
			id := postScene(t, ts, fixture.doc)
			path := "/v1/scene/" + id + "/tile/-32,-32,64x64?seed=7"

			first, cache1 := getTile(t, ts, path)
			second, cache2 := getTile(t, ts, path)
			if cache1 != "miss" || cache2 != "hit" {
				t.Errorf("X-Cache sequence %q, %q; want miss, hit", cache1, cache2)
			}
			if !bytes.Equal(first, second) {
				t.Error("cached response differs from rendered response")
			}
			if len(first) != 64*64*4 {
				t.Fatalf("f32 tile is %d bytes, want %d", len(first), 64*64*4)
			}

			// A fresh server (empty caches, different pool size, more
			// intra-tile workers) must produce the same bytes.
			_, ts2 := testServer(t, Config{Workers: 1, GenWorkers: 4})
			id2 := postScene(t, ts2, fixture.doc)
			if id2 != id {
				t.Fatalf("same document got id %s on second server, %s on first", id2, id)
			}
			third, _ := getTile(t, ts2, path)
			if !bytes.Equal(first, third) {
				t.Error("fresh server produced different tile bytes")
			}
		})
	}
}

// TestTileSeams checks the streaming-example seam property over HTTP:
// adjacent and overlapping tiles agree exactly on shared samples.
func TestTileSeams(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := postScene(t, ts, fixturePlate)
	get := func(win string) []byte {
		body, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/"+win+"?seed=3")
		return body
	}
	const rowBytes = 64 * 4

	// Vertical overlap: B starts 32 rows above A's origin; A's rows
	// 32..63 must equal B's rows 0..31 byte for byte.
	a := get("0,0,64x64")
	b := get("0,32,64x64")
	if !bytes.Equal(a[32*rowBytes:64*rowBytes], b[0:32*rowBytes]) {
		t.Error("vertical seam mismatch between 0,0,64x64 and 0,32,64x64")
	}

	// Horizontal overlap: C starts 32 columns right of A; per row, A's
	// columns 32..63 must equal C's columns 0..31.
	c := get("32,0,64x64")
	for row := 0; row < 64; row++ {
		aRow := a[row*rowBytes : (row+1)*rowBytes]
		cRow := c[row*rowBytes : (row+1)*rowBytes]
		if !bytes.Equal(aRow[32*4:], cRow[:32*4]) {
			t.Fatalf("horizontal seam mismatch at row %d", row)
		}
	}

	// Different seeds must NOT agree (the seed actually selects the
	// realization).
	other, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/0,0,64x64?seed=4")
	if bytes.Equal(a, other) {
		t.Error("seed 3 and seed 4 produced identical tiles")
	}
}

func TestTilePNGFormat(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := postScene(t, ts, fixtureHomog)
	resp, err := http.Get(ts.URL + "/v1/scene/" + id + "/tile/0,0,32x32?format=png")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("png tile: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("Content-Type %q", ct)
	}
	if !bytes.HasPrefix(body, []byte("\x89PNG\r\n\x1a\n")) {
		t.Error("body lacks PNG signature")
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := testServer(t, Config{MaxTileEdge: 128, MaxTileSamples: 128 * 128})
	id := postScene(t, ts, fixtureHomog)
	status := func(method, path, body string) (int, string) {
		var resp *http.Response
		var err error
		if method == http.MethodPost {
			resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		} else {
			resp, err = http.Get(ts.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := status("GET", "/v1/scene/ffffffffffffffffffffffffffffffff/tile/0,0,8x8", ""); code != 404 {
		t.Errorf("unknown scene: %d, want 404", code)
	}
	if code, _ := status("GET", "/v1/scene/"+id+"/tile/junk", ""); code != 400 {
		t.Errorf("bad window: %d, want 400", code)
	}
	if code, _ := status("GET", "/v1/scene/"+id+"/tile/0,0,512x512", ""); code != 413 {
		t.Errorf("oversized tile: %d, want 413", code)
	}
	if code, _ := status("GET", "/v1/scene/"+id+"/tile/0,0,8x8?format=jpeg", ""); code != 400 {
		t.Errorf("bad format: %d, want 400", code)
	}
	if code, _ := status("GET", "/v1/scene/"+id+"/tile/0,0,8x8?seed=-1", ""); code != 400 {
		t.Errorf("bad seed: %d, want 400", code)
	}
	// Validation failures surface the core field paths over the wire.
	code, body := status("POST", "/v1/scene", `{"nx":64,"ny":64,"method":"plate","regions":[
	  {"shape":"circle","r":20,"t":4,"spectrum":{"family":"gaussian","h":1,"clx":-2,"cly":5}}]}`)
	if code != 422 || !strings.Contains(body, "regions[0].spectrum.clx") {
		t.Errorf("invalid scene: %d %s; want 422 naming regions[0].spectrum.clx", code, body)
	}
	if code, _ := status("POST", "/v1/scene", `{"nx":64,"ny":64,"method":"homogeneous","generator":"dft",
	  "spectrum":{"family":"gaussian","h":1,"cl":8}}`); code != 422 {
		t.Errorf("dft scene: %d, want 422", code)
	}
}

// TestSaturationSheds pins admission control: with the single worker
// busy and the queue full, the next request is shed immediately with
// 429 + Retry-After instead of piling up.
func TestSaturationSheds(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	id := postScene(t, ts, fixtureHomog)

	block := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("failed to occupy the worker")
	}
	<-started
	if !s.pool.TrySubmit(func() {}) {
		t.Fatal("failed to fill the queue slot")
	}

	begin := time.Now()
	resp, err := http.Get(ts.URL + "/v1/scene/" + id + "/tile/0,0,8x8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Errorf("shed took %s; must be immediate", elapsed)
	}
	close(block)

	// Once the pool drains, the same request renders fine.
	if body, _ := getTile(t, ts, "/v1/scene/"+id+"/tile/0,0,8x8"); len(body) != 8*8*4 {
		t.Errorf("post-drain tile has %d bytes", len(body))
	}
}

// TestDeadlineExpiresQueuedRequest pins the per-request deadline: a
// request stuck behind a busy worker gets 503 within its deadline, and
// the orphaned render job skips work when it finally runs.
func TestDeadlineExpiresQueuedRequest(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: 50 * time.Millisecond})
	id := postScene(t, ts, fixtureHomog)

	block := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.TrySubmit(func() { close(started); <-block }) {
		t.Fatal("failed to occupy the worker")
	}
	<-started

	begin := time.Now()
	resp, err := http.Get(ts.URL + "/v1/scene/" + id + "/tile/0,0,8x8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired request: %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Errorf("503 took %s, far beyond the 50ms deadline", elapsed)
	}
	close(block)
}

// TestGracefulShutdownDrains covers the acceptance criterion with a
// real http.Server: an in-flight tile request completes through
// Shutdown, new connections are refused afterwards, and Serve returns
// cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	serveErr := par.Background(func() error { return srv.Serve(ln) })
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/v1/scene", "application/json", strings.NewReader(fixturePlate))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Launch a slow tile (first render designs kernels and fills a
	// 256x256 window) and wait until the handler is in flight.
	type result struct {
		code int
		n    int
		err  error
	}
	resc := make(chan result, 1)
	tileErr := par.Background(func() error {
		r, err := http.Get(base + "/v1/scene/" + reg.ID + "/tile/0,0,256x256")
		if err != nil {
			resc <- result{err: err}
			return err
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		resc <- result{code: r.StatusCode, n: len(body), err: err}
		return nil
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.met.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tile request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	<-tileErr
	res := <-resc
	if res.err != nil || res.code != http.StatusOK || res.n != 256*256*4 {
		t.Errorf("in-flight tile during shutdown: code=%d n=%d err=%v; want 200 with full body",
			res.code, res.n, res.err)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("request succeeded after Shutdown")
	}
}

// TestConcurrentMixedLoad hammers one server with a mix of scenes,
// seeds, windows, and formats — the -race companion to the determinism
// tests (generator reuse, cache, singleflight design all under
// contention).
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4, QueueDepth: 64, CacheBytes: 1 << 20})
	ids := []string{
		postScene(t, ts, fixtureHomog),
		postScene(t, ts, fixturePlate),
	}
	client := ts.Client()
	const n = 48
	codes := make([]int, n)
	par.ForEach(n, 8, func(i int) {
		id := ids[i%len(ids)]
		format := "f32"
		if i%5 == 0 {
			format = "png"
		}
		path := fmt.Sprintf("/v1/scene/%s/tile/%d,%d,32x32?seed=%d&format=%s",
			id, 32*(i%3), 32*(i%2), 1+i%2, format)
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			codes[i] = -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes[i] = resp.StatusCode
	})
	for i, code := range codes {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	// Metrics endpoint stays consistent under load.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "rrsd_requests_total") {
		t.Error("metrics output missing rrsd_requests_total")
	}
}

func TestHealthzAndSceneGet(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, body)
	}
	id := postScene(t, ts, fixtureHomog)
	resp, err = http.Get(ts.URL + "/v1/scene/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, _ := io.ReadAll(resp.Body)
	var round map[string]any
	if err := json.Unmarshal(doc, &round); err != nil {
		t.Fatalf("scene GET is not JSON: %v", err)
	}
	if round["method"] != "homogeneous" {
		t.Errorf("scene GET returned %s", doc)
	}
}

// TestInfoReportsSIMDKernel: /v1/info names the kernel set the simd
// dispatch selected, so a benchmark's recorded metadata says which
// Box–Muller and MAC kernels served its tiles.
func TestInfoReportsSIMDKernel(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		SIMD string `json:"simd"`
	}
	if err := json.Unmarshal(readAll(t, resp), &info); err != nil {
		t.Fatal(err)
	}
	if info.SIMD != simd.Impl() {
		t.Errorf("/v1/info simd = %q, want %q", info.SIMD, simd.Impl())
	}
}
