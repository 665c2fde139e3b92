package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"roughsurface/internal/core"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/render"
	"roughsurface/internal/service"
)

// opKey identifies what an op asks rrsd for.
func opKey(o op) string {
	return string(o.Doc) + " " + o.path("id")
}

func TestScheduleDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		same, differ := 0, 0
		for k := int64(0); k < 200; k++ {
			a, b := opKey(w.op(7, k)), opKey(w.op(7, k))
			if a != b {
				t.Fatalf("%s op %d: two calls with one seed differ:\n%s\n%s", name, k, a, b)
			}
			if opKey(w.op(8, k)) == a {
				same++
			} else {
				differ++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of 200 ops identical under seeds 7 and 8, want all different", name, same)
		}
		wa, wb := w.warm(7), w.warm(7)
		if len(wa) != len(wb) {
			t.Fatalf("%s: warm list length %d then %d", name, len(wa), len(wb))
		}
		for i := range wa {
			if opKey(wa[i]) != opKey(wb[i]) {
				t.Errorf("%s warm op %d differs between calls", name, i)
			}
		}
		t.Logf("%s: %d/200 ops differ between seeds", name, differ)
	}
}

// The miss workloads must never ask twice for one tile, nor for a tile
// the warm-up fetched: each op has to reach the renderer.
func TestMissWorkloadsNeverRevisit(t *testing.T) {
	for _, name := range []string{"raster-f32", "plates-png", "scene-churn"} {
		w := workloads[name]
		seen := make(map[string]bool)
		for _, o := range w.warm(3) {
			seen[opKey(o)] = true
		}
		for k := int64(0); k < 20000; k++ {
			key := opKey(w.op(3, k))
			if seen[key] {
				t.Fatalf("%s op %d repeats an earlier request: %s", name, k, key)
			}
			seen[key] = true
		}
	}
}

func TestRasterRowMajorNeighbours(t *testing.T) {
	for k := int64(1); k < 3*rasterRow; k++ {
		a, b := rasterOp(5, k-1), rasterOp(5, k)
		if k%rasterRow != 0 && (b.I0-a.I0 != tileEdge || b.J0 != a.J0) {
			t.Fatalf("op %d at (%d,%d) is not the right-hand neighbour of (%d,%d)", k, b.I0, b.J0, a.I0, a.J0)
		}
		if k%rasterRow == 0 && (b.J0-a.J0 != tileEdge) {
			t.Fatalf("op %d does not start the next row", k)
		}
	}
}

func TestZoomTraceAndWarmPass(t *testing.T) {
	if n := len(viewerTrace); n != 112 {
		t.Fatalf("zoom trace for zmax 3 has %d steps, want 112 (7 level visits x 4 pans x 4 tiles)", n)
	}
	warm := make(map[string]bool)
	for _, o := range viewerWarm(9) {
		warm[opKey(o)] = true
	}
	for k := int64(0); k < 500; k++ {
		o := viewerOp(9, k)
		if !warm[opKey(o)] {
			t.Fatalf("op %d (%s) was not warmed", k, o.path("id"))
		}
		for _, d := range [4][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nb := o
			nb.I0 += d[0] * tileEdge
			nb.J0 += d[1] * tileEdge
			if !warm[opKey(nb)] {
				t.Fatalf("neighbour %s of op %d was not warmed", nb.path("id"), k)
			}
		}
	}
}

// Window classes must keep their promise: a quadrant interior runs one
// component on every sparse tile, a seam at least two somewhere and
// the corner all four somewhere.
func TestPlatesWindowClasses(t *testing.T) {
	sc, err := core.ParseScene([]byte(platesScene))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := sc.Components()
	if err != nil {
		t.Fatal(err)
	}
	sm := comp.Blender.(inhomo.SupportMasker)
	corners := 0
	for k := int64(0); k < 5*int64(len(platesCycle)); k++ {
		o := platesOp(11, k)
		_, most := activeComponents(sm, comp, o)
		ok := most >= 2
		switch o.Class {
		case "q1", "q2", "q3", "q4":
			ok = most == 1
		case "corner":
			ok = most == 4
			corners++
		}
		if !ok {
			t.Errorf("op %d (%s at %d,%d): at most %d active components per tile", k, o.Class, o.I0, o.J0, most)
		}
	}
	if corners != 5*platesCorners {
		t.Errorf("%d corners in 5 cycles, want %d", corners, 5*platesCorners)
	}
}

// The check op of every workload, served by the real service, must
// equal the in-process render byte for byte.
func TestCheckOpsMatchService(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			s := service.New(service.Config{})
			defer s.Close()
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			c := newClient(srv.URL)
			defer c.close()
			ctx := context.Background()
			w := workloads[name]
			for _, doc := range w.scenes(1) {
				id, err := c.register(ctx, doc)
				if err != nil {
					t.Fatal(err)
				}
				c.ids = append(c.ids, id)
			}
			o := w.op(1, w.check)
			r := c.do(ctx, o, time.Now(), nil)
			if !r.ok() {
				t.Fatal(r.Err)
			}
			b := &bench{opts: options{seed: 1}, w: w}
			if err := b.verify(ctx, c); err != nil {
				t.Fatal(err)
			}
			// A corrupted body must be caught.
			doc := o.Doc
			if doc == nil {
				doc = w.scenes(1)[o.Scene]
			}
			resp, err := http.Get(srv.URL + r.Path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body[len(body)/2] ^= 1
			if verifyOp(doc, o, body) == nil {
				t.Fatal("a flipped bit passed the byte-for-byte check")
			}
		})
	}
}

func TestCheckBody(t *testing.T) {
	c := newClient("")
	o := op{Nx: 2, Ny: 2, Format: "f32"}
	check := func(o op, path string, body []byte) error { return c.checkBody(o, path, body, digestOf(body)) }
	if err := check(o, "p", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if check(o, "p", make([]byte, 12)) == nil {
		t.Fatal("short f32 body accepted")
	}
	nan := f32Bytes([]float32{0, 0, 0, float32(nanValue())})
	if check(o, "p", nan) == nil {
		t.Fatal("NaN sample accepted")
	}
	pngOp := op{Nx: 2, Ny: 2, Format: "png"}
	if check(pngOp, "q", []byte("not a png")) == nil {
		t.Fatal("garbage PNG accepted")
	}
	var img bytes.Buffer
	if err := render.PNG(&img, grid.New(2, 2)); err != nil {
		t.Fatal(err)
	}
	good := img.Bytes()
	if err := check(pngOp, "r", good); err != nil {
		t.Fatal(err)
	}
	if err := check(pngOp, "r", good); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	if check(pngOp, "r", append(good[:len(good):len(good)], 0)) == nil {
		t.Fatal("changed repeat accepted")
	}
	if check(op{Nx: 3, Ny: 2, Format: "png"}, "s", good) == nil {
		t.Fatal("PNG of the wrong size accepted")
	}
}

func nanValue() float64 {
	var zero float64
	return zero / zero
}

func TestQuantileAndRatio(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if !near(xs[0], 4) {
		t.Error("quantile sorted its input in place")
	}
	if !near(quantile(nil, 0.5), 0) || !near(quantile([]float64{7}, 0.9), 7) {
		t.Error("quantile of empty or single-element samples")
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || !near(s.P50, 5.5) || !near(s.P90, 9.1) || !near(s.Max, 10) || !near(s.Mean, 5.5) {
		t.Errorf("summarize = %+v", s)
	}
	if !near(ratio(3, 0), 0) || !near(ratio(1, 4), 0.25) {
		t.Error("ratio")
	}
	if !near(ms(1500*time.Microsecond), 1.5) {
		t.Error("ms")
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// metricsBefore and metricsAfter are two scrapes of rrsd's /metrics.
const metricsBefore = `# HELP rrsd_requests_total HTTP requests by route and status code.
# TYPE rrsd_requests_total counter
rrsd_requests_total{route="tile",code="200"} 17
rrsd_request_seconds_bucket{le="0.0005"} 2
rrsd_request_seconds_bucket{le="+Inf"} 17
rrsd_request_seconds_sum 1.359158
rrsd_request_seconds_count 17
rrsd_tile_cache_hits_total 2
rrsd_tile_cache_misses_total 15
rrsd_tile_cache_bytes 4.5e+06
`

const metricsAfter = `# HELP rrsd_requests_total HTTP requests by route and status code.
rrsd_requests_total{route="tile",code="200"} 1017
rrsd_requests_total{route="tile",code="429"} 3
rrsd_request_seconds_bucket{le="0.0005"} 802
rrsd_request_seconds_bucket{le="+Inf"} 1017

rrsd_request_seconds_sum 2.859158
rrsd_request_seconds_count 1017
rrsd_tile_cache_hits_total 802
rrsd_tile_cache_misses_total 215
rrsd_tile_cache_bytes 9e+06
`

func TestExpositionDeltas(t *testing.T) {
	before, err := parseExposition(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(metricsAfter))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`rrsd_requests_total{route="tile",code="200"}`: 1000,
		`rrsd_requests_total{route="tile",code="429"}`: 3, // absent before: counts from 0
		`rrsd_request_seconds_bucket{le="+Inf"}`:       1000,
		"rrsd_request_seconds_sum":                     1.5,
		"rrsd_tile_cache_hits_total":                   800,
		"rrsd_tile_cache_misses_total":                 200,
		"rrsd_tile_cache_bytes":                        4.5e6,
	} {
		if got := delta(before, after, key); !near(got, want) {
			t.Errorf("delta %s = %g, want %g", key, got, want)
		}
	}
	for _, bad := range []string{"rrsd_x\n", "rrsd_x 1 2\n", "rrsd_x{a=\"b\"} one\n"} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed malformed line %q", bad)
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (rr sd) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 37 0 0 20 0 9 0 100 0 0\n")
	user, sys, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if user != 2500*time.Millisecond || sys != 370*time.Millisecond {
		t.Errorf("utime %v stime %v, want 2.5s 370ms", user, sys)
	}
	if _, _, err := parseStatCPU([]byte("4242 (rrsd) S 1 2")); err == nil {
		t.Error("truncated stat accepted")
	}
	status := []byte("Name:\trrsd\nVmPeak:\t  900000 kB\nVmHWM:\t  548000 kB\nVmRSS:\t  512000 kB\nThreads:\t9\n")
	for key, want := range map[string]int64{"VmHWM": 548000, "VmRSS": 512000} {
		if got, err := parseStatusKB(status, key); err != nil || got != want {
			t.Errorf("%s = %d (%v), want %d", key, got, err, want)
		}
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field found")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a: covered 10..60
		{Name: "c", Parent: 2, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	for name, want := range map[string]time.Duration{"root": 50, "a": 30, "b": 20, "c": 10} {
		if len(got[name]) != 1 || got[name][0] != want {
			t.Errorf("self time of %s = %v, want %v", name, got[name], want)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *tracer
	i := tr.begin(1, "x", -1)
	tr.end(i)
	ran := false
	tr.timed(1, "y", i, func() { ran = true })
	if !ran || i != -1 {
		t.Fatal("nil tracer must run the body and record nothing")
	}
}

func TestParseCPUInfo(t *testing.T) {
	info := "processor\t: 0\nmodel name\t: Test CPU @ 2.1GHz\nflags\t\t: fpu sse avx2 fma avx512f\n\nprocessor\t: 1\nmodel name\t: Other\n"
	model, flags := parseCPUInfo([]byte(info))
	if model != "Test CPU @ 2.1GHz" || strings.Join(flags, ",") != "avx2,fma,avx512f" {
		t.Errorf("parseCPUInfo = %q %v", model, flags)
	}
}

func TestSourceHashIgnoresBenchmarkAndBuildDirs(t *testing.T) {
	root := t.TempDir()
	write := func(p, s string) {
		t.Helper()
		if err := writeFile(root+"/"+p, s); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module x\n")
	write("a/a.go", "package a\n")
	h := sourceHash(root)
	write("perfbench/b.go", "package main\n")
	write(".bench_build/c.go", "package c\n")
	write("a/README", "not source\n")
	if sourceHash(root) != h {
		t.Fatal("source hash moved with benchmark, build or non-Go files")
	}
	write("a/a.go", "package a // changed\n")
	if sourceHash(root) == h {
		t.Fatal("source hash did not move with a Go source change")
	}
}

func TestOutputLine(t *testing.T) {
	var out bytes.Buffer
	b := &bench{out: &out}
	m := map[string]metric{"p50_ms": {1.25, "ms"}, "bad": {nanValue(), "ratio"}}
	b.printMetrics(m)
	if !near(m["bad"].Value, 0) || !strings.Contains(out.String(), "p50_ms") {
		t.Fatalf("printMetrics: %v\n%s", m, out.String())
	}
}

func writeFile(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o644)
}
