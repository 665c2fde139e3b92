package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"roughsurface/internal/core"
)

// f32ServeTol bounds the wire-level disagreement between an f32-served
// tile and the f64 reference render of the same window: 1e-4 of the
// largest fixture σh (2.5), the DESIGN.md §13 budget. Violations at
// O(σh) would mean the f32 pipeline rendered a different surface.
const f32ServeTol = 1e-4 * 2.5

// TestTilePrecisionParam drives ?precision= through every fixture:
// agreement with the f64 reference, cache-key separation between the
// precisions, and native f32 determinism.
func TestTilePrecisionParam(t *testing.T) {
	for _, fixture := range []struct{ name, doc string }{
		{"homog", fixtureHomog}, {"plate", fixturePlate}, {"point", fixturePoint},
	} {
		t.Run(fixture.name, func(t *testing.T) {
			_, ts := testServer(t, Config{Workers: 2})
			id := postScene(t, ts, fixture.doc)
			base := "/v1/scene/" + id + "/tile/-32,-32,64x64?seed=7"

			ref, _ := getTile(t, ts, base+"&precision=f64")
			f32Body, c1 := getTile(t, ts, base+"&precision=f32")
			if c1 != "miss" {
				t.Errorf("f32 tile after f64 tile: X-Cache %q, want miss (separate key)", c1)
			}
			if len(f32Body) != 64*64*4 {
				t.Fatalf("f32-precision tile is %d bytes, want %d", len(f32Body), 64*64*4)
			}
			want := decodeF32(ref)
			got := decodeF32(f32Body)
			for i := range got {
				if d := math.Abs(float64(got[i]) - float64(want[i])); d > f32ServeTol {
					t.Fatalf("sample %d: f32 render %g vs f64 reference %g (|Δ|=%.3g > %.3g)",
						i, got[i], want[i], d, f32ServeTol)
				}
			}

			again, c2 := getTile(t, ts, base+"&precision=f32")
			if c2 != "hit" || !bytes.Equal(again, f32Body) {
				t.Errorf("repeat f32 fetch: X-Cache %q, bytes equal %v; want hit with identical body",
					c2, bytes.Equal(again, f32Body))
			}
			// Default precision is f64: the bare path must hit the f64 entry.
			_, c3 := getTile(t, ts, base)
			if c3 != "hit" {
				t.Errorf("default-precision fetch: X-Cache %q, want hit on the f64 entry", c3)
			}
		})
	}
}

// TestTilePrecisionPNG: f32 precision composes with the PNG format
// (render at f32, widen into the shared colormapper).
func TestTilePrecisionPNG(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	id := postScene(t, ts, fixtureHomog)
	resp, err := http.Get(ts.URL + "/v1/scene/" + id + "/tile/0,0,32x32?format=png&precision=f32")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("png+f32: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("Content-Type %q, want image/png", ct)
	}
	if !bytes.HasPrefix(body, []byte("\x89PNG")) {
		t.Fatal("body is not a PNG")
	}
}

// TestTilePrecisionErrors pins the field-path error style for the new
// query parameter.
func TestTilePrecisionErrors(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	id := postScene(t, ts, fixtureHomog)
	resp, err := http.Get(ts.URL + "/v1/scene/" + id + "/tile/0,0,8x8?precision=f16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("precision=f16: status %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if e.Error != `precision "f16": want f32 or f64` {
		t.Fatalf("error %q missing field-path message", e.Error)
	}
}

// TestScenePrecisionDefault: a scene registered with "precision":"f32"
// serves f32 tiles by default, ?precision=f64 overrides back to the
// reference engine, and spelling out "f64" does not change the scene's
// content address.
func TestScenePrecisionDefault(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	docF32 := strings.Replace(fixtureHomog, `"method"`, `"precision":"f32","method"`, 1)
	id := postScene(t, ts, docF32)
	base := "/v1/scene/" + id + "/tile/-16,-16,32x32?seed=3"

	def, _ := getTile(t, ts, base)
	explicit, c := getTile(t, ts, base+"&precision=f32")
	if c != "hit" || !bytes.Equal(def, explicit) {
		t.Errorf("scene-default f32 and explicit f32 differ (X-Cache %q)", c)
	}
	ref, c := getTile(t, ts, base+"&precision=f64")
	if c != "miss" {
		t.Errorf("f64 override: X-Cache %q, want miss", c)
	}
	want := decodeF32(ref)
	got := decodeF32(def)
	for i := range got {
		if d := math.Abs(float64(got[i]) - float64(want[i])); d > f32ServeTol {
			t.Fatalf("sample %d: default f32 %g vs f64 override %g (|Δ|=%.3g)", i, got[i], want[i], d)
		}
	}

	// precision is a render knob, not surface identity: "f32" hashes
	// differently from absent (it changes default serving behavior),
	// but "f64" collapses to the historical address.
	docF64 := strings.Replace(fixtureHomog, `"method"`, `"precision":"f64","method"`, 1)
	if got, want := postScene(t, ts, docF64), postScene(t, ts, fixtureHomog); got != want {
		t.Errorf(`"precision":"f64" changed scene id: %s vs %s`, got, want)
	}
}

// TestPNGBodyExactSize: PNG tile bodies carry no more spare capacity
// than the allocator's rounding to one 8 KiB page, so the tile cache's
// len-based byte budget matches the memory it pins.
func TestPNGBodyExactSize(t *testing.T) {
	s, ts := testServer(t, Config{})
	entry, _ := s.reg.get(postScene(t, ts, fixturePlate))
	for _, precision := range []string{"", core.PrecisionF32} {
		res := s.renderTile(context.Background(), entry, 0, 1, window{nx: 256, ny: 256}, formatPNG, precision)
		if res.err != nil {
			t.Fatal(res.err)
		}
		if cap(res.body)-len(res.body) >= 8<<10 {
			t.Errorf("precision %q: PNG body len %d, cap %d", precision, len(res.body), cap(res.body))
		}
	}
}
