package inhomo

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
)

// f32BlendTol gates the float32 render path against the float64
// reference: 1e-4 of the largest component σh (2.0 in threeKernels),
// the same budget as the convgen agreement gate (DESIGN.md §13). The
// blend adds one weight rounding and a single-precision accumulation
// over ≤3 terms per sample, both far below the convolution's own
// rounding noise.
const f32BlendTol = 1e-4 * 2.0

// TestInhomoGenerate32AgreesWithF64 drives every engine and blender
// kind through the f32 path and checks per-sample agreement with the
// float64 engine of the same configuration.
func TestInhomoGenerate32AgreesWithF64(t *testing.T) {
	ks := threeKernels(t)
	for name, blender := range tiledBlenders(t) {
		t.Run(name, func(t *testing.T) {
			for _, engine := range []Engine{EngineAuto, EngineDense, EngineTiled} {
				g64 := MustGenerator(ks, blender, 42)
				g64.Engine = engine
				g64.TileSize = 16
				g32 := MustGenerator(ks, blender, 42)
				g32.Engine = engine
				g32.TileSize = 16
				const nx, ny = 48, 40
				want := g64.GenerateAt(-24, -20, nx, ny)
				got := make([]float32, nx*ny)
				GenerateInto(g32, got, nx, ny, -24, -20)
				for i, v := range got {
					if d := math.Abs(float64(v) - want.Data[i]); d > f32BlendTol {
						t.Fatalf("engine %v: sample %d f32=%g f64=%g (|Δ|=%.3g > %.3g)",
							engine, i, v, want.Data[i], d, f32BlendTol)
					}
				}
			}
		})
	}
}

// TestInhomoReference32 pins the f32 view of the literal eqn (46)
// evaluator to the f64 reference rounded once per sample — the
// Reference path narrows rather than re-deriving, so agreement is
// exact.
func TestInhomoReference32(t *testing.T) {
	ks := threeKernels(t)
	blender := tiledBlenders(t)["plate"]
	ref := MustGenerator(ks, blender, 7)
	ref.Reference = true
	want := ref.GenerateAt(-6, -5, 12, 10)
	got := make([]float32, 12*10)
	GenerateInto(ref, got, 12, 10, -6, -5)
	for i, v := range got {
		if !approx.Exact(float64(v), float64(float32(want.Data[i]))) {
			t.Fatalf("sample %d = %g, want narrow(%g)", i, v, want.Data[i])
		}
	}
}

// TestGenerateAtInto32Reuse: rendering windows at float32 through one
// reused buffer must equal fresh buffers — pooled tile scratch and
// noise planes are reset correctly.
func TestGenerateAtInto32Reuse(t *testing.T) {
	ks := threeKernels(t)
	g := MustGenerator(ks, tiledBlenders(t)["plate-circle"], 9)
	g.Engine = EngineTiled
	g.TileSize = 16
	out := make([]float32, 40*32)
	for _, origin := range []struct{ i0, j0 int64 }{{-20, -16}, {5, 9}, {-20, -16}} {
		GenerateInto(g, out, 40, 32, origin.i0, origin.j0)
		want := make([]float32, 40*32)
		GenerateInto(g, want, 40, 32, origin.i0, origin.j0)
		for i, v := range out {
			if !approx.Exact(float64(v), float64(want[i])) {
				t.Fatalf("origin (%d,%d): sample %d = %g, want %g", origin.i0, origin.j0, i, v, want[i])
			}
		}
	}
}

// TestGenerateAtInto32Panics: the float32 render rejects a missing
// destination raster and an empty window.
func TestGenerateAtInto32Panics(t *testing.T) {
	g := MustGenerator(threeKernels(t), UniformBlender{M: 3}, 1)
	for name, fn := range map[string]func(){
		"nil grid":   func() { GenerateInto(g, []float32(nil), 4, 4, 0, 0) },
		"empty grid": func() { GenerateInto(g, make([]float32, 16), 0, 4, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		})
	}
}
