package convgen

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/spectrum"
)

// TestEnginesAgreeOddWindows pins the real-input FFT rewire against the
// literal tap sum at odd, prime, and off-center window geometries — the
// shapes where half-spectrum indexing or padding bookkeeping would slip
// first. Agreement must hold to 1e-10 in units of the surface height.
func TestEnginesAgreeOddWindows(t *testing.T) {
	s := spectrum.MustGaussian(1.3, 3, 4)
	k := MustDesign(s, 1, 1, 6, 1e-6)
	cases := []struct {
		i0, j0 int64
		nx, ny int
	}{
		{0, 0, 37, 29},
		{-13, 7, 53, 1},
		{5, -9, 1, 41},
		{101, 203, 31, 47},
		{-64, -64, 17, 64},
	}
	for _, c := range cases {
		gd := NewGenerator(k, 99)
		gd.Engine = EngineDirect
		gf := NewGenerator(k, 99)
		gf.Engine = EngineFFT

		want := gd.GenerateAt(c.i0, c.j0, c.nx, c.ny)
		got := gf.GenerateAt(c.i0, c.j0, c.nx, c.ny)

		var e float64
		for i := range want.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > e {
				e = d
			}
		}
		if e > 1e-10 {
			t.Errorf("window %+v: engine disagreement %g", c, e)
		}
	}
}

// TestTapsHatLRUBounded churns window sizes so the padded FFT geometry
// keeps changing, and checks that the kernel's spectrum cache stays at
// its bound while results remain identical to a generator over a fresh
// copy of the kernel (whose caches start empty).
func TestTapsHatLRUBounded(t *testing.T) {
	s := spectrum.MustExponential(1, 2, 2)
	k := MustDesign(s, 1, 1, 6, 1e-4)
	g := NewGenerator(k, 7)
	g.Engine = EngineFFT

	// Distinct output sizes → distinct padded sizes (kernel is fixed).
	sizes := []int{8, 24, 56, 120, 248, 500, 8, 120, 700, 56}
	for _, n := range sizes {
		got := g.GenerateAt(3, -4, n, 5)
		cold := NewGenerator(k.clone(), 7)
		cold.Engine = EngineFFT
		want := cold.GenerateAt(3, -4, n, 5)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("n=%d: churned generator diverged from cold generator", n)
			}
		}
		if got := k.tapsHat.len(); got > tapsCacheSize {
			t.Fatalf("n=%d: taps cache grew to %d entries (bound %d)", n, got, tapsCacheSize)
		}
	}
	if k.tapsHat.len() != tapsCacheSize {
		t.Errorf("cache holds %d entries after churn, want full bound %d", k.tapsHat.len(), tapsCacheSize)
	}
}

// TestTapsHatSharedAcrossSeeds checks that the kernel spectrum is a
// property of the kernel, not of the generator: a second seed's first
// FFT window over the same kernel reuses the first seed's cached
// half-spectrum instead of transforming the kernel again, and still
// renders exactly what a generator over a fresh kernel copy renders.
func TestTapsHatSharedAcrossSeeds(t *testing.T) {
	k := MustDesign(spectrum.MustGaussian(1, 6, 6), 1, 1, 8, 1e-4)
	g1 := NewGenerator(k, 1)
	g1.Engine = EngineFFT
	g1.GenerateAt(0, 0, 64, 64)
	if k.tapsHat.len() != 1 {
		t.Fatalf("first FFT window cached %d spectra, want 1", k.tapsHat.len())
	}
	hat := &k.tapsHat.entries[0].hat[0]

	g2 := NewGenerator(k, 2)
	g2.Engine = EngineFFT
	got := g2.GenerateAt(0, 0, 64, 64)
	if k.tapsHat.len() != 1 || &k.tapsHat.entries[0].hat[0] != hat {
		t.Error("second seed recomputed the kernel spectrum instead of sharing it")
	}
	cold := NewGenerator(k.clone(), 2)
	cold.Engine = EngineFFT
	want := cold.GenerateAt(0, 0, 64, 64)
	for i := range want.Data {
		if !approx.Exact(got.Data[i], want.Data[i]) {
			t.Fatalf("sample %d: shared spectrum rendered %g, fresh kernel %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestSteadyStateAllocations verifies the zero-allocation pipeline: once
// the arena and plan caches are warm, a streaming strip allocates only
// the returned grid (plus low single-digit bookkeeping), not the
// O(px·py) noise/spectrum buffers it used to.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by -race instrumentation")
	}
	s := spectrum.MustExponential(1, 10, 10)
	k := MustDesign(s, 1, 1, 8, 1e-4)
	g := NewGenerator(k, 1)
	g.Engine = EngineFFT
	g.Workers = 1 // serial: no goroutine-spawn allocations in the count
	st := NewStreamer(g, 0, 0, 256, 32)
	st.Next() // warm arena, plans, kernel spectrum

	allocs := testing.AllocsPerRun(5, func() { _ = st.Next() })
	// Returned grid = 2 allocations (header + data); leave headroom for
	// pool internals but fail on any O(strip) regression.
	if allocs > 8 {
		t.Errorf("steady-state strip generation allocates %v objects, want <= 8", allocs)
	}
}
