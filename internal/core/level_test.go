package core

import (
	"math"
	"reflect"
	"testing"

	"roughsurface/internal/convgen"
)

func TestAtLevelNormalizationAndSpacing(t *testing.T) {
	sc := Scene{Nx: 64, Ny: 64, Method: MethodHomogeneous,
		Spectrum: &SpectrumSpec{Family: "gaussian", H: 1, CL: 8}}

	// Level 0 is exactly the normalized scene: the pyramid must not
	// move any scene's content address.
	l0, err := sc.AtLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l0, sc.Normalized()) {
		t.Errorf("AtLevel(0) = %+v differs from Normalized() = %+v", l0, sc.Normalized())
	}

	l3, err := sc.AtLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore floatcmp power-of-two spacing scaling is exact in IEEE 754; exactness is the contract
	if l3.Dx != 8 || l3.Dy != 8 {
		t.Errorf("AtLevel(3) spacing = (%g, %g), want (8, 8)", l3.Dx, l3.Dy)
	}
	// Only the spacing changes: zero the spacing on both sides and the
	// views must be identical (seed, spectrum, kernel knobs, ...).
	a, b := l3, l0
	a.Dx, a.Dy, b.Dx, b.Dy = 0, 0, 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("AtLevel(3) changed more than spacing: %+v vs %+v", a, b)
	}

	// Non-unit base spacing scales multiplicatively.
	sc2 := sc
	sc2.Dx, sc2.Dy = 0.5, 2
	l2, err := sc2.AtLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore floatcmp power-of-two spacing scaling is exact in IEEE 754; exactness is the contract
	if l2.Dx != 2 || l2.Dy != 8 {
		t.Errorf("AtLevel(2) of (0.5, 2) spacing = (%g, %g), want (2, 8)", l2.Dx, l2.Dy)
	}

	for _, z := range []int{-1, MaxPyramidLevel + 1} {
		if _, err := sc.AtLevel(z); err == nil {
			t.Errorf("AtLevel(%d) accepted", z)
		}
	}
}

// sampleMoments returns the sample mean and (biased) variance.
func sampleMoments(data []float64) (mean, variance float64) {
	for _, v := range data {
		mean += v
	}
	mean /= float64(len(data))
	for _, v := range data {
		d := v - mean
		variance += d * d
	}
	return mean, variance / float64(len(data))
}

// lagCorr is the normalized sample autocorrelation at lattice lag
// (lx, ly) of an nx×ny field (mean removed).
func lagCorr(data []float64, nx, ny, lx, ly int) float64 {
	mean, variance := sampleMoments(data)
	var sum float64
	var n int
	for j := 0; j+ly < ny; j++ {
		for i := 0; i+lx < nx; i++ {
			sum += (data[j*nx+i] - mean) * (data[(j+ly)*nx+i+lx] - mean)
			n++
		}
	}
	return sum / (float64(n) * variance)
}

// TestLevelTileAgreesWithDecimatedLevel0 renders one window at pyramid
// level 2 and compares its statistics against decimated level-0 ground
// truth on a fixed seed. Pointwise agreement is impossible by design —
// the two levels consume different noise lattices — so the contract is
// statistical: same variance and same autocorrelation at physically
// matched lags, which is precisely what §2.4's re-derived weighting
// array guarantees (and what box-downsampling level-0 samples would
// violate by attenuating variance toward the box filter's response).
func TestLevelTileAgreesWithDecimatedLevel0(t *testing.T) {
	sc := Scene{Nx: 64, Ny: 64, Seed: 7, Method: MethodHomogeneous,
		Spectrum: &SpectrumSpec{Family: "gaussian", H: 1, CL: 8}}
	const (
		z    = 2
		f    = 1 << z
		n0   = 512 // level-0 window edge
		nz   = n0 / f
		seed = uint64(7)
	)

	gen := func(level int) *convgen.Generator {
		view, err := sc.AtLevel(level)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := view.Components()
		if err != nil {
			t.Fatal(err)
		}
		return convgen.NewGenerator(comp.Kernels[0], seed)
	}

	g0 := gen(0).GenerateAt(0, 0, n0, n0)
	dec := make([]float64, nz*nz)
	for j := 0; j < nz; j++ {
		for i := 0; i < nz; i++ {
			dec[j*nz+i] = g0.At(i*f, j*f)
		}
	}
	gz := gen(z).GenerateAt(0, 0, nz, nz)

	// Spacing metadata must reflect the level.
	//lint:ignore floatcmp level spacing is an exact power-of-two multiple of the unit base
	if gz.Dx != float64(f) || gz.Dy != float64(f) {
		t.Errorf("level-%d tile spacing (%g, %g), want (%d, %d)", z, gz.Dx, gz.Dy, f, f)
	}

	meanD, varD := sampleMoments(dec)
	meanZ, varZ := sampleMoments(gz.Data)
	// h=1: means are zero within sampling noise, variances near h².
	if math.Abs(meanD) > 0.1 || math.Abs(meanZ) > 0.1 {
		t.Errorf("sample means %g (decimated), %g (level %d); want ~0", meanD, meanZ, z)
	}
	// 128² samples with cl=8 at spacing 4 give ~4k effective samples:
	// each variance estimate has ~2% noise, and the level render also
	// carries the ≤2% z=2 aliasing deficit (see convgen level test).
	if rel := math.Abs(varZ-varD) / varD; rel > 0.10 {
		t.Errorf("level-%d variance %g vs decimated level-0 %g (rel diff %g > 0.10)", z, varZ, varD, rel)
	}
	// Matched physical lags: level-z lag 1 is level-0 lag f.
	for _, lag := range [][2]int{{1, 0}, {0, 1}} {
		cD := lagCorr(dec, nz, nz, lag[0], lag[1])
		cZ := lagCorr(gz.Data, nz, nz, lag[0], lag[1])
		if math.Abs(cD-cZ) > 0.08 {
			t.Errorf("lag (%d,%d): level-%d correlation %g vs decimated %g (diff > 0.08)",
				lag[0], lag[1], z, cZ, cD)
		}
	}

	// f32 variant: the serving pipeline's single-precision render of the
	// same (level, seed) must track the f64 render sample-for-sample far
	// inside the statistical budgets above.
	g32 := make([]float32, nz*nz)
	gen(z).GenerateAtInto32(g32, nz, 0, 0, nz, nz, 0)
	maxDiff := 0.0
	w := make([]float64, nz*nz)
	for i, v := range g32 {
		w[i] = float64(v)
		if d := math.Abs(w[i] - gz.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("f32 level-%d render diverges from f64 by %g (> 1e-3)", z, maxDiff)
	}
	_, var32 := sampleMoments(w)
	if rel := math.Abs(var32-varD) / varD; rel > 0.10 {
		t.Errorf("f32 level-%d variance %g vs decimated level-0 %g (rel diff %g > 0.10)", z, var32, varD, rel)
	}
}
