package convgen

import (
	"math"
	"testing"

	"roughsurface/internal/approx"
	"roughsurface/internal/dftgen"
	"roughsurface/internal/spectrum"
	"roughsurface/internal/stats"
)

func gaussSpec() spectrum.Spectrum { return spectrum.MustGaussian(1.3, 6, 6) }

// mustKernel designs a kernel or fails the test; never drop the error.
func mustKernel(t *testing.T, s spectrum.Spectrum, nx, ny int, dx, dy float64) *Kernel {
	t.Helper()
	k, err := FromSpectrum(s, nx, ny, dx, dy)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestFromSpectrumValidates(t *testing.T) {
	s := gaussSpec()
	if _, err := FromSpectrum(s, 1, 64, 1, 1); err == nil {
		t.Error("degenerate design grid accepted")
	}
	if _, err := FromSpectrum(s, 64, 64, 0, 1); err == nil {
		t.Error("dx=0 accepted")
	}
}

func TestKernelEnergyMatchesVariance(t *testing.T) {
	for _, s := range []spectrum.Spectrum{
		spectrum.MustGaussian(1.3, 6, 6),
		spectrum.MustPowerLaw(0.9, 6, 6, 2),
		spectrum.MustExponential(1.1, 6, 6),
	} {
		k, err := FromSpectrum(s, 128, 128, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		h2 := s.SigmaH() * s.SigmaH()
		if rel := math.Abs(k.Energy()-h2) / h2; rel > 0.08 {
			t.Errorf("%s: kernel energy %g vs h²=%g (rel %g)", s.Name(), k.Energy(), h2, rel)
		}
	}
}

func TestKernelCenterIsPeak(t *testing.T) {
	k := mustKernel(t, gaussSpec(), 64, 64, 1, 1)
	peak := math.Abs(k.At(k.CX, k.CY))
	for i, tap := range k.Taps {
		if math.Abs(tap) > peak+1e-12 {
			t.Fatalf("tap %d exceeds center tap", i)
		}
	}
}

func TestKernelSymmetry(t *testing.T) {
	k := mustKernel(t, gaussSpec(), 64, 64, 1, 1)
	for dy := -10; dy <= 10; dy++ {
		for dx := -10; dx <= 10; dx++ {
			a := k.At(k.CX+dx, k.CY+dy)
			b := k.At(k.CX-dx, k.CY-dy)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("kernel asymmetric at (%d,%d): %g vs %g", dx, dy, a, b)
			}
		}
	}
}

// TestKernelSelfCorrelationIsAutocorrelation is the deterministic core
// of experiment E7: the kernel's discrete self-correlation must equal
// the analytic autocorrelation, because Cov(f(n), f(n+d)) = Σ_k w̃_k·w̃_{k+d}
// for unit white noise.
func TestKernelSelfCorrelationIsAutocorrelation(t *testing.T) {
	cases := []struct {
		s   spectrum.Spectrum
		tol float64
	}{
		{spectrum.MustGaussian(1.3, 6, 6), 1e-6},
		{spectrum.MustPowerLaw(0.9, 6, 6, 2), 0.02},
		{spectrum.MustExponential(1.1, 6, 6), 0.06},
	}
	for _, c := range cases {
		k, err := FromSpectrum(c.s, 128, 128, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		h2 := c.s.SigmaH() * c.s.SigmaH()
		for _, lag := range [][2]int{{0, 0}, {1, 0}, {3, 0}, {6, 0}, {0, 4}, {5, 5}, {12, 0}} {
			var acc float64
			for b := 0; b < k.Ny-lag[1]; b++ {
				for a := 0; a < k.Nx-lag[0]; a++ {
					acc += k.At(a, b) * k.At(a+lag[0], b+lag[1])
				}
			}
			want := c.s.Autocorrelation(float64(lag[0]), float64(lag[1]))
			if math.Abs(acc-want)/h2 > c.tol {
				t.Errorf("%s lag %v: self-correlation %g vs ρ %g", c.s.Name(), lag, acc, want)
			}
		}
	}
}

func TestTruncateRetainsEnergyAndCenter(t *testing.T) {
	k := mustKernel(t, gaussSpec(), 128, 128, 1, 1)
	full := k.Energy()
	tr := k.Truncate(1e-4)
	if tr.Nx >= k.Nx || tr.Ny >= k.Ny {
		t.Errorf("truncation did not shrink the kernel: %dx%d", tr.Nx, tr.Ny)
	}
	if tr.Energy() < (1-1e-4)*full {
		t.Errorf("truncated energy %g below criterion (full %g)", tr.Energy(), full)
	}
	// The center tap must still be the zero-lag tap.
	if !approx.Exact(tr.At(tr.CX, tr.CY), k.At(k.CX, k.CY)) {
		t.Error("truncation moved the center tap")
	}
	// Looser criterion → smaller kernel (monotonicity).
	tr2 := k.Truncate(1e-2)
	if tr2.Nx > tr.Nx {
		t.Errorf("eps=1e-2 kernel (%d) larger than eps=1e-4 kernel (%d)", tr2.Nx, tr.Nx)
	}
}

func TestTruncatePanicsOnBadEps(t *testing.T) {
	k := mustKernel(t, gaussSpec(), 32, 32, 1, 1)
	for _, eps := range []float64{0, -1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%g should panic", eps)
				}
			}()
			k.Truncate(eps)
		}()
	}
}

func TestDesignAutoSizing(t *testing.T) {
	k, err := Design(spectrum.MustGaussian(1, 4, 16), 1, 1, 8, NoTruncation)
	if err != nil {
		t.Fatal(err)
	}
	if k.Nx != 32 || k.Ny != 128 {
		t.Errorf("design grid %dx%d, want 32x128 for cl=(4,16) span 8", k.Nx, k.Ny)
	}
	// Truncated design must be no larger.
	kt, err := Design(spectrum.MustGaussian(1, 4, 16), 1, 1, 8, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if kt.Nx > k.Nx || kt.Ny > k.Ny {
		t.Error("truncated design larger than full design")
	}
}

func TestEnginesAgree(t *testing.T) {
	k := MustDesign(gaussSpec(), 1, 1, 8, 1e-6)
	gDirect := NewGenerator(k, 99)
	gDirect.Engine = EngineDirect
	gFFT := NewGenerator(k, 99)
	gFFT.Engine = EngineFFT
	a := gDirect.GenerateAt(-11, 23, 40, 56)
	b := gFFT.GenerateAt(-11, 23, 40, 56)
	if d := a.MaxAbsDiff(b); d > 1e-9 {
		t.Errorf("direct and FFT engines differ by %g", d)
	}
	if !approx.Exact(a.X0, b.X0) || !approx.Exact(a.Y0, b.Y0) {
		t.Error("engines disagree on geometry")
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	k := MustDesign(gaussSpec(), 1, 1, 8, 1e-4)
	g1 := NewGenerator(k, 5)
	g1.Workers = 1
	g1.Engine = EngineDirect
	g8 := NewGenerator(k, 5)
	g8.Workers = 8
	g8.Engine = EngineDirect
	a := g1.GenerateAt(0, 0, 64, 64)
	b := g8.GenerateAt(0, 0, 64, 64)
	if d := a.MaxAbsDiff(b); d > 0 {
		t.Errorf("worker count changed the direct-engine output by %g", d)
	}
}

// TestWindowOverlapSeamless is experiment E7's successive-computation
// claim: two windows generated independently agree exactly where they
// overlap, because the noise field is a pure function of lattice index.
func TestWindowOverlapSeamless(t *testing.T) {
	k := MustDesign(gaussSpec(), 1, 1, 8, 1e-4)
	g := NewGenerator(k, 77)
	g.Engine = EngineDirect
	a := g.GenerateAt(0, 0, 64, 64)
	b := g.GenerateAt(32, 16, 64, 64)
	for j := 0; j < 48; j++ { // overlap rows in a: y=16..63
		for i := 0; i < 32; i++ { // overlap cols in a: x=32..63
			va := a.At(32+i, 16+j)
			vb := b.At(i, j)
			if !approx.Exact(va, vb) {
				t.Fatalf("overlap mismatch at (%d,%d): %g vs %g", i, j, va, vb)
			}
		}
	}
}

func TestStreamerMatchesOneShot(t *testing.T) {
	k := MustDesign(gaussSpec(), 1, 1, 8, 1e-4)
	g := NewGenerator(k, 31)
	g.Engine = EngineDirect
	whole := g.GenerateAt(-8, -4, 48, 60)

	st := NewStreamer(g, -8, -4, 48, 20)
	for strip := 0; strip < 3; strip++ {
		part := st.Next()
		for j := 0; j < 20; j++ {
			for i := 0; i < 48; i++ {
				if !approx.Exact(part.At(i, j), whole.At(i, strip*20+j)) {
					t.Fatalf("strip %d sample (%d,%d) differs", strip, i, j)
				}
			}
		}
	}
	if st.NextRow() != -4+60 {
		t.Errorf("NextRow = %d", st.NextRow())
	}
}

func TestGenerateCenteredGeometry(t *testing.T) {
	k := MustDesign(gaussSpec(), 1, 1, 8, 1e-4)
	g := NewGenerator(k, 1)
	s := g.GenerateCentered(64, 32)
	x, y := s.XY(32, 16)
	if x != 0 || y != 0 {
		t.Errorf("center sample at (%g,%g)", x, y)
	}
}

// TestStatisticsMatchTargets is E7's convolution half: the generated
// field reproduces h and ρ.
func TestStatisticsMatchTargets(t *testing.T) {
	cases := []struct {
		s              spectrum.Spectrum
		stdTol, acfTol float64
	}{
		{spectrum.MustGaussian(1.0, 8, 8), 0.12, 0.08},
		{spectrum.MustPowerLaw(1.5, 8, 8, 2), 0.15, 0.12},
		{spectrum.MustExponential(2.0, 8, 8), 0.15, 0.15},
	}
	for _, c := range cases {
		k := MustDesign(c.s, 1, 1, 8, 1e-5)
		g := NewGenerator(k, 2024)
		surf := g.GenerateCentered(256, 256)

		h := c.s.SigmaH()
		sum := stats.Describe(surf.Data)
		if math.Abs(sum.Std-h)/h > c.stdTol {
			t.Errorf("%s: std %g want %g", c.s.Name(), sum.Std, h)
		}
		cov := stats.AutocovarianceFFT(surf)
		maxLag := 16
		var rmse float64
		for d := 0; d <= maxLag; d++ {
			diff := cov.At(d, 0) - c.s.Autocorrelation(float64(d), 0)
			rmse += diff * diff
		}
		rmse = math.Sqrt(rmse/float64(maxLag+1)) / (h * h)
		if rmse > c.acfTol {
			t.Errorf("%s: autocovariance relative RMSE %g > %g", c.s.Name(), rmse, c.acfTol)
		}
	}
}

// TestConvolutionMatchesDirectDFTDistribution compares the two methods
// head to head (experiment E7): same spectrum, independent noise, both
// must land on the same analytic autocorrelation within sampling error.
func TestConvolutionMatchesDirectDFTDistribution(t *testing.T) {
	s := spectrum.MustGaussian(1.0, 8, 8)
	const n = 256

	conv := NewGenerator(MustDesign(s, 1, 1, 8, 1e-5), 1)
	convSurf := conv.GenerateCentered(n, n)
	dftSurf := dftgen.Must(s, n, n, 1, 1).GenerateSeeded(2)

	covC := stats.AutocovarianceFFT(convSurf)
	covD := stats.AutocovarianceFFT(dftSurf)
	for d := 0; d <= 16; d++ {
		want := s.Autocorrelation(float64(d), 0)
		if math.Abs(covC.At(d, 0)-want) > 0.15 {
			t.Errorf("conv lag %d: %g vs %g", d, covC.At(d, 0), want)
		}
		if math.Abs(covD.At(d, 0)-want) > 0.15 {
			t.Errorf("dft lag %d: %g vs %g", d, covD.At(d, 0), want)
		}
	}
}

func TestTruncationDegradesGracefully(t *testing.T) {
	// Aggressive truncation must still give roughly the right variance:
	// eps is an energy criterion, so 1-eps of h² survives by design.
	s := gaussSpec()
	k := MustDesign(s, 1, 1, 8, 1e-2)
	g := NewGenerator(k, 6)
	surf := g.GenerateCentered(128, 128)
	h := s.SigmaH()
	std := stats.Describe(surf.Data).Std
	if math.Abs(std-h)/h > 0.2 {
		t.Errorf("std %g want ~%g after 1%% energy truncation", std, h)
	}
}

func TestAutoEngineSelection(t *testing.T) {
	small := MustDesign(gaussSpec(), 1, 1, 8, 1e-4)
	g := NewGenerator(small, 1)
	if e := g.EngineFor(32, 32); e != EngineDirect {
		t.Errorf("small problem chose engine %v", e)
	}
	if e := g.EngineFor(4096, 4096); e != EngineFFT {
		t.Errorf("large problem chose engine %v", e)
	}
}
