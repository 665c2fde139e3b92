package simd

import (
	"math"
	"testing"
)

// requireAVX2 skips a kernel-vs-fallback test on builds where BoxMuller
// runs the scalar loop itself, so the comparison would be vacuous.
func requireAVX2(t *testing.T) {
	t.Helper()
	if Impl() != "avx2" {
		t.Skipf("dispatch selected %q; bit-exactness vs the fallback is only promised for avx2", Impl())
	}
}

// checkBoxMuller runs the dispatched BoxMuller and the scalar fallback
// over the same inputs and fails on the first bit difference.
func checkBoxMuller(t *testing.T, u1, u2 []float64) {
	t.Helper()
	got := make([]float64, len(u1))
	want := make([]float64, len(u1))
	BoxMuller(got, u1, u2)
	boxMullerGeneric(want, u1, u2)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d [%d] u1=%x u2=%x: kernel %x (%g), fallback %x (%g)",
				len(u1), i, math.Float64bits(u1[i]), math.Float64bits(u2[i]),
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// fieldUniforms derives (u1, u2) exactly as rng.Field does for lattice
// point (i, j): two SplitMix64 rounds over the mixed coordinates, u1 in
// (0,1] and u2 in [0,1).
func fieldUniforms(seed uint64, i, j int64) (u1, u2 float64) {
	s := testSource(seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xc2b2ae3d27d4eb4f)
	return s.open01(), s.Float64()
}

// TestBoxMullerBitExactLengths covers every length 0..67: empty, pure
// scalar tails, and every remainder class around the 4-lane blocks.
func TestBoxMullerBitExactLengths(t *testing.T) {
	requireAVX2(t)
	src := newTestSource(23)
	for n := 0; n <= 67; n++ {
		u1 := make([]float64, n)
		u2 := make([]float64, n)
		for i := range u1 {
			u1[i] = src.open01()
			u2[i] = src.Float64()
		}
		checkBoxMuller(t, u1, u2)
	}
}

// TestBoxMullerBitExactFieldInputs replays ten million field-derived
// input pairs, in field-row-sized chunks, through kernel and fallback.
func TestBoxMullerBitExactFieldInputs(t *testing.T) {
	requireAVX2(t)
	const rows, cols = 2500, 4096 // 10,240,000 samples
	u1 := make([]float64, cols)
	u2 := make([]float64, cols)
	for j := int64(0); j < rows; j++ {
		i0 := (j - rows/2) * 7919
		for m := range u1 {
			u1[m], u2[m] = fieldUniforms(uint64(j%5), i0+int64(m), j)
		}
		checkBoxMuller(t, u1, u2)
	}
}

// TestBoxMullerBitExactEdges pairs every edge of the u1 domain with
// every edge of the u2 domain:
//   - u1 at the field's extremes: 0.5·2⁻⁵³ and (2⁵³−0.5)·2⁻⁵³, which
//     rounds to 1; and the largest double below 1;
//   - u1 with mantissa f1 at and around the √2/2 switch of the log
//     reduction, at several binary exponents;
//   - u2 = 0, u2 = (2⁵³−1)·2⁻⁵³, and u2 at each octant boundary k/8
//     and one ulp either side of it.
func TestBoxMullerBitExactEdges(t *testing.T) {
	requireAVX2(t)
	const hsqrt2 = 7.07106781186547524401e-01
	u1s := []float64{
		0.5 * (1.0 / (1 << 53)),
		(float64(1<<53-1) + 0.5) * (1.0 / (1 << 53)),
		math.Nextafter(1, 0),
	}
	for _, e := range []int{0, -1, -2, -13, -52} {
		h := math.Ldexp(hsqrt2, e)
		u1s = append(u1s, h, math.Nextafter(h, 0), math.Nextafter(h, 1))
	}
	u2s := []float64{0, float64(1<<53-1) * (1.0 / (1 << 53))}
	for k := 1; k < 8; k++ {
		b := float64(k) / 8
		u2s = append(u2s, b, math.Nextafter(b, 0), math.Nextafter(b, 1))
	}
	var u1, u2 []float64
	for _, a := range u1s {
		for _, b := range u2s {
			// Four copies so each pair fills a whole vector block.
			for r := 0; r < 4; r++ {
				u1 = append(u1, a)
				u2 = append(u2, b)
			}
		}
	}
	checkBoxMuller(t, u1, u2)
}

func BenchmarkBoxMuller(b *testing.B) {
	// One rng.Field chunk.
	const n = 64
	src := newTestSource(31)
	u1 := make([]float64, n)
	u2 := make([]float64, n)
	for i := range u1 {
		u1[i] = src.open01()
		u2[i] = src.Float64()
	}
	dst := make([]float64, n)
	b.Run(Impl(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BoxMuller(dst, u1, u2)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			boxMullerGeneric(dst, u1, u2)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
}
