package convgen

import (
	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// convDirect is the precision-generic direct-convolution core: it
// evaluates f(i,j) = Σ_{a,b} taps[b][a]·noise(i+a, j+b) for an nx×ny
// window, writing row j of the output at dst[j*stride : j*stride+nx].
//
// The tap sum is reformulated as fused MAC-row sweeps — one call per
// (output row, tap row) with the output accumulators held in registers
// across every tap of the row — which removes the serial accumulator
// dependency of the literal per-sample sum, hands the inner loop to
// the simd kernels, and amortizes call overhead over the whole tap row
// (the per-tap axpy formulation paid a dispatch and a dst load/store
// sweep per tap, the dominant cost at tile-sized rows). For every
// output sample the additions still happen in the same (b, a) order as
// the literal sum, so the reformulation is bit-identical to it at both
// precisions (DESIGN.md §13); the float64 instantiation is therefore
// byte-compatible with the pre-SIMD reference engine.
//
// macRow is passed in (macRow[F]: simd.MacRow32 or simd.MacRow64, the
// monomorphic wrappers) rather than dispatched on F per call, so the hot
// loop performs no interface boxing.
func convDirect[F simd.Float](dst []F, stride, nx, ny int, taps []F, knx, kny int,
	noise []F, wx int, macRow func(taps, noise, dst []F), workers int) {
	par.For(ny, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := dst[j*stride : j*stride+nx]
			clear(row)
			for b := 0; b < kny; b++ {
				off := (j + b) * wx
				macRow(taps[b*knx:(b+1)*knx], noise[off:off+knx-1+nx], row)
			}
		}
	})
}

// macRow returns the monomorphic simd MAC-row kernel for precision F.
func macRow[F simd.Float]() func(taps, noise, dst []F) {
	if f, ok := any(simd.MacRow64).(func(taps, noise, dst []F)); ok {
		return f
	}
	return any(simd.MacRow32).(func(taps, noise, dst []F))
}
