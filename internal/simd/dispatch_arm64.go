//go:build arm64 && !noasm

package simd

// NEON (ASIMD) is architectural baseline on arm64, so there is no
// feature probe: the assembly kernels are selected unconditionally.

func axpy32NEON(alpha float32, x, y []float32)
func axpy64NEON(alpha float64, x, y []float64)

var (
	axpy32 = axpy32NEON
	axpy64 = axpy64NEON

	// The fused MAC row runs the portable blocked loop: the compiler
	// emits scalar FMADD for its accumulate pattern, which rounds
	// identically to the NEON kernels' FMLA, so composing axpy and
	// fusing the row agree bit-for-bit on arm64 too.
	macRow32 = macRowGeneric32
	macRow64 = macRowGeneric64
)

// Impl reports which kernel set the dispatch selected ("go", "avx2" or
// "neon") — surfaced in tests and the daemon's GET /v1/info.
func Impl() string { return "neon" }

// No vector Box–Muller kernel here: BoxMuller always runs the scalar
// loop. Its guarded boxMullerAVX call is compiled out; the stub only
// lets it type-check.
const useAVX2 = false

func boxMullerAVX(dst, u1, u2 []float64) { boxMullerGeneric(dst, u1, u2) }
