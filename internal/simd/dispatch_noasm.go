//go:build noasm || (!amd64 && !arm64)

package simd

// Pure-Go build: every architecture without a hand-written kernel, and
// any build with -tags noasm, runs the portable unrolled loop.

var (
	axpy32   = axpyGeneric32
	axpy64   = axpyGeneric64
	macRow32 = macRowGeneric32
	macRow64 = macRowGeneric64
)

// Impl reports which kernel set the dispatch selected ("go", "avx2" or
// "neon") — surfaced in tests and the daemon's GET /v1/info.
func Impl() string { return "go" }

// No vector Box–Muller kernel here: BoxMuller always runs the scalar
// loop. Its guarded boxMullerAVX call is compiled out; the stub only
// lets it type-check.
const useAVX2 = false

func boxMullerAVX(dst, u1, u2 []float64) { boxMullerGeneric(dst, u1, u2) }
