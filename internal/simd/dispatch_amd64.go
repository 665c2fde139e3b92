//go:build amd64 && !noasm

package simd

// Assembly kernel selection on amd64. The VEX kernels need AVX register
// state enabled by the OS as well as the CPU flag, so the check is the
// full OSXSAVE → XGETBV → AVX2 chain, probed once at init.

// cpuid executes CPUID with the given leaf/subleaf (axpy_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (axpy_amd64.s).
func xgetbv() (eax, edx uint32)

func axpy32AVX(alpha float32, x, y []float32)
func axpy64AVX(alpha float64, x, y []float64)

func macRow32AVX(taps, noise, dst []float32)
func macRow64AVX(taps, noise, dst []float64)

// boxMullerAVX is called directly, not through a func variable, and
// promises not to retain its arguments: callers pass stack buffers
// (rng.Field's 64-sample chunks) that must not escape to the heap.
//
//go:noescape
func boxMullerAVX(dst, u1, u2 []float64)

var (
	axpy32   = axpyGeneric32
	axpy64   = axpyGeneric64
	macRow32 = macRowGeneric32
	macRow64 = macRowGeneric64

	// useAVX2 guards the direct boxMullerAVX call in BoxMuller.
	useAVX2 = false
	impl    = "go"
)

func hasAVX2() bool {
	const osxsave = 1 << 27
	const avx = 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// The OS must save/restore XMM (bit 1) and YMM (bit 2) state.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

func init() {
	if hasAVX2() {
		axpy32 = axpy32AVX
		axpy64 = axpy64AVX
		macRow32 = macRow32AVX
		macRow64 = macRow64AVX
		useAVX2 = true
		impl = "avx2"
	}
}

// Impl reports which kernel set the dispatch selected ("go", "avx2" or
// "neon") — surfaced in tests and the daemon's GET /v1/info.
func Impl() string { return impl }
