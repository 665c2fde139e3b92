package convgen

import (
	"fmt"
	"sync"

	"roughsurface/internal/fft"
	"roughsurface/internal/grid"
	"roughsurface/internal/par"
	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// Engine selects the convolution implementation.
type Engine int

const (
	// EngineAuto picks Direct for small kernels and FFT otherwise.
	EngineAuto Engine = iota
	// EngineDirect evaluates paper eqn (36) literally: an explicit tap
	// sum per output sample. O(outputs × taps).
	EngineDirect
	// EngineFFT computes the identical linear correlation through padded
	// real-input FFTs. O(N log N); bit-exact determinism with
	// EngineDirect is not guaranteed but agreement is to ~1e-10.
	EngineFFT
)

// directCostLimit is the tap-multiply budget above which EngineAuto
// switches from the literal sum to the FFT path.
const directCostLimit = 1 << 27

// Generator produces homogeneous surfaces by filtering the counter-based
// white Gaussian field with the kernel. Because the noise is a pure
// function of (seed, lattice point), any window at any offset can be
// generated independently — overlapping windows agree exactly, which is
// what makes strip-by-strip generation of unbounded surfaces seamless.
//
// A Generator is safe for concurrent use: per-call scratch comes from a
// package-level pool, and everything derived from the kernel (float32
// taps, FFT half-spectra) is cached on the Kernel, built once and shared
// by every Generator over it. A Generator is therefore just a kernel
// pointer and a seed, cheap to create per seed. Returned grids are
// caller-owned; scratch is never shared with them. In steady state —
// streaming strips, fixed-size tiles — a Generate call allocates only
// the returned grid.
type Generator struct {
	kernel *Kernel
	field  rng.Field

	// Workers bounds per-call parallelism (0 = GOMAXPROCS).
	Workers int
	// Engine selects the convolution path (default EngineAuto).
	Engine Engine
}

// arenas pools the per-call scratch buffers (noise window, padded real
// workspace, half-spectrum) across all Generators. A pool rather than
// owned buffers keeps concurrent calls correct while still reaching
// zero steady-state allocations, and one pool for the process keeps
// per-seed Generators from each retaining their own scratch.
var arenas = sync.Pool{New: func() any { return new(genArena) }}

// genArena is one call's worth of scratch. Buffers grow to the largest
// geometry seen and are reused across calls.
type genArena struct {
	noise64 []float64    // direct engine: wx×wy noise window of f64 renders
	noise32 []float32    // direct engine: the same for f32 renders
	pad     []float64    // fft engine: px×py padded real workspace
	spec    []complex128 // fft engine: (px/2+1)×py half-spectrum
}

// noiseOf returns the arena's noise window buffer for precision F.
func noiseOf[F simd.Float](ar *genArena) *[]F {
	if p, ok := any(&ar.noise64).(*[]F); ok {
		return p
	}
	return any(&ar.noise32).(*[]F)
}

// grow returns buf resliced to n, reallocating only when capacity is
// insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// NewGenerator wraps a kernel and a noise field seed.
func NewGenerator(k *Kernel, seed uint64) *Generator {
	return &Generator{kernel: k, field: rng.NewField(seed)}
}

// Kernel exposes the generator's kernel (shared, not copied).
func (g *Generator) Kernel() *Kernel { return g.kernel }

// GenerateAt materializes the surface window whose lower corner is
// lattice point (i0, j0), of nx×ny samples. Sample (i, j) of the result
// is the surface value at lattice point (i0+i, j0+j); physical
// coordinates are lattice × spacing. The returned grid is caller-owned.
func (g *Generator) GenerateAt(i0, j0 int64, nx, ny int) *grid.Grid {
	k := g.kernel
	out := grid.New(nx, ny)
	out.Dx, out.Dy = k.Dx, k.Dy
	out.X0 = float64(i0) * k.Dx
	out.Y0 = float64(j0) * k.Dy
	g.GenerateAtInto(out.Data, nx, i0, j0, nx, ny, g.Workers)
	return out
}

// GenerateAtInto is GenerateAt writing into a caller-owned destination
// buffer instead of allocating a grid; see GenerateInto.
func (g *Generator) GenerateAtInto(dst []float64, stride int, i0, j0 int64, nx, ny, workers int) {
	GenerateInto(g, dst, stride, i0, j0, nx, ny, workers)
}

// GenerateAtInto32 is GenerateAtInto rendering in float32 — the serving
// hot path; see GenerateInto.
func (g *Generator) GenerateAtInto32(dst []float32, stride int, i0, j0 int64, nx, ny, workers int) {
	GenerateInto(g, dst, stride, i0, j0, nx, ny, workers)
}

// GenerateInto renders the nx×ny window whose lower corner is lattice
// point (i0, j0) into a caller-owned destination buffer at precision F:
// row j of the window lands at dst[j*stride : j*stride+nx], so a tile
// can be rendered in place inside a larger raster (stride = the
// raster's row length). Samples outside the written rows/columns are
// untouched. workers bounds this call's parallelism (0 defers to the
// generator's Workers field, whose 0 in turn means GOMAXPROCS); unlike
// mutating Workers, passing it here is safe under concurrent calls on
// one Generator. Scratch comes from the package arena pool, so the call
// itself allocates nothing in steady state.
//
// At float32 the taps and noise are narrowed once and the multiply-
// accumulate runs entirely in single precision through the simd MAC
// kernels, which roughly halves memory traffic and doubles SIMD lane
// count over the float64 reference engine. Agreement with float64 is
// statistical, not bit-exact: each sample differs by rounding noise
// bounded well below the surface's own sampling variability (the
// agreement tests gate at 1e-4·σh per sample). Under the FFT engine the
// float64 transforms run at both precisions and only the extracted rows
// are narrowed (DESIGN.md §13).
func GenerateInto[F simd.Float](g *Generator, dst []F, stride int, i0, j0 int64, nx, ny, workers int) {
	checkWindow(len(dst), stride, nx, ny)
	if workers == 0 {
		workers = g.Workers
	}
	ar := arenas.Get().(*genArena)
	switch g.EngineFor(nx, ny) {
	case EngineDirect:
		convolveDirect(g, dst, stride, nx, ny, ar, i0, j0, workers)
	case EngineFFT:
		convolveFFT(g, dst, stride, nx, ny, ar, i0, j0, workers)
	}
	arenas.Put(ar)
}

// checkWindow validates an nx×ny destination window at the given row
// stride against a destination of dstLen samples.
func checkWindow(dstLen, stride, nx, ny int) {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("convgen: invalid window %dx%d", nx, ny))
	}
	if stride < nx {
		panic(fmt.Sprintf("convgen: stride %d below window width %d", stride, nx))
	}
	if need := stride*(ny-1) + nx; dstLen < need {
		panic(fmt.Sprintf("convgen: destination holds %d samples, window needs %d", dstLen, need))
	}
}

// GenerateCentered materializes an nx×ny window centered on the lattice
// origin, matching the paper's figure axes.
func (g *Generator) GenerateCentered(nx, ny int) *grid.Grid {
	return g.GenerateAt(-int64(nx/2), -int64(ny/2), nx, ny)
}

// EngineFor reports the engine GenerateInto would select for an nx×ny
// window — EngineDirect or EngineFFT, resolving EngineAuto's cost
// heuristic. Callers batching windows against a shared noise plane
// (ConvolveNoise, which is direct-only) use it to fall back to the
// self-contained API where the FFT engine would win.
func (g *Generator) EngineFor(nx, ny int) Engine {
	switch g.Engine {
	case EngineDirect, EngineFFT:
		return g.Engine
	}
	cost := int64(nx) * int64(ny) * int64(g.kernel.Nx) * int64(g.kernel.Ny)
	if cost <= directCostLimit {
		return EngineDirect
	}
	return EngineFFT
}

// convolveDirect fills the window's noise rectangle into the arena and
// convolves it with the direct engine (ConvolveNoise over that plane).
func convolveDirect[F simd.Float](g *Generator, dst []F, stride, nx, ny int, ar *genArena, i0, j0 int64, workers int) {
	ni0, nj0, wx, wy := g.kernel.NoiseWindow(i0, j0, nx, ny)
	buf := noiseOf[F](ar)
	*buf = grow(*buf, wx*wy)
	FillNoise(g.field, *buf, ni0, nj0, wx, wy, workers)
	ConvolveNoise(g, dst, stride, *buf, wx, ni0, nj0, i0, j0, nx, ny, workers)
}

// taps returns the kernel at precision F: Kernel.Taps itself for
// float64, and for float32 the narrowed copy built on first use and
// cached on the kernel.
func taps[F simd.Float](k *Kernel) []F {
	if t, ok := any(&k.Taps).(*[]F); ok {
		return *t
	}
	k.taps32Once.Do(func() {
		k.taps32 = make([]float32, len(k.Taps))
		simd.Narrow(k.taps32, k.Taps)
	})
	return *any(&k.taps32).(*[]F)
}

// convolveFFT computes the same linear correlation with padded
// real-input FFTs: corr = IRFFT(RFFT(noise)·conj(RFFT(taps))) evaluated
// on the valid region. Both spectra are Hermitian (real inputs), so the
// whole pipeline runs on nx/2+1 bins per row — about half the
// arithmetic and memory traffic of the complex route. The padded size
// per axis is the next power of two at or above the noise window, which
// is always at least output+kernel−1, so no circular wrap reaches the
// extracted samples. The kernel half-spectrum is cached per padded
// size; plans come from the worker-keyed process cache, so steady state
// builds no tables and allocates nothing beyond the output grid.
//
// The transforms run in float64 at both precisions and the extracted
// rows are stored through simd.Narrow (a copy at float64). The FFT path
// is already O(N log N) with most of its time in the transforms, so a
// float32 transform stack would buy little; the f32 speedup lives in
// the direct path (DESIGN.md §13).
func convolveFFT[F simd.Float](g *Generator, dst []F, stride, nx, ny int, ar *genArena, i0, j0 int64, workers int) {
	k := g.kernel
	ni0, nj0, wx, wy := k.NoiseWindow(i0, j0, nx, ny)
	px := nextPow2(wx)
	py := nextPow2(wy)
	plan, err := fft.CachedPlan2DWorkers(px, py, workers)
	if err != nil {
		panic(err)
	}
	hx := plan.HalfNx()
	ar.pad = grow(ar.pad, px*py)
	ar.spec = grow(ar.spec, hx*py)
	spec := ar.spec
	pad := ar.pad

	// Noise rows go straight into the padded workspace; the padding is
	// re-zeroed because the arena still holds the previous call's
	// inverse output.
	par.For(py, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := pad[j*px : (j+1)*px]
			if j < wy {
				g.field.FillRow(row[:wx], ni0, nj0+int64(j))
				clear(row[wx:])
			} else {
				clear(row)
			}
		}
	})

	plan.ForwardReal(spec, pad)
	tHat := k.cachedTapsHat(plan, px, py)
	par.For(len(spec), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := tHat[i]
			spec[i] *= complex(real(t), -imag(t))
		}
	})
	plan.InverseRealTo(pad, spec)
	for j := 0; j < ny; j++ {
		simd.Narrow(dst[j*stride:j*stride+nx], pad[j*px:j*px+nx])
	}
}

// cachedTapsHat returns the half-spectrum of the kernel zero-padded to
// px×py, computing and caching it on first use for that size.
func (k *Kernel) cachedTapsHat(plan *fft.Plan2D, px, py int) []complex128 {
	key := [2]int{px, py}
	if hat := k.tapsHat.get(key); hat != nil {
		return hat
	}
	pad := make([]float64, px*py)
	for b := 0; b < k.Ny; b++ {
		copy(pad[b*px:b*px+k.Nx], k.Taps[b*k.Nx:(b+1)*k.Nx])
	}
	hat := make([]complex128, plan.HalfNx()*py)
	plan.ForwardReal(hat, pad)
	k.tapsHat.put(key, hat)
	return hat
}

// tapsCacheSize bounds the kernel-spectrum LRU. Streaming and
// fixed-tile workloads live on one entry; mixed-size tile mosaics cycle
// a handful. Recomputing an evicted entry costs one forward transform,
// so a small bound is the right trade against unbounded growth.
const tapsCacheSize = 4

type tapsEntry struct {
	key  [2]int
	hat  []complex128
	used uint64
}

// tapsCache is a locked fixed-capacity LRU keyed by padded FFT size.
type tapsCache struct {
	mu      sync.Mutex
	tick    uint64
	entries []tapsEntry
}

func (c *tapsCache) get(key [2]int) []complex128 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		if c.entries[i].key == key {
			c.tick++
			c.entries[i].used = c.tick
			return c.entries[i].hat
		}
	}
	return nil
}

func (c *tapsCache) put(key [2]int, hat []complex128) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	for i := range c.entries {
		if c.entries[i].key == key {
			// A concurrent call computed the same spectrum; keep ours
			// fresh but do not grow the cache.
			c.entries[i].hat = hat
			c.entries[i].used = c.tick
			return
		}
	}
	if len(c.entries) < tapsCacheSize {
		c.entries = append(c.entries, tapsEntry{key: key, hat: hat, used: c.tick})
		return
	}
	evict := 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].used < c.entries[evict].used {
			evict = i
		}
	}
	c.entries[evict] = tapsEntry{key: key, hat: hat, used: c.tick}
}

// len reports the number of cached spectra (test hook).
func (c *tapsCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Streamer generates an unbounded-in-y surface as successive strips of
// fixed width, realizing the paper's "arbitrarily long or wide RRSs by
// successive computations". Adjacent strips are statistically seamless
// by construction (shared noise field); Next never re-reads previous
// strips.
type Streamer struct {
	gen     *Generator
	i0      int64
	nx      int
	stripNy int
	nextJ   int64
}

// NewStreamer starts a streamer over columns [i0, i0+nx) beginning at
// lattice row j0, producing strips of stripNy rows per Next call.
func NewStreamer(gen *Generator, i0, j0 int64, nx, stripNy int) *Streamer {
	if nx < 1 || stripNy < 1 {
		panic(fmt.Sprintf("convgen: invalid streamer geometry nx=%d stripNy=%d", nx, stripNy))
	}
	return &Streamer{gen: gen, i0: i0, nx: nx, stripNy: stripNy, nextJ: j0}
}

// Next returns the next strip and advances.
func (s *Streamer) Next() *grid.Grid {
	strip := s.gen.GenerateAt(s.i0, s.nextJ, s.nx, s.stripNy)
	s.nextJ += int64(s.stripNy)
	return strip
}

// NextRow reports the lattice row the next strip will start at.
func (s *Streamer) NextRow() int64 { return s.nextJ }
