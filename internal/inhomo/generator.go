package inhomo

import (
	"fmt"
	"slices"
	"sync"

	"roughsurface/internal/approx"
	"roughsurface/internal/convgen"
	"roughsurface/internal/grid"
	"roughsurface/internal/par"
	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// Engine selects the inhomogeneous generation path.
type Engine int

const (
	// EngineAuto uses the tile-sparse path when the blender publishes
	// support masks and those masks vary across the window's tiles;
	// otherwise it takes the dense blended-fields path restricted to
	// the components the masks leave active (spatially uniform masks —
	// e.g. UniformBlender — gain nothing from tiling, and a full-window
	// convolution amortizes its FFT padding better than many tiles).
	EngineAuto Engine = iota
	// EngineDense forces the full-window blended-fields path: all M
	// component surfaces over the whole window, mixed pointwise.
	EngineDense
	// EngineTiled forces the tile-sparse path. Blenders without
	// SupportMask get sampled (non-conservative) masks; see DESIGN.md
	// §9 before forcing this on a custom blender.
	EngineTiled
)

// defaultTileSize is the tile edge in samples: 64² float64 = 32 KiB per
// scratch buffer, small enough that a tile's working set (a few active
// component fields plus the noise window) stays cache-resident.
const defaultTileSize = 64

// Generator synthesizes inhomogeneous surfaces from M homogeneous
// component kernels and a Blender. All kernels must share the sample
// spacing; they may differ in size.
//
// A Generator is safe for concurrent use: per-call scratch comes from
// an internal pool and the per-component convolution generators are
// never mutated after construction. Returned grids are caller-owned.
type Generator struct {
	kernels []*convgen.Kernel
	convs   []*convgen.Generator // one per component, sharing the noise seed
	blender Blender
	seed    uint64

	// Workers bounds per-call parallelism (0 = GOMAXPROCS).
	Workers int
	// Engine selects the generation path (default EngineAuto).
	Engine Engine
	// TileSize overrides the tile edge of the sparse path in samples
	// (0 = the 64-sample default).
	TileSize int
	// Reference forces the literal per-point evaluation of eqn (46)
	// instead of the algebraically identical blended-fields paths.
	// O(outputs × taps × M); intended for validation.
	Reference bool

	dx, dy float64

	// extGroups partitions the components by kernel half-extent so each
	// distinct dilation costs one SupportMask query per tile.
	extGroups []extentGroup

	// arenas pools the per-tile scratch (tileArena[F]) and planes the
	// per-window shared noise (noisePlane[F]), one pool per render
	// precision (see poolFor), so the tiled path allocates nothing per
	// tile in steady state beyond the returned grid.
	arenas, planes [2]sync.Pool
}

// extentGroup is the set of component indices whose kernels share the
// physical half-extent (ex, ey).
type extentGroup struct {
	ex, ey float64
	comps  []int
}

// tileArena is one worker's scratch for rendering a multi-active tile
// at precision F.
type tileArena[F simd.Float] struct {
	fields [][]F     // one tile-sized buffer per active component
	w      []float64 // BlendWeights output, length M
	active []int     // indices of active components
}

// noisePlane is one window's shared noise: field samples at precision F
// for the lattice rectangle [pi0, pi0+pnx) × [pj0, …), row-major at
// stride pnx, as convgen.FillNoise writes them.
type noisePlane[F simd.Float] struct {
	data     []F
	pnx      int
	pi0, pj0 int64
}

// poolFor returns the one of pools that serves precision F: index 0
// for float64, 1 for float32.
func poolFor[F simd.Float](pools *[2]sync.Pool) *sync.Pool {
	var zero F
	if _, ok := any(zero).(float32); ok {
		return &pools[1]
	}
	return &pools[0]
}

// fromPool takes a *T from p, or a new zero T when p is empty.
func fromPool[T any](p *sync.Pool) *T {
	v, _ := p.Get().(*T)
	if v == nil {
		v = new(T)
	}
	return v
}

// grow returns buf resliced to n, reallocating only when capacity is
// insufficient.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// NewGenerator validates the component set against the blender.
func NewGenerator(kernels []*convgen.Kernel, blender Blender, seed uint64) (*Generator, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("inhomo: no component kernels")
	}
	if blender == nil {
		return nil, fmt.Errorf("inhomo: nil blender")
	}
	if blender.NumComponents() != len(kernels) {
		return nil, fmt.Errorf("inhomo: blender expects %d components, got %d kernels",
			blender.NumComponents(), len(kernels))
	}
	dx, dy := kernels[0].Dx, kernels[0].Dy
	convs := make([]*convgen.Generator, len(kernels))
	var groups []extentGroup
	for i, k := range kernels {
		if !approx.Exact(k.Dx, dx) || !approx.Exact(k.Dy, dy) {
			return nil, fmt.Errorf("inhomo: kernel %d spacing (%g,%g) differs from (%g,%g)",
				i, k.Dx, k.Dy, dx, dy)
		}
		convs[i] = convgen.NewGenerator(k, seed) // same seed → same noise field
		ex, ey := k.HalfExtents()
		placed := false
		for gi := range groups {
			if approx.Exact(groups[gi].ex, ex) && approx.Exact(groups[gi].ey, ey) {
				groups[gi].comps = append(groups[gi].comps, i)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, extentGroup{ex: ex, ey: ey, comps: []int{i}})
		}
	}
	return &Generator{kernels: kernels, convs: convs, blender: blender, seed: seed,
		dx: dx, dy: dy, extGroups: groups}, nil
}

// MustGenerator is NewGenerator that panics on error.
func MustGenerator(kernels []*convgen.Kernel, blender Blender, seed uint64) *Generator {
	g, err := NewGenerator(kernels, blender, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// GenerateAt materializes the window with lower lattice corner (i0, j0)
// of nx×ny samples.
func (g *Generator) GenerateAt(i0, j0 int64, nx, ny int) *grid.Grid {
	out := g.newWindow(i0, j0, nx, ny)
	g.GenerateAtInto(out, i0, j0)
	return out
}

// GenerateAtInto renders the window with lower lattice corner (i0, j0)
// into the caller-owned grid; out.Nx×out.Ny fixes the window size and
// the grid's spacing/origin metadata is overwritten to match. Reusing
// one grid across calls makes steady-state generation allocation-free
// on the tiled path (per-tile scratch is pooled). See GenerateInto.
func (g *Generator) GenerateAtInto(out *grid.Grid, i0, j0 int64) {
	out.Dx, out.Dy = g.dx, g.dy
	out.X0, out.Y0 = float64(i0)*g.dx, float64(j0)*g.dy
	GenerateInto(g, out.Data, out.Nx, out.Ny, i0, j0)
}

// GenerateInto renders the nx×ny window with lower lattice corner
// (i0, j0) into dst, row-major at stride nx, at precision F. It is the
// one body behind GenerateAt and the float32 serving path: every
// engine runs the same path selection, with the component convolutions
// (convgen) and the weight blend (blendRows) instantiated at F.
// Agreement of float32 with the float64 engine is tolerance-gated in
// precision_test.go.
func GenerateInto[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64) {
	if nx < 1 || ny < 1 || len(dst) < nx*ny {
		panic(fmt.Sprintf("inhomo: window %dx%d needs a destination of as many samples, got %d", nx, ny, len(dst)))
	}
	if g.Reference {
		// The literal eqn (46) evaluator exists to validate the fast
		// paths, so it stays float64-only; its f32 view is the f64
		// result rounded once per sample (at float64 the store is a
		// no-op copy of dst onto itself).
		ref, ok := any(dst).([]float64)
		if !ok {
			ref = make([]float64, nx*ny)
		}
		g.generateReference(ref, nx, ny, i0, j0)
		simd.Narrow(dst[:nx*ny], ref[:nx*ny])
		return
	}
	if _, ok := g.blender.(SupportMasker); g.Engine == EngineDense || (g.Engine == EngineAuto && !ok) {
		generateDense(g, dst, nx, ny, i0, j0, nil)
		return
	}
	tiles := grid.Tiling(nx, ny, g.tileSize(), g.tileSize())
	masks := g.tileMasks(tiles, i0, j0)
	if shared := sharedMask(masks); shared != nil && g.Engine == EngineAuto {
		generateDense(g, dst, nx, ny, i0, j0, shared)
		return
	}
	generateTiled(g, dst, nx, i0, j0, tiles, masks)
}

// GenerateCentered materializes an nx×ny window centered on the lattice
// origin (the paper's figure convention).
func (g *Generator) GenerateCentered(nx, ny int) *grid.Grid {
	return g.GenerateAt(-int64(nx/2), -int64(ny/2), nx, ny)
}

func (g *Generator) tileSize() int {
	if g.TileSize > 0 {
		return g.TileSize
	}
	return defaultTileSize
}

// tileMasks computes the per-tile active-component masks. Each
// component is queried over the tile's physical rectangle dilated by
// that component's kernel half-extent (belt-and-braces conservatism;
// the pointwise blend algebra needs no dilation — see DESIGN.md §9),
// with one SupportMask call per distinct half-extent.
func (g *Generator) tileMasks(tiles []grid.Tile, i0, j0 int64) [][]bool {
	sm, _ := g.blender.(SupportMasker)
	masks := make([][]bool, len(tiles))
	slab := make([]bool, len(tiles)*len(g.kernels))
	for t, tile := range tiles {
		x0 := float64(i0+int64(tile.X0)) * g.dx
		y0 := float64(j0+int64(tile.Y0)) * g.dy
		x1 := x0 + float64(tile.Nx-1)*g.dx
		y1 := y0 + float64(tile.Ny-1)*g.dy
		mask := slab[t*len(g.kernels) : (t+1)*len(g.kernels)]
		for _, grp := range g.extGroups {
			var qm []bool
			if sm != nil {
				qm = sm.SupportMask(x0-grp.ex, y0-grp.ey, x1+grp.ex, y1+grp.ey)
			} else {
				qm = sampleSupportMask(g.blender, x0-grp.ex, y0-grp.ey, x1+grp.ex, y1+grp.ey)
			}
			for _, m := range grp.comps {
				mask[m] = qm[m]
			}
		}
		if !slices.Contains(mask, true) {
			// A conservative mask can never be all-false under a
			// partition of unity; guard against a broken custom masker
			// anyway by rendering every component.
			for m := range mask {
				mask[m] = true
			}
		}
		masks[t] = mask
	}
	return masks
}

// sharedMask returns the single mask all tiles agree on, or nil when
// the masks vary — the sparsity signal EngineAuto keys on.
func sharedMask(masks [][]bool) []bool {
	first := masks[0]
	for _, m := range masks[1:] {
		for i := range m {
			if m[i] != first[i] {
				return nil
			}
		}
	}
	return first
}

// generateTiled is the sparse engine: each tile runs only its active
// components through the destination-buffer convolution API and fuses
// the w·F accumulation, so work scales with Σ active-tile area instead
// of M × window area. Tiles are scheduled through par.Dynamic because
// their costs are heterogeneous — a seam tile with three active
// components costs several times an interior tile — and static chunking
// would idle workers behind the expensive ones. dst rows have stride
// nx, the window width.
func generateTiled[F simd.Float](g *Generator, dst []F, nx int, i0, j0 int64, tiles []grid.Tile, masks [][]bool) {
	p := takePlane[F](g, i0, j0, tiles, masks)
	defer poolFor[F](&g.planes).Put(p)
	par.Dynamic(len(tiles), g.Workers, func(t int) {
		renderTile(g, dst, nx, i0, j0, tiles[t], masks[t], p)
	})
}

// renderTile materializes one tile of the window in place. The tile is
// the unit of parallelism, so the per-component generation below runs
// single-worker.
func renderTile[F simd.Float](g *Generator, dst []F, stride int, i0, j0 int64, t grid.Tile, mask []bool, p *noisePlane[F]) {
	pool := poolFor[F](&g.arenas)
	ar := fromPool[tileArena[F]](pool)
	defer pool.Put(ar)
	active := ar.active[:0]
	for m, on := range mask {
		if on {
			active = append(active, m)
		}
	}
	ar.active = active

	base := t.Y0*stride + t.X0
	ti0, tj0 := i0+int64(t.X0), j0+int64(t.Y0)
	if len(active) == 1 {
		// Sole active component ⇒ its weight is identically 1 on the
		// tile (weights sum to 1 and the rest are provably zero):
		// generate straight into the output rows, no blend pass.
		renderComponent(g, p, active[0], dst[base:], stride, ti0, tj0, t.Nx, t.Ny, 1)
		return
	}

	n := t.Nx * t.Ny
	if cap(ar.fields) < len(active) {
		ar.fields = append(ar.fields, make([][]F, len(active)-len(ar.fields))...)
	}
	fields := ar.fields[:len(active)]
	for s, m := range active {
		fields[s] = grow(fields[s], n)
		renderComponent(g, p, m, fields[s], t.Nx, ti0, tj0, t.Nx, t.Ny, 1)
	}
	ar.fields = fields[:cap(fields)]
	ar.w = grow(ar.w, len(mask))
	blendRows(g.blender, dst[base:], stride, t.Nx, fields, active, 0, t.Ny, ti0, tj0, g.dx, g.dy, ar.w)
}

// takePlane fills a pooled noise plane for one window (return it to
// poolFor[F](&g.planes) after use). Every component reads the same
// seed's field, so one plane serves all tiles and all components — the
// Box–Muller transform (log/sqrt/cos per sample, the dominant cost of
// small-kernel rendering) runs once per lattice point instead of once
// per tile per active component. The plane covers the window plus the
// halo of every component renderComponent will convolve from it: those
// active on some tile and on the direct engine at that tile's size.
// When no component is, the plane stays empty.
func takePlane[F simd.Float](g *Generator, i0, j0 int64, tiles []grid.Tile, masks [][]bool) *noisePlane[F] {
	p := fromPool[noisePlane[F]](poolFor[F](&g.planes))
	var l, r, t, b, nx, ny int
	used := false
	for ti, tile := range tiles {
		nx, ny = max(nx, tile.X0+tile.Nx), max(ny, tile.Y0+tile.Ny)
		for m, on := range masks[ti] {
			if !on || g.convs[m].EngineFor(tile.Nx, tile.Ny) != convgen.EngineDirect {
				continue
			}
			k := g.kernels[m]
			l, r = max(l, k.CX), max(r, k.Nx-1-k.CX)
			t, b = max(t, k.CY), max(b, k.Ny-1-k.CY)
			used = true
		}
	}
	if !used {
		p.data = p.data[:0]
		return p
	}
	p.pi0, p.pj0 = i0-int64(l), j0-int64(t)
	p.pnx = nx + l + r
	pny := ny + t + b
	p.data = grow(p.data, p.pnx*pny)
	convgen.FillNoise(rng.NewField(g.seed), p.data, p.pi0, p.pj0, p.pnx, pny, g.Workers)
	return p
}

// renderComponent renders component m over an nx×ny window into dst at
// the given row stride: from the shared plane when the component runs
// the direct engine at this window size (bit-identical to its
// self-contained render), otherwise through the self-contained
// convgen.GenerateInto, where the FFT engine amortizes better than
// plane reuse.
func renderComponent[F simd.Float](g *Generator, p *noisePlane[F], m int, dst []F, stride int, i0, j0 int64, nx, ny, workers int) {
	cg := g.convs[m]
	if cg.EngineFor(nx, ny) == convgen.EngineDirect {
		convgen.ConvolveNoise(cg, dst, stride, p.data, p.pnx, p.pi0, p.pj0, i0, j0, nx, ny, workers)
		return
	}
	convgen.GenerateInto(cg, dst, stride, i0, j0, nx, ny, workers)
}

// blendRows is the precision-generic weight-blend inner loop shared by
// the tiled and dense engines: over rows [jlo, jhi) it queries the
// blender once per sample and accumulates Σ_s w[active[s]]·fields[s].
// dst row j spans dst[j*dstStride : j*dstStride+nx]; fields are packed
// at row stride nx with lattice origin (i0, j0). The float64
// instantiation performs exactly the arithmetic of the pre-generic
// loop; the float32 one rounds each weight once per use and
// accumulates in single precision, which the agreement gate in
// precision_test.go bounds (DESIGN.md §13).
func blendRows[F simd.Float](b Blender, dst []F, dstStride, nx int, fields [][]F, active []int,
	jlo, jhi int, i0, j0 int64, dx, dy float64, w []float64) {
	for j := jlo; j < jhi; j++ {
		y := float64(j0+int64(j)) * dy
		row := dst[j*dstStride : j*dstStride+nx]
		off := j * nx
		for i := range row {
			x := float64(i0+int64(i)) * dx
			b.BlendWeights(w, x, y)
			var acc F
			for s, m := range active {
				acc += F(w[m]) * fields[s][off+i]
			}
			row[i] = acc
		}
	}
}

// generateDense produces each active component's homogeneous surface
// over the whole window from the shared noise field and mixes them
// pointwise: f = Σ_m g_n(m)·F_m(n). This is eqn (46) after exchanging
// the two sums. active is a window-wide support mask (nil = every
// component): components it rules out carry zero weight everywhere, so
// skipping their fields is exact. With a single active component the
// window is that component's homogeneous surface and the blend sweep is
// skipped entirely.
func generateDense[F simd.Float](g *Generator, dst []F, nx, ny int, i0, j0 int64, active []bool) {
	if active == nil {
		active = make([]bool, len(g.kernels))
		for m := range active {
			active[m] = true
		}
	}
	var act []int
	for m, on := range active {
		if on {
			act = append(act, m)
		}
	}
	if len(act) == 1 {
		convgen.GenerateInto(g.convs[act[0]], dst, nx, i0, j0, nx, ny, g.Workers)
		return
	}
	window := []grid.Tile{{Nx: nx, Ny: ny}}
	p := takePlane[F](g, i0, j0, window, [][]bool{active})
	fields := make([][]F, len(act))
	for s, m := range act {
		fields[s] = make([]F, nx*ny)
		renderComponent(g, p, m, fields[s], nx, i0, j0, nx, ny, g.Workers)
	}
	poolFor[F](&g.planes).Put(p)
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		blendRows(g.blender, dst, nx, nx, fields, act, lo, hi, i0, j0, g.dx, g.dy, w)
	})
}

// generateReference evaluates eqn (46) literally: at every output point
// the blended kernel Σ_m g·w̃(m) is applied to the noise window.
func (g *Generator) generateReference(dst []float64, nx, ny int, i0, j0 int64) {
	field := rng.NewField(g.seed)
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		for j := lo; j < hi; j++ {
			y := float64(j0+int64(j)) * g.dy
			for i := 0; i < nx; i++ {
				x := float64(i0+int64(i)) * g.dx
				g.blender.BlendWeights(w, x, y)
				var acc float64
				for m, k := range g.kernels {
					if w[m] == 0 {
						continue
					}
					var conv float64
					for b := 0; b < k.Ny; b++ {
						jn := j0 + int64(j) + int64(b-k.CY)
						for a := 0; a < k.Nx; a++ {
							in := i0 + int64(i) + int64(a-k.CX)
							conv += k.At(a, b) * field.At(in, jn)
						}
					}
					acc += w[m] * conv
				}
				dst[j*nx+i] = acc
			}
		}
	})
}

func (g *Generator) newWindow(i0, j0 int64, nx, ny int) *grid.Grid {
	out := grid.New(nx, ny)
	out.Dx, out.Dy = g.dx, g.dy
	out.X0 = float64(i0) * g.dx
	out.Y0 = float64(j0) * g.dy
	return out
}

// WeightMap renders component m's blend weight over a window — useful
// for inspecting transition geometry and for the per-region statistics
// in the experiment harness.
func (g *Generator) WeightMap(m int, i0, j0 int64, nx, ny int) *grid.Grid {
	if m < 0 || m >= len(g.kernels) {
		panic(fmt.Sprintf("inhomo: WeightMap component %d of %d", m, len(g.kernels)))
	}
	out := g.newWindow(i0, j0, nx, ny)
	par.For(ny, g.Workers, func(lo, hi int) {
		w := make([]float64, len(g.kernels))
		for j := lo; j < hi; j++ {
			y := float64(j0+int64(j)) * g.dy
			for i := 0; i < nx; i++ {
				x := float64(i0+int64(i)) * g.dx
				g.blender.BlendWeights(w, x, y)
				out.Data[j*nx+i] = w[m]
			}
		}
	})
	return out
}
