package convgen

import (
	"fmt"

	"roughsurface/internal/par"
	"roughsurface/internal/rng"
	"roughsurface/internal/simd"
)

// NoiseWindow reports the lattice rectangle of field samples the kernel
// reads to render outputs [i0, i0+nx) × [j0, j0+ny): origin
// (i0−CX, j0−CY), size (nx+Nx−1) × (ny+Ny−1). Callers that batch many
// windows against one pre-filled noise plane (the inhomo tile engine)
// size the plane as the union of these rectangles.
func (k *Kernel) NoiseWindow(i0, j0 int64, nx, ny int) (ni0, nj0 int64, wnx, wny int) {
	return i0 - int64(k.CX), j0 - int64(k.CY), nx + k.Nx - 1, ny + k.Ny - 1
}

// FillNoise materializes the field rectangle [i0, i0+w) × [j0, j0+h)
// into dst, row-major at stride w, at precision F: Field.FillRow for
// float64, Field.FillRow32 (the f64 field rounded once per sample) for
// float32. This is the plane ConvolveNoise reads; rows are split across
// workers. The precision switch calls the two fills directly rather
// than through a func value, which would make their stack chunks escape.
func FillNoise[F simd.Float](field rng.Field, dst []F, i0, j0 int64, w, h, workers int) {
	par.For(h, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			switch row := any(dst[j*w : (j+1)*w]).(type) {
			case []float64:
				field.FillRow(row, i0, j0+int64(j))
			case []float32:
				field.FillRow32(row, i0, j0+int64(j))
			}
		}
	})
}

// ConvolveNoiseInto renders the window like GenerateAtInto but reads
// field samples from a caller-supplied plane; see ConvolveNoise.
func (g *Generator) ConvolveNoiseInto(dst []float64, stride int, plane []float64, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	ConvolveNoise(g, dst, stride, plane, pnx, pi0, pj0, i0, j0, nx, ny, workers)
}

// ConvolveNoiseInto32 is ConvolveNoiseInto at float32 render precision;
// see ConvolveNoise.
func (g *Generator) ConvolveNoiseInto32(dst []float32, stride int, plane []float32, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	ConvolveNoise(g, dst, stride, plane, pnx, pi0, pj0, i0, j0, nx, ny, workers)
}

// ConvolveNoise renders the window like GenerateInto but reads field
// samples from the caller-supplied plane instead of materializing its
// own noise window. Sharing one plane across many windows (and across
// same-seed generators, which see the same field) removes the
// per-window Box–Muller cost — the dominant term for small kernels —
// at the price of the caller owning coverage. The plane holds field
// samples for the lattice rectangle [pi0, pi0+pnx) × [pj0, …), row-major
// at stride pnx, as FillNoise writes them at precision F; it must cover
// the kernel's NoiseWindow for the requested output window. Results are
// then bit-identical to GenerateInto's direct engine (same taps, same
// noise values, same summation order). Always runs the direct engine:
// plane reuse targets the many-small-windows regime where direct wins
// anyway.
func ConvolveNoise[F simd.Float](g *Generator, dst []F, stride int, plane []F, pnx int, pi0, pj0, i0, j0 int64, nx, ny, workers int) {
	checkWindow(len(dst), stride, nx, ny)
	if pnx < 1 || len(plane)%pnx != 0 {
		panic(fmt.Sprintf("convgen: noise plane of %d samples is not whole rows of %d", len(plane), pnx))
	}
	pny := len(plane) / pnx
	k := g.kernel
	ni0, nj0, wnx, wny := k.NoiseWindow(i0, j0, nx, ny)
	offX, offY := ni0-pi0, nj0-pj0
	if offX < 0 || offY < 0 || offX+int64(wnx) > int64(pnx) || offY+int64(wny) > int64(pny) {
		panic(fmt.Sprintf("convgen: noise plane %dx%d at (%d,%d) does not cover window %dx%d at (%d,%d) (needs %dx%d at (%d,%d))",
			pnx, pny, pi0, pj0, nx, ny, i0, j0, wnx, wny, ni0, nj0))
	}
	if workers == 0 {
		workers = g.Workers
	}
	convDirect(dst, stride, nx, ny, taps[F](k), k.Nx, k.Ny, plane[int(offY)*pnx+int(offX):], pnx, macRow[F](), workers)
}
