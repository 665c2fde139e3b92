package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"roughsurface/internal/convgen"
	"roughsurface/internal/core"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/render"
	"roughsurface/internal/rng"
	"roughsurface/internal/service"
)

// sceneID is the content address rrsd must return for a POSTed
// document, computed through the same public calls.
func sceneID(doc []byte) (string, error) {
	sc, err := core.ParseScene(doc)
	if err != nil {
		return "", err
	}
	id, _, err := service.SceneID(sc.Normalized())
	return id, err
}

// model is the in-process twin of one registered scene: it renders any
// op's tile through the library's public calls, the way rrsd's render
// path does — components designed once per pyramid level, one
// generator per (level, seed), one render worker — so its bytes must
// equal rrsd's.
type model struct {
	scene core.Scene
	id    string
	comps map[int]*core.Components
	homog map[genKey]*convgen.Generator
	inhom map[genKey]*inhomo.Generator
	plane []float32 // noise plane scratch of the split pipeline
}

type genKey struct {
	level int
	seed  uint64
}

// newModel parses and content-addresses a scene document (span
// core.parse).
func newModel(doc []byte, tr *tracer, opID int64, parent int) (*model, error) {
	m := &model{
		comps: make(map[int]*core.Components),
		homog: make(map[genKey]*convgen.Generator),
		inhom: make(map[genKey]*inhomo.Generator),
	}
	var err error
	tr.timed(opID, "core.parse", parent, func() {
		m.scene, err = core.ParseScene(doc)
		if err == nil {
			m.scene = m.scene.Normalized()
			m.id, _, err = service.SceneID(m.scene)
		}
	})
	return m, err
}

// components designs the level's kernels on first use (span
// core.design).
func (m *model) components(level int, tr *tracer, opID int64, parent int) (*core.Components, error) {
	if c, ok := m.comps[level]; ok {
		return c, nil
	}
	var comp *core.Components
	var err error
	tr.timed(opID, "core.design", parent, func() {
		var view core.Scene
		if view, err = m.scene.AtLevel(level); err == nil {
			comp, err = view.Components()
		}
	})
	if err != nil {
		return nil, err
	}
	m.comps[level] = comp
	return comp, nil
}

// replayStats are the per-op counts the replay gathers beside its
// spans.
type replayStats struct {
	noiseSamples []float64 // noise-plane samples per split render
	macs         []float64 // multiply-adds per direct-engine render
	renders      int       // convgen renders
	fftRenders   int       // ... of which used the FFT engine
	active       []float64 // mean components active per sparse tile of a plate window
	pngBytes     []float64
	splitChecked int       // split renders compared with the whole call
	splitDiffer  int       // ... that differed in any bit
	splitGap     []float64 // |fill + conv − whole| / whole, per op
}

// render returns op o's tile bytes as rrsd would serve them. It models
// the three op shapes the workloads send: f32 homogeneous tiles in the
// f32 wire format, and f64 homogeneous or plate tiles as PNG. With
// split set, f32 direct-engine tiles are also rendered as noise fill
// plus ConvolveNoiseInto32 and compared bit-for-bit with the whole
// GenerateAtInto32 call (the traced run's self-check).
func (m *model) render(o op, tr *tracer, parent int, st *replayStats, split bool) ([]byte, error) {
	comp, err := m.components(o.Level, tr, o.K, parent)
	if err != nil {
		return nil, err
	}
	seed := o.Seed
	if seed == 0 {
		seed = m.scene.Seed
	}
	f32 := o.Precision == core.PrecisionF32 || (o.Precision == "" && m.scene.Precision == core.PrecisionF32)
	if f32 != (o.Format == "f32") {
		return nil, fmt.Errorf("op %d: no in-process model for format %s at precision %q", o.K, o.Format, o.Precision)
	}
	key := genKey{o.Level, seed}
	out := grid.New(o.Nx, o.Ny)
	if comp.Blender == nil {
		g, ok := m.homog[key]
		if !ok {
			g = convgen.NewGenerator(comp.Kernels[0], seed)
			m.homog[key] = g
		}
		st.renders++
		engine := g.EngineFor(o.Nx, o.Ny)
		if engine == convgen.EngineFFT {
			st.fftRenders++
		} else {
			k := g.Kernel()
			st.macs = append(st.macs, float64(o.Nx*o.Ny*k.Nx*k.Ny))
		}
		if f32 {
			var parts []float32
			var fill, conv int
			if split && engine == convgen.EngineDirect {
				parts, fill, conv = m.splitRender(g, o, seed, tr, parent, st)
			}
			dst := make([]float32, o.Nx*o.Ny)
			whole := tr.begin(o.K, "convgen.render", parent)
			g.GenerateAtInto32(dst, o.Nx, o.I0, o.J0, o.Nx, o.Ny, 1)
			tr.end(whole)
			if parts != nil {
				st.compareSplit(parts, dst, tr, fill, conv, whole)
			}
			return f32Bytes(dst), nil
		}
		tr.timed(o.K, "convgen.render", parent, func() {
			g.GenerateAtInto(out.Data, o.Nx, o.I0, o.J0, o.Nx, o.Ny, 1)
		})
	} else {
		if f32 {
			return nil, fmt.Errorf("op %d: no in-process model for f32 plate tiles", o.K)
		}
		g, ok := m.inhom[key]
		if !ok {
			if g, err = inhomo.NewGenerator(comp.Kernels, comp.Blender, seed); err != nil {
				return nil, err
			}
			g.Workers = 1
			m.inhom[key] = g
		}
		if sm, ok := comp.Blender.(inhomo.SupportMasker); ok {
			tr.timed(o.K, "inhomo.support_mask", parent, func() {
				mean, _ := activeComponents(sm, comp, o)
				st.active = append(st.active, mean)
			})
		}
		tr.timed(o.K, "inhomo.render", parent, func() { g.GenerateAtInto(out, o.I0, o.J0) })
	}
	var buf bytes.Buffer
	tr.timed(o.K, "render.png", parent, func() { err = render.PNG(&buf, out) })
	st.pngBytes = append(st.pngBytes, float64(buf.Len()))
	return buf.Bytes(), err
}

// splitRender renders the tile in two public steps — rng noise fill
// over the kernel's NoiseWindow, then ConvolveNoiseInto32 — returning
// the samples and the two steps' span indices.
func (m *model) splitRender(g *convgen.Generator, o op, seed uint64, tr *tracer, parent int, st *replayStats) (out []float32, fill, conv int) {
	k := g.Kernel()
	ni0, nj0, wnx, wny := k.NoiseWindow(o.I0, o.J0, o.Nx, o.Ny)
	if cap(m.plane) < wnx*wny {
		m.plane = make([]float32, wnx*wny)
	}
	plane := m.plane[:wnx*wny]
	out = make([]float32, o.Nx*o.Ny)
	field := rng.NewField(seed)
	fill = tr.begin(o.K, "rng.noise_fill", parent)
	for j := 0; j < wny; j++ {
		field.FillRow32(plane[j*wnx:(j+1)*wnx], ni0, nj0+int64(j))
	}
	tr.end(fill)
	conv = tr.begin(o.K, "simd.conv_direct", parent)
	g.ConvolveNoiseInto32(out, o.Nx, plane, wnx, ni0, nj0, o.I0, o.J0, o.Nx, o.Ny, 1)
	tr.end(conv)
	st.noiseSamples = append(st.noiseSamples, float64(wnx*wny))
	return out, fill, conv
}

// compareSplit is the self-check: the split render must equal the
// whole GenerateAtInto32 call bit-for-bit, and the two steps' times
// must add up to the whole call's.
func (st *replayStats) compareSplit(split, whole []float32, tr *tracer, fill, conv, all int) {
	st.splitChecked++
	for i := range whole {
		if math.Float32bits(whole[i]) != math.Float32bits(split[i]) {
			st.splitDiffer++
			break
		}
	}
	if tr != nil {
		w := float64(tr.dur(all))
		st.splitGap = append(st.splitGap, math.Abs(float64(tr.dur(fill)+tr.dur(conv))-w)/w)
	}
}

// sparseTile is the tile edge of inhomo's tile-sparse engine (its
// default), the granularity at which it prunes inactive components.
const sparseTile = 64

// activeComponents returns the mean and the largest number of plate
// components active per sparseTile² tile of the window, found the way
// the tile-sparse engine prunes them: component m is active on a tile
// when SupportMask over the tile's physical rectangle, dilated by m's
// kernel half-extent, marks it.
func activeComponents(sm inhomo.SupportMasker, comp *core.Components, o op) (mean float64, most int) {
	dx, dy := comp.Kernels[0].Dx, comp.Kernels[0].Dy
	var sum, tiles int
	for _, t := range grid.Tiling(o.Nx, o.Ny, sparseTile, sparseTile) {
		x0, y0 := float64(o.I0+int64(t.X0))*dx, float64(o.J0+int64(t.Y0))*dy
		x1, y1 := x0+float64(t.Nx-1)*dx, y0+float64(t.Ny-1)*dy
		n := 0
		for m, k := range comp.Kernels {
			ex, ey := k.HalfExtents()
			if sm.SupportMask(x0-ex, y0-ey, x1+ex, y1+ey)[m] {
				n++
			}
		}
		sum += n
		tiles++
		most = max(most, n)
	}
	return float64(sum) / float64(tiles), most
}

// f32Bytes is rrsd's f32 wire format: row-major little-endian float32.
func f32Bytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// verifyOp renders o in-process and compares it byte-for-byte with
// rrsd's response body.
func verifyOp(doc []byte, o op, body []byte) error {
	m, err := newModel(doc, nil, o.K, -1)
	if err != nil {
		return err
	}
	want, err := m.render(o, nil, -1, &replayStats{}, false)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("op %d %s: rrsd's %d bytes differ from the in-process render's %d", o.K, o.path(m.id), len(body), len(want))
	}
	return nil
}
