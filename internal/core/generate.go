package core

import (
	"fmt"

	"roughsurface/internal/convgen"
	"roughsurface/internal/dftgen"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/rng"
)

// Result bundles a generated surface with the assembled machinery, so
// callers can generate further windows (tiling, streaming) or inspect
// blend weights without re-deriving kernels.
type Result struct {
	Surface *grid.Grid
	// Inhomo is non-nil for plate/point scenes.
	Inhomo *inhomo.Generator
	// Conv is non-nil for homogeneous convolution scenes.
	Conv *convgen.Generator
	// KernelSizes reports the (possibly truncated) kernel extents per
	// component, for cost reporting.
	KernelSizes [][2]int
}

// Generate assembles and runs the scene, returning the surface centered
// on the origin.
func Generate(sc Scene) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := sc.normalized()
	switch s.Method {
	case MethodHomogeneous:
		return generateHomogeneous(s)
	case MethodPlate:
		return generatePlate(s)
	case MethodPoint:
		return generatePoint(s)
	}
	panic("unreachable: Validate accepted unknown method")
}

// MustGenerate is Generate that panics on error, for validated presets.
func MustGenerate(sc Scene) *Result {
	r, err := Generate(sc)
	if err != nil {
		panic(err)
	}
	return r
}

// Components is the scene's generation machinery without a materialized
// surface: the designed convolution kernels plus, for plate/point
// scenes, the blender that mixes them. It is the window-server entry
// point — a caller holding Components can pair the kernels with
// convgen/inhomo generators (any seed) and render arbitrary windows of
// the same deterministic surface on demand, amortizing kernel design
// across requests.
type Components struct {
	// Kernels holds one designed kernel per component (exactly one for
	// homogeneous scenes). Kernels are shared process-wide with every
	// scene, level and component whose design inputs are equal (see
	// designKey), so a plate scene may hold one kernel twice; they must
	// never be mutated.
	Kernels []*convgen.Kernel
	// Blender is non-nil for plate/point scenes.
	Blender inhomo.Blender
	// KernelSizes reports the (possibly truncated) kernel extents per
	// component, for cost reporting.
	KernelSizes [][2]int
}

// Components validates the scene and designs its kernels (and blender)
// without generating samples. Scenes with the dft generator have no
// windowed form — the direct spectral method synthesizes one periodic
// grid, not an unbounded surface — so they are rejected here even
// though Generate accepts them.
func (sc Scene) Components() (*Components, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := sc.normalized()
	switch s.Method {
	case MethodHomogeneous:
		if s.Generator == GeneratorDFT {
			return nil, fmt.Errorf("core: generator: dft has no windowed components (one periodic grid, not an unbounded surface); use conv")
		}
		k, err := s.designKernel(*s.Spectrum)
		if err != nil {
			return nil, err
		}
		return &Components{
			Kernels:     []*convgen.Kernel{k},
			KernelSizes: [][2]int{{k.Nx, k.Ny}},
		}, nil
	case MethodPlate:
		return s.plateComponents()
	case MethodPoint:
		return s.pointComponents()
	}
	panic("unreachable: Validate accepted unknown method")
}

// designKernel returns the kernel for spec at the (normalized) scene's
// spacing and kernel knobs, from the process-wide design cache when any
// scene already holds a design with the same inputs. The kernel may be
// shared with other scenes and must not be mutated.
func (sc Scene) designKernel(spec SpectrumSpec) (*convgen.Kernel, error) {
	return kernels.get(sc.designKey(spec), func() (*convgen.Kernel, error) {
		s, err := spec.Build()
		if err != nil {
			return nil, err
		}
		if sc.ExactVariance {
			return convgen.DesignExact(s, sc.Dx, sc.Dy, sc.KernelSpanCL, sc.KernelEps)
		}
		return convgen.Design(s, sc.Dx, sc.Dy, sc.KernelSpanCL, sc.KernelEps)
	})
}

func generateHomogeneous(sc Scene) (*Result, error) {
	spec, err := sc.Spectrum.Build()
	if err != nil {
		return nil, err
	}
	if sc.Generator == GeneratorDFT {
		gen, err := dftgen.New(spec, sc.Nx, sc.Ny, sc.Dx, sc.Dy)
		if err != nil {
			return nil, err
		}
		return &Result{Surface: gen.Generate(rng.NewGaussian(sc.Seed))}, nil
	}
	kernel, err := sc.designKernel(*sc.Spectrum)
	if err != nil {
		return nil, err
	}
	conv := convgen.NewGenerator(kernel, sc.Seed)
	return &Result{
		Surface:     conv.GenerateCentered(sc.Nx, sc.Ny),
		Conv:        conv,
		KernelSizes: [][2]int{{kernel.Nx, kernel.Ny}},
	}, nil
}

func (sc Scene) plateComponents() (*Components, error) {
	regions := make([]inhomo.Region, len(sc.Regions))
	kernels := make([]*convgen.Kernel, len(sc.Regions))
	sizes := make([][2]int, len(sc.Regions))
	for i, rs := range sc.Regions {
		r, err := rs.buildRegion()
		if err != nil {
			return nil, fmt.Errorf("regions[%d]: %w", i, err)
		}
		regions[i] = r
		k, err := sc.designKernel(rs.Spectrum)
		if err != nil {
			return nil, fmt.Errorf("regions[%d]: %w", i, err)
		}
		kernels[i] = k
		sizes[i] = [2]int{k.Nx, k.Ny}
	}
	blender, err := inhomo.NewPlateBlender(regions)
	if err != nil {
		return nil, err
	}
	return &Components{Kernels: kernels, Blender: blender, KernelSizes: sizes}, nil
}

func (sc Scene) pointComponents() (*Components, error) {
	// Deduplicate identical spectra into shared components, so the ten
	// points of Fig. 4 need only four kernels.
	index := map[string]int{}
	var kernels []*convgen.Kernel
	var sizes [][2]int
	points := make([]inhomo.Point, len(sc.Points))
	for i, ps := range sc.Points {
		key := ps.Spectrum.key()
		comp, ok := index[key]
		if !ok {
			k, err := sc.designKernel(ps.Spectrum)
			if err != nil {
				return nil, fmt.Errorf("points[%d]: %w", i, err)
			}
			comp = len(kernels)
			index[key] = comp
			kernels = append(kernels, k)
			sizes = append(sizes, [2]int{k.Nx, k.Ny})
		}
		points[i] = inhomo.Point{X: ps.X, Y: ps.Y, Component: comp}
	}
	blender, err := inhomo.NewPointBlender(points, sc.TransitionT, len(kernels))
	if err != nil {
		return nil, err
	}
	return &Components{Kernels: kernels, Blender: blender, KernelSizes: sizes}, nil
}

func generatePlate(sc Scene) (*Result, error) {
	comp, err := sc.plateComponents()
	if err != nil {
		return nil, err
	}
	gen, err := inhomo.NewGenerator(comp.Kernels, comp.Blender, sc.Seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Surface:     gen.GenerateCentered(sc.Nx, sc.Ny),
		Inhomo:      gen,
		KernelSizes: comp.KernelSizes,
	}, nil
}

func generatePoint(sc Scene) (*Result, error) {
	comp, err := sc.pointComponents()
	if err != nil {
		return nil, err
	}
	gen, err := inhomo.NewGenerator(comp.Kernels, comp.Blender, sc.Seed)
	if err != nil {
		return nil, err
	}
	return &Result{
		Surface:     gen.GenerateCentered(sc.Nx, sc.Ny),
		Inhomo:      gen,
		KernelSizes: comp.KernelSizes,
	}, nil
}
