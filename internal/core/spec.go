// Package core is the library's public facade: a declarative scene
// description (JSON-serializable) covering every capability of the
// paper — homogeneous surfaces by the direct DFT or convolution method,
// and inhomogeneous surfaces by the plate-oriented or point-oriented
// method — plus the assembly code that turns a Scene into a generated
// surface. The command-line tools and examples are thin wrappers over
// this package.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"roughsurface/internal/inhomo"
	"roughsurface/internal/spectrum"
)

// SpectrumSpec declares one spectral model. CL is an isotropic
// shorthand; CLX/CLY override it per axis. N is the power-law order
// (required for family "powerlaw", ignored otherwise).
type SpectrumSpec struct {
	Family string  `json:"family"`
	H      float64 `json:"h,omitempty"`
	CL     float64 `json:"cl,omitempty"`
	CLX    float64 `json:"clx,omitempty"`
	CLY    float64 `json:"cly,omitempty"`
	N      float64 `json:"n,omitempty"`

	// Sea-family parameters (family "sea"): wind speed U (m/s) and
	// gravity G (default 9.81). H/CL are derived, not specified.
	U float64 `json:"u,omitempty"`
	G float64 `json:"g,omitempty"`
}

// lengths resolves the isotropic shorthand.
func (s SpectrumSpec) lengths() (clx, cly float64) {
	clx, cly = s.CLX, s.CLY
	if clx == 0 {
		clx = s.CL
	}
	if cly == 0 {
		cly = s.CL
	}
	return clx, cly
}

// Build constructs the spectrum, validating all parameters.
func (s SpectrumSpec) Build() (spectrum.Spectrum, error) {
	clx, cly := s.lengths()
	switch s.Family {
	case "gaussian":
		return spectrum.NewGaussian(s.H, clx, cly)
	case "powerlaw":
		return spectrum.NewPowerLaw(s.H, clx, cly, s.N)
	case "exponential":
		return spectrum.NewExponential(s.H, clx, cly)
	case "sea":
		return spectrum.NewSea(s.U, s.gravity())
	case "":
		return nil, fmt.Errorf("core: spectrum family missing")
	default:
		return nil, fmt.Errorf("core: unknown spectrum family %q (want gaussian, powerlaw, exponential or sea)", s.Family)
	}
}

// gravity resolves the sea family's G default.
func (s SpectrumSpec) gravity() float64 {
	if s.G == 0 {
		return 9.81
	}
	return s.G
}

// key canonicalizes the spec for component deduplication.
func (s SpectrumSpec) key() string {
	clx, cly := s.lengths()
	return fmt.Sprintf("%s|%g|%g|%g|%g|%g|%g", s.Family, s.H, clx, cly, s.N, s.U, s.G)
}

// validate checks the spec field by field, attributing every failure to
// the JSON path that caused it (path is the spec's own location, e.g.
// "regions[2].spectrum"). It accepts exactly the specs Build accepts,
// with finite-parameter checks layered on top, so Validate-then-Build
// never surprises.
func (s SpectrumSpec) validate(path string) error {
	switch s.Family {
	case "gaussian", "exponential":
		return s.validateCommon(path)
	case "powerlaw":
		if err := s.validateCommon(path); err != nil {
			return err
		}
		if !(s.N > 1) || math.IsInf(s.N, 0) {
			return fmt.Errorf("core: %s.n: power-law order must exceed 1 and be finite, got %g", path, s.N)
		}
		return nil
	case "sea":
		if !(s.U > 0) || math.IsInf(s.U, 0) {
			return fmt.Errorf("core: %s.u: wind speed must be > 0 and finite, got %g", path, s.U)
		}
		if s.G != 0 && (!(s.G > 0) || math.IsInf(s.G, 0)) {
			return fmt.Errorf("core: %s.g: gravity must be > 0 and finite, got %g", path, s.G)
		}
		return nil
	case "":
		return fmt.Errorf("core: %s.family: missing (want gaussian, powerlaw, exponential or sea)", path)
	default:
		return fmt.Errorf("core: %s.family: unknown family %q (want gaussian, powerlaw, exponential or sea)", path, s.Family)
	}
}

func (s SpectrumSpec) validateCommon(path string) error {
	if !(s.H > 0) || math.IsInf(s.H, 0) {
		return fmt.Errorf("core: %s.h: height deviation must be > 0 and finite, got %g", path, s.H)
	}
	clx, cly := s.lengths()
	if !(clx > 0) || math.IsInf(clx, 0) {
		return fmt.Errorf("core: %s.%s: correlation length must be > 0 and finite, got %g",
			path, clField(s.CLX, "clx"), clx)
	}
	if !(cly > 0) || math.IsInf(cly, 0) {
		return fmt.Errorf("core: %s.%s: correlation length must be > 0 and finite, got %g",
			path, clField(s.CLY, "cly"), cly)
	}
	return nil
}

// clField names the field the user actually set: the per-axis override
// when present, the isotropic shorthand "cl" otherwise.
func clField(axis float64, name string) string {
	if axis != 0 {
		return name
	}
	return "cl"
}

// RegionSpec declares one plate-oriented region and the statistics that
// hold inside it. Shape is "rect", "circle", "outside-circle" (the
// complement of a circle, as in Fig. 3), "sector" (annular sector:
// radii [R0, R], angles [A0, A1] radians around (CX, CY)) or "polygon"
// (vertices PX/PY). For rects, omitted bounds mean unbounded (±∞), so
// half-planes and quadrants are expressible.
type RegionSpec struct {
	Shape    string       `json:"shape"`
	X0       *float64     `json:"x0,omitempty"`
	Y0       *float64     `json:"y0,omitempty"`
	X1       *float64     `json:"x1,omitempty"`
	Y1       *float64     `json:"y1,omitempty"`
	CX       float64      `json:"cx,omitempty"`
	CY       float64      `json:"cy,omitempty"`
	R        float64      `json:"r,omitempty"`
	R0       float64      `json:"r0,omitempty"`
	A0       float64      `json:"a0,omitempty"`
	A1       float64      `json:"a1,omitempty"`
	PX       []float64    `json:"px,omitempty"`
	PY       []float64    `json:"py,omitempty"`
	T        float64      `json:"t"`
	Spectrum SpectrumSpec `json:"spectrum"`
}

func orInf(v *float64, sign int) float64 {
	if v != nil {
		return *v
	}
	return math.Inf(sign)
}

// buildRegion constructs the geometric region (without its spectrum).
func (r RegionSpec) buildRegion() (inhomo.Region, error) {
	switch r.Shape {
	case "rect":
		return inhomo.Rect{
			X0: orInf(r.X0, -1), Y0: orInf(r.Y0, -1),
			X1: orInf(r.X1, 1), Y1: orInf(r.Y1, 1),
			T: r.T,
		}, nil
	case "circle":
		if !(r.R > 0) {
			return nil, fmt.Errorf("core: circle region needs positive radius, got %g", r.R)
		}
		return inhomo.Circle{CX: r.CX, CY: r.CY, R: r.R, T: r.T}, nil
	case "outside-circle":
		if !(r.R > 0) {
			return nil, fmt.Errorf("core: outside-circle region needs positive radius, got %g", r.R)
		}
		return inhomo.Complement{Inner: inhomo.Circle{CX: r.CX, CY: r.CY, R: r.R, T: r.T}}, nil
	case "sector":
		if !(r.R > r.R0) || r.R0 < 0 {
			return nil, fmt.Errorf("core: sector needs 0 <= r0 < r, got r0=%g r=%g", r.R0, r.R)
		}
		if !(r.A1 > r.A0) || r.A1-r.A0 > 2*math.Pi+1e-9 {
			return nil, fmt.Errorf("core: sector needs a0 < a1 with span <= 2π, got [%g, %g]", r.A0, r.A1)
		}
		return inhomo.Sector{CX: r.CX, CY: r.CY, R0: r.R0, R1: r.R, A0: r.A0, A1: r.A1, T: r.T}, nil
	case "polygon":
		return inhomo.NewPolygon(r.PX, r.PY, r.T)
	default:
		return nil, fmt.Errorf("core: unknown region shape %q", r.Shape)
	}
}

// validate mirrors buildRegion's checks with field-path attribution, so
// scene errors read like "regions[2].r: circle region needs a positive
// radius" instead of pointing at the region as a whole.
func (r RegionSpec) validate(path string) error {
	switch r.Shape {
	case "rect":
		return nil
	case "circle", "outside-circle":
		if !(r.R > 0) {
			return fmt.Errorf("core: %s.r: %s region needs a positive radius, got %g", path, r.Shape, r.R)
		}
	case "sector":
		if !(r.R > r.R0) || r.R0 < 0 {
			return fmt.Errorf("core: %s.r0: sector needs 0 <= r0 < r, got r0=%g r=%g", path, r.R0, r.R)
		}
		if !(r.A1 > r.A0) || r.A1-r.A0 > 2*math.Pi+1e-9 {
			return fmt.Errorf("core: %s.a0: sector needs a0 < a1 with span <= 2π, got [%g, %g]", path, r.A0, r.A1)
		}
	case "polygon":
		if len(r.PX) != len(r.PY) {
			return fmt.Errorf("core: %s.px: polygon coordinate lists differ: %d vs %d", path, len(r.PX), len(r.PY))
		}
		if len(r.PX) < 3 {
			return fmt.Errorf("core: %s.px: polygon needs at least 3 vertices, got %d", path, len(r.PX))
		}
	case "":
		return fmt.Errorf("core: %s.shape: missing (want rect, circle, outside-circle, sector or polygon)", path)
	default:
		return fmt.Errorf("core: %s.shape: unknown shape %q (want rect, circle, outside-circle, sector or polygon)", path, r.Shape)
	}
	return nil
}

// PointSpec declares one representative point of the point-oriented
// method with the statistics holding around it.
type PointSpec struct {
	X        float64      `json:"x"`
	Y        float64      `json:"y"`
	Spectrum SpectrumSpec `json:"spectrum"`
}

// Method names accepted by Scene.Method.
const (
	MethodHomogeneous = "homogeneous"
	MethodPlate       = "plate"
	MethodPoint       = "point"
)

// Generator engine names accepted by Scene.Generator.
const (
	GeneratorConv = "conv"
	GeneratorDFT  = "dft"
)

// Render precisions for Scene.Precision.
const (
	PrecisionF32 = "f32"
	PrecisionF64 = "f64"
)

// Scene is a complete declarative surface description.
type Scene struct {
	// Grid geometry. The window is centered on the origin; Dx/Dy default
	// to 1.
	Nx int     `json:"nx"`
	Ny int     `json:"ny"`
	Dx float64 `json:"dx,omitempty"`
	Dy float64 `json:"dy,omitempty"`

	// Seed selects the noise realization (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Method: homogeneous, plate or point.
	Method string `json:"method"`

	// Homogeneous fields.
	Spectrum  *SpectrumSpec `json:"spectrum,omitempty"`
	Generator string        `json:"generator,omitempty"` // conv (default) or dft

	// Precision selects the default render precision for this scene's
	// tiles: "f64" (the reference engine, default) or "f32" (the SIMD
	// serving pipeline; DESIGN.md §13). It does not change the surface
	// being described — f32 renders agree with f64 within the
	// documented tolerance — so "f64" is collapsed to empty during
	// normalization and the choice never splits the scene's content
	// address. Per-request ?precision= overrides it.
	Precision string `json:"precision,omitempty"`

	// Plate-oriented fields.
	Regions []RegionSpec `json:"regions,omitempty"`

	// Point-oriented fields.
	Points      []PointSpec `json:"points,omitempty"`
	TransitionT float64     `json:"transition_t,omitempty"`

	// Kernel design knobs (convolution method): the design span in
	// correlation lengths (default 8) and the truncation energy epsilon
	// (default 1e-4; -1 disables truncation).
	KernelSpanCL float64 `json:"kernel_span_cl,omitempty"`
	KernelEps    float64 `json:"kernel_eps,omitempty"`

	// ExactVariance rescales each weight array so the generated height
	// variance equals h² exactly, compensating the spectral tail beyond
	// the Nyquist frequency (an extension beyond the paper's raw
	// discretization; matters most for the exponential family at short
	// correlation lengths).
	ExactVariance bool `json:"exact_variance,omitempty"`
}

// normalized returns a copy with defaults applied.
func (sc Scene) normalized() Scene {
	if sc.Dx == 0 {
		sc.Dx = 1
	}
	if sc.Dy == 0 {
		sc.Dy = 1
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Generator == "" {
		sc.Generator = GeneratorConv
	}
	if sc.Precision == PrecisionF64 {
		// Collapse rather than spell out: precision is a render knob,
		// not part of the surface's identity, and scenes hashed before
		// the field existed must keep their content address.
		sc.Precision = ""
	}
	return sc
}

// Normalized returns a copy with all defaults applied — unit spacings,
// seed 1, the conv generator. It is the canonical form: the service
// layer hashes the JSON encoding of the normalized scene for content
// addressing, so formatting differences and spelled-out defaults don't
// split the cache.
func (sc Scene) Normalized() Scene {
	return sc.normalized()
}

// Validate checks the scene for structural errors without generating.
// Errors carry the JSON field path of the offending value (e.g.
// "regions[2].spectrum.clx: must be > 0 ..."), so a rejected request
// against a large scene file points at the exact line to fix.
func (sc Scene) Validate() error {
	s := sc.normalized()
	if s.Nx < 2 || s.Ny < 2 {
		return fmt.Errorf("core: nx/ny: scene grid must be at least 2x2, got %dx%d", s.Nx, s.Ny)
	}
	if !(s.Dx > 0) || math.IsInf(s.Dx, 0) {
		return fmt.Errorf("core: dx: sample spacing must be > 0 and finite, got %g", s.Dx)
	}
	if !(s.Dy > 0) || math.IsInf(s.Dy, 0) {
		return fmt.Errorf("core: dy: sample spacing must be > 0 and finite, got %g", s.Dy)
	}
	if s.Precision != "" && s.Precision != PrecisionF32 {
		return fmt.Errorf("core: precision: unknown precision %q (want f32 or f64)", sc.Precision)
	}
	switch s.Method {
	case MethodHomogeneous:
		if s.Spectrum == nil {
			return fmt.Errorf("core: spectrum: homogeneous scene needs a spectrum")
		}
		if err := s.Spectrum.validate("spectrum"); err != nil {
			return err
		}
		if s.Generator != GeneratorConv && s.Generator != GeneratorDFT {
			return fmt.Errorf("core: generator: unknown generator %q (want conv or dft)", s.Generator)
		}
	case MethodPlate:
		if len(s.Regions) == 0 {
			return fmt.Errorf("core: regions: plate scene needs at least one region")
		}
		for i, r := range s.Regions {
			path := fmt.Sprintf("regions[%d]", i)
			if err := r.validate(path); err != nil {
				return err
			}
			if err := r.Spectrum.validate(path + ".spectrum"); err != nil {
				return err
			}
		}
	case MethodPoint:
		if len(s.Points) == 0 {
			return fmt.Errorf("core: points: point scene needs at least one point")
		}
		if !(s.TransitionT > 0) || math.IsInf(s.TransitionT, 0) {
			return fmt.Errorf("core: transition_t: point scene needs a positive finite transition width, got %g", s.TransitionT)
		}
		for i, p := range s.Points {
			if err := p.Spectrum.validate(fmt.Sprintf("points[%d].spectrum", i)); err != nil {
				return err
			}
		}
	case "":
		return fmt.Errorf("core: method: missing (want homogeneous, plate or point)")
	default:
		return fmt.Errorf("core: method: unknown method %q (want homogeneous, plate or point)", s.Method)
	}
	return nil
}

// ParseScene decodes a JSON scene, rejecting unknown fields so typos in
// config files fail loudly.
func ParseScene(data []byte) (Scene, error) {
	var sc Scene
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scene{}, fmt.Errorf("core: parsing scene: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scene{}, err
	}
	return sc, nil
}

// LoadScene reads and parses a JSON scene file.
func LoadScene(path string) (Scene, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scene{}, err
	}
	return ParseScene(data)
}

// MarshalIndent renders the scene back to formatted JSON.
func (sc Scene) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}
