package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"roughsurface/internal/convgen"
	"roughsurface/internal/par"
)

// kernelsOf parses a scene document and returns its level-z kernels.
func kernelsOf(t *testing.T, doc string, z int) []*convgen.Kernel {
	t.Helper()
	sc, err := ParseScene([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	view, err := sc.AtLevel(z)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := view.Components()
	if err != nil {
		t.Fatal(err)
	}
	return comp.Kernels
}

// TestKernelSharing pins which scenes share a designed kernel: sharing
// follows the resolved design inputs, never the scene ID.
func TestKernelSharing(t *testing.T) {
	const base = `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":9}}`
	k := kernelsOf(t, base, 0)[0]
	share := map[string]string{
		"seed only": `{"nx":64,"ny":64,"method":"homogeneous","seed":7,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"formatting and spelled-out defaults": `{ "spectrum": {"cl": 9, "h": 1.0, "family": "gaussian"},
			"method": "homogeneous", "ny": 64, "nx": 64, "dx": 1, "seed": 1, "generator": "conv" }`,
		"span 8":      `{"nx":64,"ny":64,"method":"homogeneous","kernel_span_cl":8,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"eps 1e-4":    `{"nx":64,"ny":64,"method":"homogeneous","kernel_eps":1e-4,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"clx and cly": `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"clx":9,"cly":9}}`,
		"grid size":   `{"nx":256,"ny":32,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":9}}`,
	}
	for name, doc := range share {
		if got := kernelsOf(t, doc, 0)[0]; got != k {
			t.Errorf("%s: designed a second kernel, want the shared one", name)
		}
	}
	differ := map[string]string{
		"h":        `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":2,"cl":9}}`,
		"cl":       `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":10}}`,
		"family":   `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"exponential","h":1,"cl":9}}`,
		"eps":      `{"nx":64,"ny":64,"method":"homogeneous","kernel_eps":1e-3,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"no trunc": `{"nx":64,"ny":64,"method":"homogeneous","kernel_eps":-1,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"span":     `{"nx":64,"ny":64,"method":"homogeneous","kernel_span_cl":4,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"exact":    `{"nx":64,"ny":64,"method":"homogeneous","exact_variance":true,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
		"dx":       `{"nx":64,"ny":64,"method":"homogeneous","dx":0.5,"spectrum":{"family":"gaussian","h":1,"cl":9}}`,
	}
	for name, doc := range differ {
		if got := kernelsOf(t, doc, 0)[0]; got == k {
			t.Errorf("%s: shares the base kernel, want its own design", name)
		}
	}
}

// TestKernelSharingPyramidAlias checks that a pyramid level shares the
// kernel of the scene whose base spacing equals the level's spacing:
// level 1 at dx=1 is level 0 at dx=2.
func TestKernelSharingPyramidAlias(t *testing.T) {
	fine := kernelsOf(t, `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":11}}`, 1)[0]
	coarse := kernelsOf(t, `{"nx":64,"ny":64,"method":"homogeneous","dx":2,"dy":2,"spectrum":{"family":"gaussian","h":1,"cl":11}}`, 0)[0]
	if fine != coarse {
		t.Error("level 1 at dx=1 and level 0 at dx=2 designed separate kernels")
	}
}

// TestKernelSharingPlateRegions checks that a plate scene whose regions
// have equal spectra holds one kernel for both components.
func TestKernelSharingPlateRegions(t *testing.T) {
	ks := kernelsOf(t, `{"nx":64,"ny":64,"method":"plate","regions":[
		{"shape":"rect","x1":0,"t":8,"spectrum":{"family":"gaussian","h":1,"cl":7}},
		{"shape":"rect","x0":0,"t":8,"spectrum":{"family":"gaussian","h":1,"cl":7}},
		{"shape":"circle","r":20,"t":8,"spectrum":{"family":"gaussian","h":1,"cl":14}}]}`, 0)
	if ks[0] != ks[1] {
		t.Error("equal-spectrum regions designed separate kernels")
	}
	if ks[0] == ks[2] {
		t.Error("regions with different spectra share a kernel")
	}
}

// cached reports whether the design cache holds an entry for key.
func cached(key designKey) bool {
	kernels.mu.Lock()
	defer kernels.mu.Unlock()
	_, ok := kernels.designed[key]
	return ok
}

// TestKernelCacheReleasesDroppedDesigns checks that the cache holds
// designs weakly: once no scene references a kernel and GC has run, its
// entry is gone, and designing the key again gives the same taps.
func TestKernelCacheReleasesDroppedDesigns(t *testing.T) {
	sc := Scene{Nx: 64, Ny: 64, Method: MethodHomogeneous,
		Spectrum: &SpectrumSpec{Family: "exponential", H: 1, CL: 5.5}}.Normalized()
	key := sc.designKey(*sc.Spectrum)
	design := func() []float64 {
		comp, err := sc.Components()
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), comp.Kernels[0].Taps...)
	}
	taps := design()
	if !cached(key) {
		t.Fatal("design was not cached")
	}
	for i := 0; i < 100 && cached(key); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
	}
	if cached(key) {
		t.Fatal("cache still holds the entry after every reference was dropped")
	}
	for i, v := range design() {
		//lint:ignore floatcmp a redesign must be bit-identical
		if v != taps[i] {
			t.Fatalf("tap %d: redesign %g differs from the dropped design %g", i, v, taps[i])
		}
	}
}

// TestKernelCacheConcurrentFirstDesign runs 16 concurrent first designs
// of one key: exactly one design runs and every caller gets its kernel.
func TestKernelCacheConcurrentFirstDesign(t *testing.T) {
	sc := Scene{Nx: 64, Ny: 64, Method: MethodHomogeneous,
		Spectrum: &SpectrumSpec{Family: "gaussian", H: 1, CL: 23.5}}
	before := KernelDesigns()
	const callers = 16
	got := make([]*convgen.Kernel, callers)
	par.ForEach(callers, callers, func(i int) {
		comp, err := sc.Components()
		if err != nil {
			t.Error(err)
			return
		}
		got[i] = comp.Kernels[0]
	})
	if n := KernelDesigns() - before; n != 1 {
		t.Errorf("%d concurrent first designs ran %d designs, want 1", callers, n)
	}
	for i, k := range got {
		if k == nil || k != got[0] {
			t.Fatalf("caller %d got kernel %p, caller 0 got %p", i, k, got[0])
		}
	}
}

// TestKernelCacheErrorsNotCached checks that a failed design is retried
// by the next caller rather than served from the cache.
func TestKernelCacheErrorsNotCached(t *testing.T) {
	key := designKey{family: "failing"}
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := kernels.get(key, func() (*convgen.Kernel, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 2 {
		t.Errorf("failing design ran %d times over two calls, want 2", calls)
	}
	if cached(key) {
		t.Error("failed design left a cache entry")
	}
}
