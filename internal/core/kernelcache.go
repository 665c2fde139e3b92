package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"roughsurface/internal/convgen"
)

// designKey is a kernel design's content address: every input that
// convgen's design reads, after each default is resolved, so spellings
// that design the same kernel share one key. A design is a
// deterministic function of its key; the scene ID and seed are not
// part of it, which is what lets scenes differing only in seed, pyramid
// aliases (level 1 at dx=1 is level 0 at dx=2) and plate regions with
// equal spectra share one kernel.
type designKey struct {
	family               string
	h, clx, cly, n, u, g float64
	dx, dy               float64
	spanCL, eps          float64
	exact                bool
}

// designKey resolves spec's design inputs at the scene's spacing and
// kernel knobs. sc must be normalized.
func (sc Scene) designKey(spec SpectrumSpec) designKey {
	clx, cly := spec.lengths()
	span, eps := convgen.DesignDefaults(sc.KernelSpanCL, sc.KernelEps)
	return designKey{
		family: spec.Family,
		h:      spec.H, clx: clx, cly: cly, n: spec.N, u: spec.U, g: spec.gravity(),
		dx: sc.Dx, dy: sc.Dy,
		spanCL: span, eps: eps,
		exact: sc.ExactVariance,
	}
}

// kernels is the process-wide design cache. It holds designs weakly: an
// entry lives exactly as long as some scene's components (or any other
// holder) reference the kernel, so the cache never outlives its users
// and needs no size bound. A design dropped by GC and designed again is
// bit-identical, so GC timing cannot reach any rendered byte.
var kernels = kernelCache{
	designed: make(map[designKey]weak.Pointer[convgen.Kernel]),
	pending:  make(map[designKey]*designCall),
}

// kernelDesigns counts designs actually computed (cache misses).
var kernelDesigns atomic.Uint64

// KernelDesigns reports how many kernel designs this process has
// computed. Designs served from the shared cache are not counted, so
// with N scenes over one spectrum it rises by one, not N.
func KernelDesigns() uint64 { return kernelDesigns.Load() }

type kernelCache struct {
	mu       sync.Mutex
	designed map[designKey]weak.Pointer[convgen.Kernel]
	pending  map[designKey]*designCall
}

// designCall is one in-flight design; callers arriving for its key
// while it runs wait on once and share its result.
type designCall struct {
	once sync.Once
	k    *convgen.Kernel
	err  error
}

// errDesignPanicked is what callers waiting on a design see when the
// design panicked in the caller that ran it.
var errDesignPanicked = errors.New("core: kernel design panicked")

// get returns the live kernel cached under key, or runs design once for
// all concurrent callers of that key and caches its kernel. Errors are
// returned to the callers waiting at the time and not cached. A key
// holding NaN never equals itself, so it could be neither found nor
// evicted; such designs bypass the cache.
func (c *kernelCache) get(key designKey, design func() (*convgen.Kernel, error)) (*convgen.Kernel, error) {
	if key != key {
		kernelDesigns.Add(1)
		return design()
	}
	c.mu.Lock()
	if k := c.designed[key].Value(); k != nil {
		c.mu.Unlock()
		return k, nil
	}
	call := c.pending[key]
	if call == nil {
		call = &designCall{err: errDesignPanicked}
		c.pending[key] = call
	}
	c.mu.Unlock()
	call.once.Do(func() {
		defer c.settle(key, call)
		kernelDesigns.Add(1)
		call.k, call.err = design()
	})
	return call.k, call.err
}

// settle retires a finished design call and publishes its kernel.
func (c *kernelCache) settle(key designKey, call *designCall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, key)
	if call.err != nil {
		return
	}
	wp := weak.Make(call.k)
	c.designed[key] = wp
	runtime.AddCleanup(call.k, c.evict, designedEntry{key, wp})
}

// designedEntry identifies one cache entry for its cleanup.
type designedEntry struct {
	key designKey
	wp  weak.Pointer[convgen.Kernel]
}

// evict drops a collected kernel's entry, unless the key has since been
// designed again and holds a newer kernel.
func (c *kernelCache) evict(e designedEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.designed[e.key] == e.wp {
		delete(c.designed, e.key)
	}
}
