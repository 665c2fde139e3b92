package main

import (
	"fmt"
	"sort"
)

// Request geometry shared by every workload.
const (
	tileEdge = 256 // rrsd's default -tile-edge; every op fetches one 256² tile
	conns    = 2   // client connections: nproc of the 2-core reference host
)

// op is one scheduled unit of work. For every workload but scene-churn
// it is one tile GET against a scene registered during setup; in
// scene-churn it is one scene onboarding: POST Doc, then GET that
// scene's first window.
type op struct {
	K         int64
	Scene     int    // index into the workload's setup scenes; -1 when Doc is posted
	Doc       []byte // scene document to register first (scene-churn)
	Pyramid   bool   // pyramid route /tile/{z}/{x},{y}; else the free-window route
	Level     int
	I0, J0    int64 // window lattice origin on Level's lattice
	Nx, Ny    int
	Seed      uint64 // ?seed= (0: the scene's own seed)
	Format    string // f32 | png
	Precision string // f32 | f64 ("" for the scene default, f64)
	Class     string // window class (plates-png), for the report
}

// path is the request path and query of the op's tile, for scene id.
func (o op) path(id string) string {
	q := "format=" + o.Format
	if o.Seed != 0 {
		q = fmt.Sprintf("seed=%d&%s", o.Seed, q)
	}
	if o.Precision != "" {
		q += "&precision=" + o.Precision
	}
	if o.Pyramid {
		return fmt.Sprintf("/v1/scene/%s/tile/%d/%d,%d?%s", id, o.Level, o.I0/tileEdge, o.J0/tileEdge, q)
	}
	return fmt.Sprintf("/v1/scene/%s/tile/%d,%d,%dx%d?%s", id, o.I0, o.J0, o.Nx, o.Ny, q)
}

// workload is one traffic mix. Every field is a pure function of the
// workload seed: two runs with one seed send the same requests in the
// same order.
type workload struct {
	name string
	// rate > 0 makes the workload open loop: op k is due k/rate seconds
	// into the window. Otherwise it is closed loop over conns
	// connections, each sending its next op when the previous returns.
	rate float64
	// scenes are registered during setup; op.Scene indexes them.
	scenes func(seed uint64) [][]byte
	// warm lists the tiles fetched during setup, after registration:
	// they pay kernel design for the levels used (and, in viewer-hot,
	// fill the cache) before the window opens. None is a scheduled op.
	warm func(seed uint64) []op
	// op is the schedule.
	op func(seed uint64, k int64) op
	// check is the scheduled op whose response is compared
	// byte-for-byte with an in-process render after the window.
	check int64
}

var workloads = map[string]*workload{
	"raster-f32":  rasterF32,
	"viewer-hot":  viewerHot,
	"plates-png":  platesPNG,
	"scene-churn": sceneChurn,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mix derives an independent 64-bit value from the seed and a stream
// of salts (SplitMix64 finalizer over a running state).
func mix(seed uint64, salts ...uint64) uint64 {
	z := seed ^ 0x6a09e667f3bcc909
	for _, s := range salts {
		z += 0x9e3779b97f4a7c15 ^ s*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// jitter returns a value in [-n, n) derived from the seed and salts.
func jitter(n int64, seed uint64, salts ...uint64) int64 {
	return int64(mix(seed, salts...)%uint64(2*n)) - n
}

// tileSeed is the ?seed= of a workload's tiles: never 0, so the
// request always names it.
func tileSeed(seed uint64, salt uint64) uint64 { return 1 + mix(seed, salt)%1_000_000 }

// gaussScene is rrsload's default scene: homogeneous Gaussian, h=1,
// cl=8 (a 23×23 kernel at level 0).
const gaussScene = `{"nx":64,"ny":64,"method":"homogeneous","spectrum":{"family":"gaussian","h":1,"cl":8}}`

// rasterRow is the raster's row length in tiles.
const rasterRow = 64

// raster-f32: bulk analysis pulls. Contiguous, non-overlapping 256²
// windows in row-major order, never revisited: every request misses the
// cache and the two in flight are always neighbours.
var rasterF32 = &workload{
	name:   "raster-f32",
	scenes: func(uint64) [][]byte { return [][]byte{[]byte(gaussScene)} },
	warm: func(seed uint64) []op {
		o := rasterOp(seed, 0)
		o.J0 -= tileEdge // the row above the raster: designs the kernel, never scheduled
		o.K = -1
		return []op{o}
	},
	op: rasterOp,
}

func rasterOp(seed uint64, k int64) op {
	x0 := jitter(2048, seed, 1) * rasterRow * tileEdge
	y0 := jitter(1<<20, seed, 2) * tileEdge
	return op{
		K: k, Scene: 0,
		I0: x0 + (k%rasterRow)*tileEdge, J0: y0 + (k/rasterRow)*tileEdge,
		Nx: tileEdge, Ny: tileEdge,
		Seed: tileSeed(seed, 3), Format: "f32", Precision: "f32",
	}
}

// viewerZmax is the deepest level of the viewer trace (rrsload -zmax 3).
const viewerZmax = 3

// zoomSteps is the pan/zoom trace shape of rrsload -walk zoom: pan a
// 2×2-tile viewport through four positions per level, zoom in level by
// level (tile coordinates double), then zoom back out along a path
// shifted one tile. Entries are (z, x, y).
func zoomSteps(zmax int) [][3]int64 {
	var trace [][3]int64
	view := func(z int, cx, cy int64) {
		for dy := int64(0); dy < 2; dy++ {
			for dx := int64(0); dx < 2; dx++ {
				trace = append(trace, [3]int64{int64(z), cx + dx, cy + dy})
			}
		}
	}
	cx, cy := int64(0), int64(0)
	for z := zmax; z >= 0; z-- {
		for pan := int64(0); pan < 4; pan++ {
			view(z, cx+pan, cy)
		}
		cx, cy = (cx+3)*2, cy*2
	}
	cx, cy = cx/2, cy/2+1
	for z := 1; z <= zmax; z++ {
		for pan := int64(0); pan < 4; pan++ {
			view(z, cx-pan, cy)
		}
		cx, cy = cx/2-3, cy/2+1
	}
	return trace
}

var viewerTrace = zoomSteps(viewerZmax)

// viewer-hot: map viewers. Two sessions replay the zoom trace from
// staggered offsets over a seed-chosen region; after setup's warm pass
// every request is a cache hit.
var viewerHot = &workload{
	name:   "viewer-hot",
	scenes: func(uint64) [][]byte { return [][]byte{[]byte(gaussScene)} },
	warm:   viewerWarm,
	op:     viewerOp,
}

// viewerTile places trace step (z, x, y) in the seed's region: the
// whole trace shifts by a level-zmax offset, which is 2^(zmax−z) tiles
// at level z, so zooming still lands under the panned viewport.
func viewerTile(seed uint64, step [3]int64) op {
	z := step[0]
	scale := int64(1) << uint(viewerZmax-z)
	x := step[1] + jitter(1000, seed, 4)*scale
	y := step[2] + jitter(1000, seed, 5)*scale
	return op{
		Scene: 0, Pyramid: true, Level: int(z),
		I0: x * tileEdge, J0: y * tileEdge, Nx: tileEdge, Ny: tileEdge,
		Seed: tileSeed(seed, 6), Format: "png",
	}
}

func viewerOp(seed uint64, k int64) op {
	n := int64(len(viewerTrace))
	session := k % conns
	off := int64(mix(seed, 7)%uint64(n)) + session*n/conns
	o := viewerTile(seed, viewerTrace[(off+k/conns)%n])
	o.K = k
	return o
}

// viewerWarm is the warm pass: every distinct tile of the trace in
// trace order, then each one's four lattice neighbours — the tiles
// rrsd prefetches on every trace request — so the window renders
// nothing, prefetch included.
func viewerWarm(seed uint64) []op {
	type key [3]int64
	seen := make(map[key]bool)
	var warm, ring []op
	for _, st := range viewerTrace {
		if k := (key{st[0], st[1], st[2]}); !seen[k] {
			seen[k] = true
			warm = append(warm, viewerTile(seed, st))
		}
	}
	for _, st := range viewerTrace {
		for _, d := range [4][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			k := key{st[0], st[1] + d[0], st[2] + d[1]}
			if !seen[k] {
				seen[k] = true
				ring = append(ring, viewerTile(seed, k))
			}
		}
	}
	warm = append(warm, ring...)
	for i := range warm {
		warm[i].K = -1 - int64(i)
	}
	return warm
}

// platesScene is the paper's Fig. 2 layout — four quadrants with four
// spectrum families and Fig. 2's heights — with correlation lengths
// scaled down from 40–80 to 8–16 and the transition half-width from 50
// to 16, so one tile costs tens, not thousands, of milliseconds.
const platesScene = `{"nx":64,"ny":64,"method":"plate","regions":[` +
	`{"shape":"rect","x0":0,"y0":0,"t":16,"spectrum":{"family":"gaussian","h":1,"cl":8}},` +
	`{"shape":"rect","x1":0,"y0":0,"t":16,"spectrum":{"family":"powerlaw","h":1.5,"cl":12,"n":2}},` +
	`{"shape":"rect","x1":0,"y1":0,"t":16,"spectrum":{"family":"exponential","h":2,"cl":16}},` +
	`{"shape":"rect","x0":0,"y1":0,"t":16,"spectrum":{"family":"powerlaw","h":1.5,"cl":12,"n":3}}]}`

// Plate window geometry, in level-0 samples. A window is interior when
// it stays platesMargin away from both seams: farther than the blend
// half-width plus the largest kernel half-extent, so only one component
// is active. Seam windows are centred across their axis, so every seam
// window costs the same whichever origin the seed drew along it. There
// is only one corner, so corner windows move within ±platesJitter of
// centred to stay distinct (never a cache hit). Along-seam and
// interior offsets range over [0, platesReach).
const (
	platesMargin = 320
	platesJitter = 64
	platesReach  = 1_000_000
)

// platesCycle is the fixed class mix: 8 interior (2 per quadrant), 4
// two-region seams and 2 four-region corners, interleaved so that any
// prefix of the cycle costs about its share. Latency sorts into
// blocks: quadrants 1–3 (~30 ms), quadrant 4 (~45 ms), then seams and
// corners (140–200 ms). With 8 of 14 ops interior, p50 sits in the
// middle of the quadrant-4 block and p90 among the corners, away from
// the large gap between interior and seam latencies.
var platesCycle = []string{"q1", "seam-n", "q2", "corner", "q3", "seam-w", "q4", "q1", "seam-s", "q2", "corner", "q3", "seam-e", "q4"}

// platesCorners is the number of corner windows per cycle.
const platesCorners = 2

// plates-png: the paper's inhomogeneous surfaces through the f64
// reference engine, the plate blend and PNG encode.
var platesPNG = &workload{
	name:   "plates-png",
	scenes: func(uint64) [][]byte { return [][]byte{[]byte(platesScene)} },
	warm: func(seed uint64) []op {
		// A Q1 interior window beyond platesReach: designs all four
		// kernels, never scheduled.
		o := platesOp(seed, 0)
		o.K, o.Class = -1, "warm"
		o.I0, o.J0 = 4*platesReach, 4*platesReach
		return []op{o}
	},
	op:    platesOp,
	check: 3, // the first cycle's first corner window
}

func platesOp(seed uint64, k int64) op {
	n := int64(len(platesCycle))
	cycle, slot := uint64(k/n), uint64(k%n)
	class := platesCycle[slot]
	// Offsets walk a stride-M permutation of [0, platesReach) from a
	// seed-chosen start, so no slot repeats an offset within 10^6
	// cycles; M is coprime with 10^6.
	far := func(salt uint64) int64 {
		return platesMargin + int64((cycle*0x9e3779b9+mix(seed, 10, slot, salt))%platesReach)
	}
	const straddle = -tileEdge / 2
	neg := func(v int64) int64 { return -v - tileEdge }
	var x, y int64
	switch class {
	case "q1":
		x, y = far(0), far(1)
	case "q2":
		x, y = neg(far(0)), far(1)
	case "q3":
		x, y = neg(far(0)), neg(far(1))
	case "q4":
		x, y = far(0), neg(far(1))
	case "seam-n": // Q1|Q2 along x = 0, y > 0
		x, y = straddle, far(1)
	case "seam-s": // Q3|Q4 along x = 0, y < 0
		x, y = straddle, neg(far(1))
	case "seam-e": // Q1|Q4 along y = 0, x > 0
		x, y = far(0), straddle
	case "seam-w": // Q2|Q3 along y = 0, x < 0
		x, y = neg(far(0)), straddle
	case "corner":
		// Corner c of the run takes offset c·M + start of the
		// (2·platesJitter)² grid around centred; M is odd, so no offset
		// repeats within 2^14 corners.
		c := cycle * platesCorners
		for _, prev := range platesCycle[:slot] {
			if prev == "corner" {
				c++
			}
		}
		i := (c*0x9e3779b9 + mix(seed, 11)) % (4 * platesJitter * platesJitter)
		x = straddle - platesJitter + int64(i%(2*platesJitter))
		y = straddle - platesJitter + int64(i/(2*platesJitter))
	}
	return op{
		K: k, Scene: 0, I0: x, J0: y, Nx: tileEdge, Ny: tileEdge,
		Seed: tileSeed(seed, 12), Format: "png", Precision: "f64", Class: class,
	}
}

// churnRate is scene-churn's arrival rate. One onboarding costs rrsd
// ≈55 ms of CPU (kernel design plus the FFT first tile), so two cores
// saturate near 30/s and 8/s keeps the queue short. Each scene keeps
// ≈5 MB in the registry, so the benchmark's 25 s window retains ≈1 GB
// across 200 scenes, under the 1024-scene cap; memory grows with
// --seconds.
const churnRate = 8

// churnDoc is scene k's document: a homogeneous Gaussian, h=1, cl=40
// (a 115² kernel, served by the FFT engine) whose seed field gives each
// arrival its own content address. Seeds start at 2; the warm scene
// uses 1.
func churnDoc(sceneSeed uint64) []byte {
	return []byte(fmt.Sprintf(`{"nx":64,"ny":64,"method":"homogeneous","seed":%d,"spectrum":{"family":"gaussian","h":1,"cl":40}}`, sceneSeed))
}

// scene-churn: scene authors. Open-loop arrivals, each registering a
// new scene and fetching its first window.
var sceneChurn = &workload{
	name:   "scene-churn",
	rate:   churnRate,
	scenes: func(uint64) [][]byte { return [][]byte{churnDoc(1)} },
	warm: func(uint64) []op {
		return []op{{K: -1, Scene: 0, Nx: tileEdge, Ny: tileEdge, Format: "f32", Precision: "f32"}}
	},
	op: func(seed uint64, k int64) op {
		return op{
			K: k, Scene: -1, Doc: churnDoc(2 + mix(seed, 20, uint64(k))%(1<<40)),
			Nx: tileEdge, Ny: tileEdge, Format: "f32", Precision: "f32",
		}
	},
}
