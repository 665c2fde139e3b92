// Package service implements rrsd, the tile-serving surface-generation
// daemon. The paper's convolution method generates "arbitrarily long or
// wide" surfaces by successive windowed computations — any rectangular
// window of the infinite deterministic surface is computable on demand
// from (scene, seed) alone — which is exactly a map-tile server's
// contract. The daemon exposes:
//
//	POST /v1/scene                        register a scene, get its content-hash ID
//	GET  /v1/scene/{id}                   canonical scene JSON
//	GET  /v1/scene/{id}/tile/{win}        a free window; win = "x0,y0,NXxNY",
//	                                      ?seed=S&format=f32|png&precision=f32|f64
//	GET  /v1/scene/{id}/tile/{z}/{x},{y}  pyramid tile: fixed TileEdge² window
//	                                      on level z's lattice (spacing ×2^z);
//	                                      z=0 matches the free-window route
//	GET  /healthz                         liveness
//	GET  /metrics                         Prometheus text metrics
//
// Layering (DESIGN.md §11, §14): scene registry (components once per
// scene and pyramid level, kernels from core's process-wide design
// cache) → per-(level, seed) generator cache →
// byte-bounded two-tier tile LRU (coarse levels pinned) → bounded
// worker pool with queue-depth admission control, plus a subordinate
// best-effort neighbor prefetcher.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"roughsurface/internal/cluster"
	"roughsurface/internal/core"
	"roughsurface/internal/par"
)

// Config tunes the daemon. The zero value is usable: every field has a
// production-shaped default applied by New.
type Config struct {
	// Workers is the tile-rendering pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds tasks queued beyond the executing workers
	// (default 2×Workers). Overflow is shed with 429.
	QueueDepth int
	// RequestTimeout is the per-tile deadline covering queue wait and
	// render (default 15s — first tiles of a scene pay kernel design).
	RequestTimeout time.Duration
	// CacheBytes bounds the tile LRU (default 256 MiB; < 0 disables).
	CacheBytes int64
	// MaxTileEdge and MaxTileSamples bound a single tile request
	// (defaults 4096 and 4M samples = 16 MiB of f32).
	MaxTileEdge    int
	MaxTileSamples int
	// MaxScenes bounds the registry (default 1024).
	MaxScenes int
	// GenWorkers is the intra-tile parallelism of one render (default
	// 1: the pool already parallelizes across requests, and one worker
	// per render keeps tail latency flat under load).
	GenWorkers int
	// MaxSeedGens bounds the per-scene cache of per-(level, seed)
	// generators (default 32).
	MaxSeedGens int
	// TileEdge is the fixed edge of pyramid-route tiles (default 256,
	// clamped to MaxTileEdge/MaxTileSamples).
	TileEdge int
	// MaxLevel bounds the pyramid depth served by /tile/{z}/...
	// (default 8, capped at core.MaxPyramidLevel).
	MaxLevel int
	// PinLevel is the coarsest-tier admission threshold: tiles at
	// levels >= PinLevel are charged to the pinned cache budget
	// (default 2); negative disables pinning. Level 0 cannot be pinned
	// — pinning everything is the same as not pinning.
	PinLevel int
	// PinCacheBytes bounds the pinned tile tier (default 32 MiB; <= 0
	// folds pinned tiles into the main budget).
	PinCacheBytes int64
	// PrefetchWorkers sizes the background neighbor-prefetch pool
	// (default 1 — prefetch is strictly subordinate to foreground).
	PrefetchWorkers int
	// PrefetchQueue bounds queued prefetch jobs (default 32; negative
	// disables prefetching entirely).
	PrefetchQueue int
	// Cluster, when non-nil, makes this node one shard of a fleet:
	// tile requests route to their owning shard first (DESIGN.md §16)
	// and scene registrations fan out to every peer. The Server does
	// not own the Cluster's lifecycle — the caller Starts and Closes it.
	Cluster *cluster.Cluster
	// FanoutTimeout bounds the whole scene-registration fan-out
	// (default 5s).
	FanoutTimeout time.Duration
	// Flags echoes the command-line flags in effect, verbatim, on
	// GET /v1/info. Purely informational.
	Flags map[string]string
	// AccessLog receives one line per request when non-nil.
	AccessLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.DefaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxTileEdge <= 0 {
		c.MaxTileEdge = 4096
	}
	if c.MaxTileSamples <= 0 {
		c.MaxTileSamples = 4 << 20
	}
	if c.MaxScenes <= 0 {
		c.MaxScenes = 1024
	}
	if c.GenWorkers <= 0 {
		c.GenWorkers = 1
	}
	if c.MaxSeedGens <= 0 {
		c.MaxSeedGens = 32
	}
	if c.TileEdge <= 0 {
		c.TileEdge = 256
	}
	if c.TileEdge > c.MaxTileEdge {
		c.TileEdge = c.MaxTileEdge
	}
	for c.TileEdge*c.TileEdge > c.MaxTileSamples && c.TileEdge > 1 {
		c.TileEdge /= 2
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = 8
	}
	if c.MaxLevel > core.MaxPyramidLevel {
		c.MaxLevel = core.MaxPyramidLevel
	}
	if c.PinLevel == 0 {
		c.PinLevel = 2
	}
	if c.PinCacheBytes == 0 {
		c.PinCacheBytes = 32 << 20
	}
	if c.PrefetchWorkers <= 0 {
		c.PrefetchWorkers = 1
	}
	if c.PrefetchQueue == 0 {
		c.PrefetchQueue = 32
	}
	if c.FanoutTimeout <= 0 {
		c.FanoutTimeout = 5 * time.Second
	}
	return c
}

// Server is the daemon's state: registry, caches, worker pool, metrics.
// Create with New, serve Handler() from an http.Server, and Close after
// http.Server.Shutdown has drained the handlers (shutdown ordering is
// documented in DESIGN.md §11).
type Server struct {
	cfg      Config
	reg      *registry
	cache    *tileCache
	pool     *par.Pool
	prefetch *par.Pool // nil when PrefetchQueue < 0
	met      *metrics
	mux      *http.ServeMux

	// Cluster state (nil/zero for a single-node daemon).
	cluster    *cluster.Cluster
	peerClient *http.Client
	flightMu   sync.Mutex
	flights    map[string]*flight // singleflight over proxied tile keys
	draining   atomic.Bool
}

// New builds a Server and starts its worker pools.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(cfg.MaxScenes),
		cache:   newTileCache(cfg.CacheBytes, cfg.PinCacheBytes),
		pool:    par.NewPool(cfg.Workers, cfg.QueueDepth),
		met:     newMetrics(),
		cluster: cfg.Cluster,
		flights: make(map[string]*flight),
	}
	if s.cluster != nil {
		// No client-level timeout: every proxied call carries a context
		// deadline, and a fleet-internal client reusing connections is
		// the whole point.
		s.peerClient = &http.Client{}
	}
	if cfg.PrefetchQueue > 0 {
		s.prefetch = par.NewPool(cfg.PrefetchWorkers, cfg.PrefetchQueue)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scene", s.instrument("scene_post", s.handleScenePost))
	mux.HandleFunc("GET /v1/scene/{id}", s.instrument("scene_get", s.handleSceneGet))
	mux.HandleFunc("GET /v1/scene/{id}/tile/{win}", s.instrument("tile", s.handleTile))
	mux.HandleFunc("GET /v1/scene/{id}/tile/{z}/{xy}", s.instrument("tilez", s.handleTileZ))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("GET /v1/info", s.instrument("info", s.handleInfo))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s
}

// BeginDrain flips the daemon into drain mode ahead of an HTTP
// shutdown: /healthz turns 503 (so peer probers route new traffic
// away) and proxied tile requests from peers are refused immediately
// with 503 + Retry-After — the peer falls back to a local render
// instead of queueing work on a node that is about to stop. Direct
// client requests keep being served until the listener drains: they
// have nowhere else to go.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close joins the worker pools, draining any queued renders. The
// prefetch pool closes first — its jobs are disposable and closing it
// stops new background work before the foreground pool drains. Call
// only after the HTTP server has stopped delivering requests — a
// handler submitting to a closed pool would be shed with 429.
func (s *Server) Close() {
	if s.prefetch != nil {
		s.prefetch.Close()
	}
	s.pool.Close()
}

// instrument wraps a handler with in-flight/latency/request metrics and
// access logging. The route label is static per pattern so metric
// cardinality stays bounded no matter what clients request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.met.inflight.Add(-1)
		dur := time.Since(start)
		s.met.countRequest(route, rec.code)
		if route == "tile" || route == "tilez" {
			s.met.latency.observe(dur)
		}
		if s.cfg.AccessLog != nil {
			s.cfg.AccessLog.Printf("%s %s %d %dB %s", r.Method, r.URL.RequestURI(), rec.code, rec.bytes, dur)
		}
	}
}

// statusRecorder captures the status code and body size for metrics and
// access logs.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// maxSceneBody bounds a scene document upload.
const maxSceneBody = 1 << 20

func (s *Server) handleScenePost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSceneBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("scene body: %v", err))
		return
	}
	entry, created, err := s.reg.register(body, s.cfg.GenWorkers, s.cfg.MaxSeedGens)
	if err != nil {
		if err == errRegistryFull {
			writeError(w, http.StatusInsufficientStorage,
				fmt.Sprintf("scene registry full (%d scenes)", s.reg.len()))
			return
		}
		// Validation errors carry field paths (core: regions[2].spectrum.clx: ...).
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	doc := map[string]any{"id": entry.ID, "created": created}
	if s.cluster != nil && r.Header.Get(headerReplicated) == "" {
		// First-hand registration on a fleet node: replicate the
		// canonical JSON to every peer so any node can serve this
		// scene's tiles. Replicated posts carry headerReplicated and do
		// not fan out again.
		doc["replicated"] = s.fanoutScene(r.Context(), entry.Canonical)
	}
	writeJSON(w, code, doc)
}

func (s *Server) handleSceneGet(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scene id")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(entry.Canonical)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// Draining reads as unhealthy so peer probers (and any load
		// balancer) steer traffic away before the listener closes.
		writePlain(w, http.StatusServiceUnavailable, "draining\n")
		return
	}
	writePlain(w, http.StatusOK, "ok\n")
}

func writePlain(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	_, _ = io.WriteString(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.met.writePrometheus(w, append([]gaugeFn{
		{"rrsd_queue_depth", "Renders accepted but not yet started.", func() int64 { return int64(s.pool.QueueDepth()) }},
		{"rrsd_scenes", "Scenes registered.", func() int64 { return int64(s.reg.len()) }},
		{"rrsd_tile_cache_bytes", "Bytes held by the tile LRU (both tiers).", s.cache.bytes},
		{"rrsd_tile_cache_entries", "Entries held by the tile LRU (both tiers).", func() int64 { return int64(s.cache.len()) }},
		{"rrsd_tile_cache_pinned_bytes", "Bytes held by the pinned (coarse-level) tier.", s.cache.pinnedBytes},
		{"rrsd_tile_cache_pinned_entries", "Entries held by the pinned (coarse-level) tier.", func() int64 { return int64(s.cache.pinnedLen()) }},
		{"rrsd_prefetch_queue_depth", "Prefetch jobs accepted but not yet started.", func() int64 {
			if s.prefetch == nil {
				return 0
			}
			return int64(s.prefetch.QueueDepth())
		}},
	}, s.clusterGauges()...))
}

// clusterGauges contributes the fleet-view gauges when clustered.
func (s *Server) clusterGauges() []gaugeFn {
	if s.cluster == nil {
		return nil
	}
	return []gaugeFn{
		{"rrsd_cluster_epoch", "Local membership-view epoch (bumps on every liveness or set change).", func() int64 { return int64(s.cluster.Epoch()) }},
		{"rrsd_cluster_peers", "Fleet size in the current peer set (including self).", func() int64 { return int64(s.cluster.Size()) }},
		{"rrsd_cluster_peers_alive", "Peers currently passing health probes (including self).", func() int64 { return int64(s.cluster.AliveCount()) }},
		{"rrsd_draining", "1 while the daemon refuses proxied peer traffic ahead of shutdown.", func() int64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		}},
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
