package service

// GET /v1/info: the daemon's effective configuration in one document,
// so multi-node debugging ("which flags is node c actually running
// with, and what does it think the fleet looks like?") doesn't require
// flag archaeology across process tables.

import (
	"net/http"
	"runtime"
	"runtime/debug"

	"roughsurface/internal/simd"
)

// infoDoc is the /v1/info response shape.
type infoDoc struct {
	Go      string            `json:"go"`
	SIMD    string            `json:"simd"` // kernel set serving MAC and noise fill: "avx2", "neon" or "go"
	Module  string            `json:"module,omitempty"`
	Version string            `json:"version,omitempty"`
	VCS     map[string]string `json:"vcs,omitempty"`
	Flags   map[string]string `json:"flags,omitempty"`
	Limits  infoLimits        `json:"limits"`
	Cache   infoCache         `json:"cache"`
	Cluster *infoCluster      `json:"cluster,omitempty"`
}

type infoLimits struct {
	Workers          int   `json:"workers"`
	QueueDepth       int   `json:"queue_depth"`
	GenWorkers       int   `json:"gen_workers"`
	RequestTimeoutMS int64 `json:"request_timeout_ms"`
	MaxTileEdge      int   `json:"max_tile_edge"`
	MaxTileSamples   int   `json:"max_tile_samples"`
	TileEdge         int   `json:"tile_edge"`
	MaxLevel         int   `json:"max_level"`
	MaxScenes        int   `json:"max_scenes"`
	Draining         bool  `json:"draining"`
}

type infoCache struct {
	TileBytes     int64 `json:"tile_bytes"`
	PinnedBytes   int64 `json:"pinned_bytes"`
	PinLevel      int   `json:"pin_level"`
	MaxSeedGens   int   `json:"max_seed_gens"`
	Scenes        int   `json:"scenes"`
	Entries       int   `json:"entries"`
	UsedBytes     int64 `json:"used_bytes"`
	PrefetchQueue int   `json:"prefetch_queue"`
}

type infoCluster struct {
	Self  string `json:"self"`
	Epoch uint64 `json:"epoch"`
	Peers int    `json:"peers"`
	Alive int    `json:"alive"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	doc := infoDoc{
		Go:    runtime.Version(),
		SIMD:  simd.Impl(),
		Flags: s.cfg.Flags,
		Limits: infoLimits{
			Workers:          s.cfg.Workers,
			QueueDepth:       s.cfg.QueueDepth,
			GenWorkers:       s.cfg.GenWorkers,
			RequestTimeoutMS: s.cfg.RequestTimeout.Milliseconds(),
			MaxTileEdge:      s.cfg.MaxTileEdge,
			MaxTileSamples:   s.cfg.MaxTileSamples,
			TileEdge:         s.cfg.TileEdge,
			MaxLevel:         s.cfg.MaxLevel,
			MaxScenes:        s.cfg.MaxScenes,
			Draining:         s.draining.Load(),
		},
		Cache: infoCache{
			TileBytes:     s.cfg.CacheBytes,
			PinnedBytes:   s.cfg.PinCacheBytes,
			PinLevel:      s.cfg.PinLevel,
			MaxSeedGens:   s.cfg.MaxSeedGens,
			Scenes:        s.reg.len(),
			Entries:       s.cache.len(),
			UsedBytes:     s.cache.bytes(),
			PrefetchQueue: s.cfg.PrefetchQueue,
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		doc.Module = bi.Main.Path
		doc.Version = bi.Main.Version
		vcs := map[string]string{}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				vcs[kv.Key] = kv.Value
			}
		}
		if len(vcs) > 0 {
			doc.VCS = vcs
		}
	}
	if s.cluster != nil {
		doc.Cluster = &infoCluster{
			Self:  s.cluster.Self(),
			Epoch: s.cluster.Epoch(),
			Peers: s.cluster.Size(),
			Alive: s.cluster.AliveCount(),
		}
	}
	writeJSON(w, http.StatusOK, doc)
}
