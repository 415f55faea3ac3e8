package serve

import (
	"sort"
	"sync/atomic"

	"hitsndiffs"
	"hitsndiffs/internal/refresh"
)

// counters holds the serve-layer atomics behind /metrics. All values are
// cumulative since server construction.
type counters struct {
	requests          atomic.Uint64
	errors            atomic.Uint64
	observations      atomic.Uint64
	rankLeaders       atomic.Uint64
	rankCoalesced     atomic.Uint64
	rejectedSaturated atomic.Uint64
	rejectedLagging   atomic.Uint64
	staleServes       atomic.Uint64
	fencedWrites      atomic.Uint64
	redirectedWrites  atomic.Uint64
}

// Snapshot is the point-in-time /metrics document: the serve-layer
// counters plus one consistent engine snapshot per tenant. Assemble with
// Server.Snapshot.
type Snapshot struct {
	// Draining reports whether graceful shutdown has begun.
	Draining bool `json:"draining"`
	// Requests counts /v1 requests accepted by the router (including
	// ones later rejected); Errors counts non-2xx responses.
	Requests uint64 `json:"requests"`
	// Errors counts non-2xx responses (see Requests).
	Errors uint64 `json:"errors"`
	// Observations counts observations applied across all tenants.
	Observations uint64 `json:"observations"`
	// RankLeaders counts rank requests answered by their own solve or a
	// cache hit; RankCoalesced counts rank requests that shared a solve
	// another call started (a rank, a background refresh or a label
	// inference). leaders + coalesced = rank requests answered.
	RankLeaders uint64 `json:"rank_leaders"`
	// RankCoalesced counts coalesced rank requests (see RankLeaders).
	RankCoalesced uint64 `json:"rank_coalesced"`
	// WritesRejectedSaturated counts 429s from the in-flight write bound;
	// WritesRejectedLagging counts 429s from the refresh-lag bound.
	WritesRejectedSaturated uint64 `json:"writes_rejected_saturated"`
	// WritesRejectedLagging counts lag-bound 429s (see
	// WritesRejectedSaturated).
	WritesRejectedLagging uint64 `json:"writes_rejected_lagging"`
	// StaleServes counts rank responses served behind the write frontier
	// under the server's staleness bound (Config.MaxStaleness); zero when
	// every rank is exact.
	StaleServes uint64 `json:"stale_serves"`
	// WritesFenced counts writes rejected with 429 because their shard was
	// fenced for an in-flight handoff; WritesRedirected counts writes
	// answered with 307 to a shard's committed new owner.
	WritesFenced uint64 `json:"writes_fenced"`
	// WritesRedirected counts 307s to migrated shards (see WritesFenced).
	WritesRedirected uint64 `json:"writes_redirected"`
	// Refresh is the background refresh scheduler's counter snapshot
	// (queue depth, rounds, refresh latency); nil when the server runs
	// without a staleness bound and therefore without a scheduler.
	Refresh *refresh.Metrics `json:"refresh,omitempty"`
	// Tenants holds one entry per tenant, in name order.
	Tenants []TenantSnapshot `json:"tenants"`
}

// TenantSnapshot is one tenant's slice of the /metrics document.
type TenantSnapshot struct {
	// Name identifies the tenant.
	Name string `json:"name"`
	// Shards is the engine shard count serving the tenant.
	Shards int `json:"shards"`
	// Engine is the engine-level counter snapshot (aggregated across
	// shards for sharded tenants), taken under the engine's locks. Its
	// Generation − ServedGeneration is the refresh lag the admission
	// controller bounds.
	Engine hitsndiffs.EngineMetrics `json:"engine"`
	// Durability reports the tenant's WAL/snapshot counters and startup
	// recovery stats; nil when the server runs without a data dir.
	Durability *TenantDurabilitySnapshot `json:"durability,omitempty"`
}

// Snapshot assembles the /metrics document. Serve-layer counters are
// atomic loads; each tenant's engine counters are read under that
// engine's locks (hitsndiffs.Engine.Metrics), so the scrape never races
// engine internals.
func (s *Server) Snapshot() Snapshot {
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })

	snap := Snapshot{
		Draining:                s.draining.Load(),
		Requests:                s.ctr.requests.Load(),
		Errors:                  s.ctr.errors.Load(),
		Observations:            s.ctr.observations.Load(),
		RankLeaders:             s.ctr.rankLeaders.Load(),
		RankCoalesced:           s.ctr.rankCoalesced.Load(),
		WritesRejectedSaturated: s.ctr.rejectedSaturated.Load(),
		WritesRejectedLagging:   s.ctr.rejectedLagging.Load(),
		StaleServes:             s.ctr.staleServes.Load(),
		WritesFenced:            s.ctr.fencedWrites.Load(),
		WritesRedirected:        s.ctr.redirectedWrites.Load(),
		Tenants:                 make([]TenantSnapshot, len(tenants)),
	}
	if s.refresher != nil {
		rm := s.refresher.Metrics()
		snap.Refresh = &rm
	}
	for i, t := range tenants {
		snap.Tenants[i] = TenantSnapshot{
			Name:   t.name,
			Shards: t.shards,
			Engine: t.backend.Metrics(),
		}
		if t.dur != nil {
			snap.Tenants[i].Durability = &TenantDurabilitySnapshot{
				Fsync:          s.cfg.Fsync.String(),
				SnapshotErrors: t.dur.snapErrors.Load(),
				Stats:          t.dur.stats(),
			}
		}
	}
	return snap
}
