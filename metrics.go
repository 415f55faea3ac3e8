package hitsndiffs

import (
	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/rank"
)

// EngineMetrics is a point-in-time snapshot of one engine's observability
// counters, assembled under the engine's locks so a reader (the serving
// tier's /metrics endpoint, a test, a dashboard scraper) never races the
// engine's internal state. All counters are cumulative since construction.
//
// For a ShardedEngine the snapshot is the aggregate over its shards:
// Generation is the cluster generation (sum of shard generations, the key
// the merged-result cache uses) and every counter is summed, with the
// router's own merged-result cache hits folded into CacheHits. Use
// ShardMetrics for the per-shard breakdown.
type EngineMetrics struct {
	// Generation is the matrix's write-generation counter — one tick per
	// observation ever applied, the key results are cached under and
	// durability records are stamped with. It survives restarts: a
	// recovered engine resumes at the generation its durable log reached,
	// so comparing Generation across a crash proves no acknowledged write
	// was lost. For a ShardedEngine it is the sum over shards.
	Generation uint64 `json:"generation"`
	// ServedGeneration is the watermark of the highest write generation a
	// rank result has been served at — the refresh scheduler's progress
	// measure and the one the serving tier's write admission compares
	// against. It starts at the generation the engine was built, restored
	// or adopted at, since answers it started with owe no rank.
	// Generation − ServedGeneration is the engine's current serving lag;
	// under WithMaxStaleness(0) the two converge after every rank. For a
	// multi-shard ShardedEngine it is the router's merged-result watermark
	// (a sum of shard generations, comparable to Generation, restarting at
	// the cluster generation on RestoreShard/AdoptShard); per-shard
	// watermarks are in ShardMetrics.
	ServedGeneration uint64 `json:"served_generation"`
	// StaleServes counts results served behind the write frontier under a
	// WithMaxStaleness bound (cache entries outliving their generation).
	// Zero when the bound is zero.
	StaleServes uint64 `json:"stale_serves"`
	// MaxStaleness is the configured WithMaxStaleness bound in write
	// generations; zero means every rank is exact. Aggregates report the
	// maximum across shards.
	MaxStaleness uint64 `json:"max_staleness"`
	// Users and Items give the matrix geometry being served.
	Users int `json:"users"`
	// Items is the item count (see Users).
	Items int `json:"items"`
	// CacheHits counts Rank / Refresh / InferLabels requests served from
	// the generation-keyed result cache without solving.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts solves actually started (cache cold or stale);
	// concurrent misses that share one solve count once.
	CacheMisses uint64 `json:"cache_misses"`
	// NormFullRebuilds counted from-scratch builds of a normalized-matrix
	// memo that solves no longer keep: they scale the one-hot encoding
	// inside their kernels, so it always reads 0. The field and its JSON
	// key stay for readers of earlier /metrics documents.
	NormFullRebuilds uint64 `json:"norm_full_rebuilds"`
	// NormSpliceRebuilds always reads 0, like NormFullRebuilds.
	NormSpliceRebuilds uint64 `json:"norm_delta_rebuilds"`
}

// add accumulates o into m for the sharded aggregate view.
func (m *EngineMetrics) add(o EngineMetrics) {
	m.Generation += o.Generation
	m.ServedGeneration += o.ServedGeneration
	m.StaleServes += o.StaleServes
	if o.MaxStaleness > m.MaxStaleness {
		m.MaxStaleness = o.MaxStaleness
	}
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.NormFullRebuilds += o.NormFullRebuilds
	m.NormSpliceRebuilds += o.NormSpliceRebuilds
}

// Spearman returns Spearman's rank correlation between two score vectors
// (the paper's accuracy measure), handling ties by average ranks.
func Spearman(x, y []float64) float64 { return rank.Spearman(mat.Vector(x), mat.Vector(y)) }

// Kendall returns Kendall's τ-b between two score vectors.
func Kendall(x, y []float64) float64 { return rank.Kendall(mat.Vector(x), mat.Vector(y)) }

// OrderFromScores returns user indices sorted best-first by score.
func OrderFromScores(scores []float64) []int { return rank.OrderFromScores(mat.Vector(scores)) }

// ModelKind selects a polytomous IRT generative model.
type ModelKind = irt.ModelKind

// The generative models of the paper's experiments.
const (
	ModelGRM      = irt.ModelGRM
	ModelBock     = irt.ModelBock
	ModelSamejima = irt.ModelSamejima
)

// GeneratorConfig configures the synthetic workload generators.
type GeneratorConfig = irt.Config

// Dataset is a generated workload with its hidden ground truth.
type Dataset = irt.Dataset

// DefaultGeneratorConfig returns the paper's default workload parameters
// for the given model (100 users, 100 items, 3 options, θ∈[0,1],
// b∈[−0.5,0.5], a∈[0,10]).
func DefaultGeneratorConfig(model ModelKind) GeneratorConfig { return irt.DefaultConfig(model) }

// Generate samples a synthetic ability-discovery dataset.
func Generate(cfg GeneratorConfig) (*Dataset, error) { return irt.Generate(cfg) }

// GenerateConsistent samples an ideal consistent-response (C1P) dataset:
// the infinite-discrimination limit in which better users always pick
// better options.
func GenerateConsistent(cfg GeneratorConfig) (*Dataset, error) { return irt.GenerateC1P(cfg) }
