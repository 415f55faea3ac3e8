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
// Version is the cluster version (sum of shard versions, the same key
// ShardedEngine.Version reports) and every counter is summed, with the
// router's own merged-result cache hits folded into CacheHits. Use
// ShardMetrics for the per-shard breakdown.
type EngineMetrics struct {
	// Version is the write-version counter results are cached under.
	Version uint64 `json:"version"`
	// Generation is the matrix's write-generation counter — one tick per
	// observation ever applied, the key durability records are stamped
	// with. Unlike Version it survives restarts: a recovered engine
	// resumes at the generation its durable log reached, so comparing
	// Generation across a crash proves no acknowledged write was lost.
	// For a ShardedEngine it is the sum over shards.
	Generation uint64 `json:"generation"`
	// ServedGeneration is the watermark of the highest write generation a
	// rank result has been served at — the refresh scheduler's progress
	// measure. Generation − ServedGeneration is the engine's current
	// serving lag; under WithMaxStaleness(0) the two converge after every
	// rank. For a multi-shard ShardedEngine it is the router's merged-
	// result watermark (a sum of shard generations, comparable to
	// Generation); per-shard watermarks are in ShardMetrics.
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
	// the version-keyed result cache without solving.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts solves actually started (cache cold or stale).
	CacheMisses uint64 `json:"cache_misses"`
	// CSRFullRebuilds / CSRDeltaRebuilds mirror ResponseMatrix.CSRRebuilds
	// for the engine's current matrix: from-scratch one-hot encodings vs
	// touched-row splices. Under sparse write traffic full must stop
	// growing after the first build.
	CSRFullRebuilds uint64 `json:"csr_full_rebuilds"`
	// CSRDeltaRebuilds counts touched-row CSR splices (see CSRFullRebuilds).
	CSRDeltaRebuilds uint64 `json:"csr_delta_rebuilds"`
	// NormFullRebuilds / NormSpliceRebuilds mirror
	// ResponseMatrix.NormRebuilds: from-scratch normalized-triple
	// derivations vs generation-keyed splices.
	NormFullRebuilds uint64 `json:"norm_full_rebuilds"`
	// NormSpliceRebuilds counts normalized-triple splices (see
	// NormFullRebuilds).
	NormSpliceRebuilds uint64 `json:"norm_delta_rebuilds"`
}

// add accumulates o into m for the sharded aggregate view.
func (m *EngineMetrics) add(o EngineMetrics) {
	m.Version += o.Version
	m.Generation += o.Generation
	m.ServedGeneration += o.ServedGeneration
	m.StaleServes += o.StaleServes
	if o.MaxStaleness > m.MaxStaleness {
		m.MaxStaleness = o.MaxStaleness
	}
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.CSRFullRebuilds += o.CSRFullRebuilds
	m.CSRDeltaRebuilds += o.CSRDeltaRebuilds
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
