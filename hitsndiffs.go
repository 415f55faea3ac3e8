// Package hitsndiffs is a Go implementation of HITSnDIFFS (HND), the
// spectral ability-discovery algorithm of Chen, Mitra, Ravi and Gatterbauer
// (ICDE 2024), together with every substrate the paper builds on or
// compares against: the ABH spectral seriation method of Atkins et al., the
// Booth–Lueker PQ-tree for the Consecutive Ones Property, classic
// truth-discovery baselines (HITS, TruthFinder, Investment,
// PooledInvestment, Dawid–Skene), Item Response Theory generators (GRM,
// Bock, Samejima and the dichotomous 1PL/2PL/3PL/GLAD families), a GRM
// MML-EM parameter estimator, and rank-correlation metrics.
//
// # The ability discovery problem
//
// Given m users answering n heterogeneous multiple-choice items, rank the
// users by their latent ability using only their responses. HND computes
// the ordering induced by the second largest eigenvector of the AvgHITS
// update matrix U = C_row·(C_col)ᵀ via an O(mn)-per-iteration power method
// on the difference matrix U_diff = S·U·T, provably recovering the unique
// consecutive-ones ordering whenever the responses are consistent.
//
// # Quick start
//
//	m := hitsndiffs.NewResponseMatrix(4, 3, 3) // 4 users, 3 items, 3 options
//	m.SetAnswer(0, 0, 0)                       // user 0 picks option 0 of item 0
//	// ... record remaining answers ...
//	res, err := hitsndiffs.HND().Rank(ctx, m)
//	if err != nil { ... }
//	order := res.Order() // user indices, most able first
//
// Every Rank takes a context.Context; deadlines and cancellation interrupt
// the iterative solvers mid-flight. Methods are tuned with functional
// options (WithTol, WithMaxIter, WithSeed, ...) and can be resolved by name
// through the registry (New, MethodNames, Describe). For online serving —
// responses streaming in while rankings are read concurrently — use Engine,
// which caches results per write generation and warm-starts re-ranks; for
// horizontal scaling, ShardedEngine hashes users across independent engine
// shards and merges their rankings. See docs/ARCHITECTURE.md for the layer
// map and the copy-on-write and in-place shard-solve protocols.
//
// The subpackages under internal/ hold the implementation; this package is
// the stable public surface.
package hitsndiffs

import (
	"context"
	"io"

	"hitsndiffs/internal/c1p"
	"hitsndiffs/internal/core"
	"hitsndiffs/internal/grmest"
	"hitsndiffs/internal/response"
	"hitsndiffs/internal/truth"
)

// ResponseMatrix records the choices of m users over n heterogeneous
// multiple-choice items. See NewResponseMatrix.
type ResponseMatrix = response.Matrix

// Unanswered marks an item a user did not answer.
const Unanswered = response.Unanswered

// Result is the outcome of a ranking method: per-user scores (higher is
// better) plus convergence metadata.
type Result = core.Result

// Ranker is any ability-discovery method. Rank honors context
// cancellation: long iterations return ctx.Err() promptly once the
// context is done.
type Ranker = core.Ranker

// NewResponseMatrix creates an empty response matrix for the given number
// of users and items. Pass one option count to give every item the same
// number of options, or one count per item.
func NewResponseMatrix(users, items int, options ...int) *ResponseMatrix {
	return response.New(users, items, options...)
}

// FromChoices builds a response matrix from a users×items table of chosen
// option indices (Unanswered allowed), inferring option counts.
func FromChoices(choices [][]int, minOptions int) *ResponseMatrix {
	return response.FromChoices(choices, minOptions)
}

// ReadCSV parses a response matrix serialized by (*ResponseMatrix).WriteCSV.
func ReadCSV(r io.Reader) (*ResponseMatrix, error) { return response.ReadCSV(r) }

// HND returns the paper's recommended method: HITSnDIFFS via the power
// iteration of Algorithm 1 (O(mn) per iteration, provably exact on
// consistent responses).
func HND(opts ...Option) Ranker { return core.HNDPower{Opts: newSettings(opts).coreOptions()} }

// HNDDirect returns the Arnoldi-based variant that materializes the update
// matrix U (O(m²n)); slower, used for cross-checking.
func HNDDirect(opts ...Option) Ranker {
	return core.HNDDirect{Opts: newSettings(opts).coreOptions()}
}

// HNDDeflation returns the Hotelling-deflation variant.
func HNDDeflation(opts ...Option) Ranker {
	return core.HNDDeflation{Opts: newSettings(opts).coreOptions()}
}

// ABH returns the power-iteration implementation of the spectral seriation
// method of Atkins, Boman and Hendrickson.
func ABH(opts ...Option) Ranker { return core.ABHPower{Opts: newSettings(opts).coreOptions()} }

// ABHDirect returns the Fiedler-vector (Lanczos/dense) implementation of
// ABH.
func ABHDirect(opts ...Option) Ranker {
	return core.ABHDirect{Opts: newSettings(opts).coreOptions()}
}

// ABHLanczos returns the matrix-free Lanczos implementation of ABH: eigsh-
// style convergence without the O(m²n) Laplacian materialization. This
// variant goes beyond the paper's SciPy-bound implementations.
func ABHLanczos(opts ...Option) Ranker {
	return core.ABHLanczos{Opts: newSettings(opts).coreOptions()}
}

// BL returns the Booth–Lueker PQ-tree baseline: exact on consistent
// responses, fails otherwise.
func BL() Ranker { return c1p.BL{} }

// HITS returns Kleinberg's hubs-and-authorities baseline.
func HITS(opts ...Option) Ranker { return truth.HITS{Opts: newSettings(opts).truthOptions()} }

// TruthFinder returns the TruthFinder baseline of Yin, Han and Yu.
func TruthFinder(opts ...Option) Ranker {
	return truth.TruthFinder{Opts: newSettings(opts).truthOptions()}
}

// Investment returns the Investment baseline of Pasternack and Roth.
func Investment(opts ...Option) Ranker {
	return truth.Investment{Opts: newSettings(opts).truthOptions()}
}

// PooledInvestment returns the PooledInvestment baseline.
func PooledInvestment(opts ...Option) Ranker {
	return truth.PooledInvestment{Opts: newSettings(opts).truthOptions()}
}

// MajorityVote returns the plurality-agreement baseline.
func MajorityVote() Ranker { return truth.MajorityVote{} }

// DawidSkene returns the Dawid–Skene EM baseline (homogeneous items only).
func DawidSkene(opts ...Option) Ranker {
	return truth.DawidSkene{Opts: newSettings(opts).truthOptions()}
}

// TrueAnswer returns the cheating baseline that knows the correct option of
// every item and counts correct answers.
func TrueAnswer(correct []int) Ranker { return truth.TrueAnswer{Correct: correct} }

// GhoshSpectral returns the binary-only spectral baseline of Ghosh, Kale
// and McAfee (errors on items with more than two options).
func GhoshSpectral(opts ...Option) Ranker {
	return truth.GhoshSpectral{Opts: newSettings(opts).truthOptions()}
}

// DalviSpectral returns the binary-only spectral baseline of Dalvi et al.
func DalviSpectral(opts ...Option) Ranker {
	return truth.DalviSpectral{Opts: newSettings(opts).truthOptions()}
}

// GLAD returns the EM estimator of Whitehill et al. for binary items.
func GLAD(opts ...Option) Ranker { return truth.GLAD{Opts: newSettings(opts).truthOptions()} }

// GRMEstimator returns the cheating baseline that fits a Graded Response
// Model by MML-EM and ranks users by EAP ability.
func GRMEstimator(opts ...Option) Ranker {
	return grmest.Estimator{Opts: newSettings(opts).grmOptions()}
}

// InferLabels performs the truth-discovery direction of the duality: given
// per-user ability scores from any Ranker, it estimates each item's correct
// option by score-weighted voting.
func InferLabels(m *ResponseMatrix, scores []float64) ([]int, error) {
	return truth.InferLabels(m, scores)
}

// RankPerComponent ranks a possibly disconnected response matrix by
// splitting it into connected components, ranking each independently with
// the supplied method, and min-max normalizing scores within components.
// Cross-component score comparisons are not meaningful.
func RankPerComponent(ctx context.Context, r Ranker, m *ResponseMatrix) (scores []float64, components [][]int, err error) {
	res, err := core.RankPerComponent(ctx, r, m)
	if err != nil {
		return nil, nil, err
	}
	return res.Scores, res.Components, nil
}

// IsConsistent reports whether the responses admit a consecutive-ones user
// ordering (the paper's ideal "consistent responses" case), decided exactly
// with the PQ-tree.
func IsConsistent(m *ResponseMatrix) bool { return c1p.IsPreP(m) }
