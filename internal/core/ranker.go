// Package core implements the paper's contribution: the HITSnDIFFS (HND)
// family of spectral ability-discovery algorithms, the AVGHITS update
// machinery they build on, the competing ABH seriation method of Atkins,
// Boman and Hendrickson in both power and direct form, and the decile
// entropy symmetry-breaking heuristic that orients the recovered ordering.
package core

import (
	"context"
	"fmt"

	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/rank"
	"hitsndiffs/internal/response"
)

// Result is the outcome of an ability-discovery method: a score per user
// where higher means more able (after orientation).
type Result struct {
	// Scores holds one score per user; ties allowed.
	Scores mat.Vector
	// Iterations counts inner iterations (power steps, EM rounds, ...);
	// zero for closed-form methods.
	Iterations int
	// Converged reports whether the method met its tolerance within the
	// iteration budget. Methods without a convergence notion report true.
	Converged bool
	// Flipped reports whether symmetry breaking reversed the raw spectral
	// ordering.
	Flipped bool
	// Generation is the response-matrix write generation the scores were
	// solved at (response.Matrix.Generation — one tick per observation).
	// The serving engines stamp it; direct Ranker.Rank calls leave it zero.
	Generation uint64
	// Staleness is how many write generations the serving engine's matrix
	// had advanced past Generation when the result was served: zero for a
	// fresh solve or an exact cache hit, positive when a WithMaxStaleness
	// bound let the engine answer from a previous solve. Always ≤ the
	// configured bound.
	Staleness uint64
	// Coalesced reports that the serving engine answered from a solve
	// another concurrent call started, instead of a solve or cache hit of
	// its own. Direct Ranker.Rank calls leave it false.
	Coalesced bool
}

// Order returns user indices best-first.
func (r Result) Order() []int { return rank.OrderFromScores(r.Scores) }

// Ranker is an ability-discovery method: it maps a response matrix to
// per-user scores. Rank must honor ctx: long-running iterations return
// ctx.Err() promptly once the context is cancelled or its deadline passes.
type Ranker interface {
	// Name returns a short identifier (e.g. "HnD-power").
	Name() string
	// Rank scores the users of m, checking ctx between iterations.
	Rank(ctx context.Context, m *response.Matrix) (Result, error)
}

// Options are shared tuning knobs for the iterative spectral methods.
type Options struct {
	// Tol is the L2 convergence threshold on the normalized difference
	// vector between iterations. The paper uses 1e-5 (the default).
	Tol float64
	// MaxIter bounds the number of iterations (default 20000).
	MaxIter int
	// Seed seeds the random initial score vector.
	Seed int64
	// SkipOrientation disables the decile entropy symmetry breaking,
	// leaving the raw spectral orientation. Used by ablation experiments.
	SkipOrientation bool
	// WarmStart, when non-nil and of length Users(), seeds the iteration
	// with a previous score vector instead of a random one. Power methods
	// re-ranking a lightly perturbed matrix converge in a fraction of the
	// cold-start iterations; methods without an iterate ignore it.
	WarmStart mat.Vector
	// Update, when non-nil, supplies prebuilt AVGHITS machinery for the
	// matrix being ranked, skipping construction entirely — kernel
	// benchmarks and tests set it to time or pin a solve apart from its
	// input fetch. The caller guarantees it was built from the same matrix
	// state (Update is immutable, so sharing across concurrent solves and
	// snapshots is safe); a dimension mismatch falls back to a fresh build.
	// When nil, each solve builds it from the matrix's page patterns in
	// O(m + nnz) (NewUpdate).
	Update *Update
	// Scratch, when non-nil, supplies pooled solve buffers (iteration
	// vectors, apply workspace, orientation indices) that HnD-power binds
	// instead of allocating — the engine-level scratch pool sets it. A
	// scratch must not be shared by concurrent solves, and Result.Scores
	// may alias scratch memory: copy the scores out before reusing the
	// scratch. Binding changes no floating-point operation; other methods
	// ignore the field.
	Scratch *SolveScratch
}

// newUpdate adopts the prebuilt Options.Update when its dimensions match m,
// and otherwise builds the AVGHITS update machinery for m.
func (o Options) newUpdate(m *response.Matrix) *Update {
	if u := o.Update; u != nil && u.Users() == m.Users() && len(u.ColScale) == m.TotalOptions() {
		return u
	}
	return NewUpdate(m)
}

func (o *Options) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-5
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20000
	}
}

// validateInput rejects inputs no spectral method can rank meaningfully.
// The scan stops at the second answering user — on a typical matrix after
// two rows — so only a rejected matrix is scanned in full, which keeps the
// count in its error exact.
func validateInput(m *response.Matrix) error {
	if m.Users() < 2 {
		return fmt.Errorf("core: need at least 2 users, got %d", m.Users())
	}
	answered := 0
	for u := 0; u < m.Users() && answered < 2; u++ {
		if m.AnswerCount(u) > 0 {
			answered++
		}
	}
	if answered < 2 {
		return fmt.Errorf("core: need at least 2 users with answers, got %d", answered)
	}
	return nil
}

// convergenceGap returns the sign-insensitive L2 distance between two unit
// vectors, the convergence measure used by all power-style iterations here.
func convergenceGap(a, b mat.Vector) float64 {
	return mat.FlipInvariantDist(a, b)
}
