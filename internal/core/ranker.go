// Package core implements the paper's contribution: the HITSnDIFFS (HND)
// family of spectral ability-discovery algorithms, the AVGHITS update
// machinery they build on, the competing ABH seriation method of Atkins,
// Boman and Hendrickson in both power and direct form, and the decile
// entropy symmetry-breaking heuristic that orients the recovered ordering.
package core

import (
	"context"
	"fmt"
	"math"

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
	// Workers caps the chunks each sparse kernel apply splits into —
	// executed on the shared persistent worker pool (mat.SetPoolSize):
	// 1 forces the serial kernels, 0 (the default) tracks
	// mat.DefaultWorkers() — GOMAXPROCS unless overridden process-wide.
	Workers int
	// Update, when non-nil, supplies prebuilt AVGHITS machinery for the
	// matrix being ranked, skipping construction entirely — kernel
	// benchmarks and tests set it to time or pin a solve apart from its
	// input fetch. The caller guarantees it was built from the same matrix
	// state (Update is immutable, so sharing across concurrent solves and
	// snapshots is safe); a dimension mismatch falls back to a fresh build.
	// When nil, the machinery comes from the matrix's normalization memo
	// (NewUpdate).
	Update *Update
	// Scratch, when non-nil, supplies pooled solve buffers (iteration
	// vectors, apply workspace, orientation indices) that HnD-power binds
	// instead of allocating — the engine-level scratch pool sets it. A scratch must not be shared by concurrent
	// solves, and Result.Scores may alias scratch memory: copy the scores
	// out before reusing the scratch. Binding changes no floating-point
	// operation; other methods ignore the field.
	Scratch *SolveScratch
}

// newUpdate builds (or adopts) the AVGHITS update machinery for m with the
// option's worker cap applied.
func (o Options) newUpdate(m *response.Matrix) *Update {
	if u := o.Update; u != nil && u.Users() == m.Users() && u.C.Cols() == m.TotalOptions() {
		w := o.Workers
		if w < 0 {
			w = 0
		}
		if u.Workers() == w {
			return u
		}
		// Same matrices, different kernel fan-out: rewrap the immutable CSRs
		// instead of mutating the shared Update behind concurrent appliers.
		return &Update{C: u.C, Crow: u.Crow, Ccol: u.Ccol, workers: w}
	}
	u := NewUpdate(m)
	u.SetWorkers(o.Workers)
	return u
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

// OrientByDecileEntropy applies the paper's symmetry-breaking heuristic
// (Section III-D): among the top and bottom user deciles of the candidate
// ranking, the side whose chosen options have lower average entropy across
// items is declared the high-ability side. If that is the bottom side, the
// scores are negated. It returns the oriented scores and whether a flip
// occurred.
func OrientByDecileEntropy(scores mat.Vector, m *response.Matrix) (mat.Vector, bool) {
	return orientByDecileEntropy(scores, m, nil)
}

// orientByDecileEntropy is OrientByDecileEntropy with optional pooled
// buffers: a non-nil scratch supplies the sort indices and entropy counts,
// and flips in place (exact negation) instead of cloning — the orientation
// pass of a scratch-backed solve performs zero steady-state allocations.
// The ordering and decisions are identical either way.
func orientByDecileEntropy(scores mat.Vector, m *response.Matrix, sc *SolveScratch) (mat.Vector, bool) {
	var order []int
	if sc != nil && len(sc.order) >= len(scores) {
		// Ascending stable argsort then in-place reversal — the exact
		// permutation rank.OrderFromScores produces.
		order = scores.ArgSortInto(sc.order[:len(scores)], sc.sortBuf[:len(scores)])
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	} else {
		order = rank.OrderFromScores(scores) // best-first under current sign
	}
	d := len(order) / 10
	if d < 1 {
		d = 1
	}
	top := order[:d]
	bottom := order[len(order)-d:]
	var buf []int
	if sc != nil {
		if cap(sc.counts) < m.MaxOptions() {
			sc.counts = make([]int, m.MaxOptions())
		}
		buf = sc.counts[:m.MaxOptions()]
	} else {
		buf = make([]int, m.MaxOptions())
	}
	te, be := groupEntropy(m, top, buf), groupEntropy(m, bottom, buf)
	flip := func() (mat.Vector, bool) {
		if sc != nil {
			return scores.Scale(-1), true
		}
		return scores.Clone().Scale(-1), true
	}
	if math.Abs(te-be) < 1e-12 {
		// Entropy cannot discriminate (e.g. single-user deciles on
		// noise-free data). Fall back to agreement with the per-item
		// majority: abler users side with the plurality more often.
		ta, ba := majorityAgreement(m, top), majorityAgreement(m, bottom)
		if ta >= ba {
			return scores, false
		}
		return flip()
	}
	if te < be {
		return scores, false
	}
	return flip()
}

// majorityAgreement returns the fraction of the group's answers that match
// the per-item plurality option over all users.
func majorityAgreement(m *response.Matrix, users []int) float64 {
	var agree, total float64
	for i := 0; i < m.Items(); i++ {
		counts := m.OptionCounts(i)
		best := 0
		for h, c := range counts {
			if c > counts[best] {
				best = h
			}
		}
		for _, u := range users {
			if h := m.Answer(u, i); h != response.Unanswered {
				total++
				if h == best {
					agree++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return agree / total
}

// groupEntropy returns the average Shannon entropy over items of the option
// distribution chosen by the given users. One caller-supplied counts buffer
// (sized at least to the widest item) serves every item, keeping the
// per-rank orientation pass allocation-free.
func groupEntropy(m *response.Matrix, users []int, buf []int) float64 {
	var total float64
	items := m.Items()
	for i := 0; i < items; i++ {
		counts := buf[:m.OptionCount(i)]
		for h := range counts {
			counts[h] = 0
		}
		for _, u := range users {
			if h := m.Answer(u, i); h != response.Unanswered {
				counts[h]++
			}
		}
		total += rank.Entropy(counts)
	}
	return total / float64(items)
}

// convergenceGap returns the sign-insensitive L2 distance between two unit
// vectors, the convergence measure used by all power-style iterations here.
func convergenceGap(a, b mat.Vector) float64 {
	return mat.FlipInvariantDist(a, b)
}
