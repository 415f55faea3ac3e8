package core

import (
	"context"
	"fmt"
	"math/rand"

	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// initialDiff builds the starting difference vector for the power methods:
// the (normalized) successive differences of the warm-start scores when one
// is supplied and usable, otherwise a seeded random vector. The salt keeps
// different methods from sharing a random start under the same seed.
func initialDiff(users int, opts Options, salt int64) mat.Vector {
	return initialDiffInto(mat.NewVector(users-1), opts, salt)
}

// initialDiffInto is initialDiff writing into a caller-owned buffer of
// length users−1 — the scratch-pooled variant. The produced vector is
// bitwise identical to initialDiff's.
func initialDiffInto(sdiff mat.Vector, opts Options, salt int64) mat.Vector {
	if len(opts.WarmStart) == len(sdiff)+1 {
		mat.Diff(sdiff, opts.WarmStart)
		if sdiff.Normalize() > 0 {
			return sdiff
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed + salt))
	for i := range sdiff {
		sdiff[i] = rng.NormFloat64()
	}
	sdiff.Normalize()
	return sdiff
}

// HNDPower is HITSnDIFFS as described by Algorithm 1 of the paper: power
// iteration on the difference update matrix U_diff = S·U·T realized with
// matrix-vector products only, O(mn) per iteration. It recovers the unique
// C1P ordering on consistent inputs (Theorem 2) and is the paper's
// recommended implementation.
type HNDPower struct {
	Opts Options
}

// Name implements Ranker.
func (h HNDPower) Name() string { return "HnD-power" }

// Rank implements Ranker.
func (h HNDPower) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := h.Opts
	opts.defaults()
	u := opts.newUpdate(m)
	users := u.Users()
	if users == 2 {
		// U_diff is 1×1; any nonzero diff orders the two users. Defer to the
		// orientation heuristic entirely.
		return orient(mat.Vector{0, 1}, m, opts, Result{Iterations: 0, Converged: true}), nil
	}

	// All loop buffers are preallocated (or bound from the caller's pooled
	// scratch) and the workspace is owned by this goroutine: the iteration
	// body performs zero heap allocations.
	var sdiff, s, us, next mat.Vector
	var ws *Workspace
	if sc := opts.Scratch; sc != nil {
		sc.bind(u)
		sdiff, s, us, next, ws = sc.sdiff, sc.s, sc.us, sc.next, &sc.ws
	} else {
		sdiff = mat.NewVector(users - 1)
		s = mat.NewVector(users)
		us = mat.NewVector(users)
		next = mat.NewVector(users - 1)
		ws = u.NewWorkspace()
	}
	initialDiffInto(sdiff, opts, 101)
	res := Result{}
	for it := 1; it <= opts.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		mat.CumSumShift(s, sdiff) // s ← T·s_diff
		ws.ApplyU(us, s)          // w ← (C_col)ᵀ·s ; s ← C_row·w
		mat.Diff(next, us)        // s_diff ← S·s
		if next.Normalize() == 0 {
			// U_diff annihilated the iterate: no ranking signal remains
			// (e.g. all users answered identically).
			res.Iterations = it
			res.Converged = true
			return orient(mat.NewVector(users), m, opts, res), nil
		}
		gap := convergenceGap(next, sdiff)
		copy(sdiff, next)
		res.Iterations = it
		if gap < opts.Tol {
			res.Converged = true
			break
		}
	}
	mat.CumSumShift(s, sdiff)
	return orient(s, m, opts, res), nil
}

// orient applies (or skips) the decile entropy symmetry breaking and
// packages the final result.
func orient(scores mat.Vector, m *response.Matrix, opts Options, res Result) Result {
	if opts.SkipOrientation {
		res.Scores = scores
		return res
	}
	oriented, flipped := orientByDecileEntropy(scores, m, opts.Scratch)
	res.Scores = oriented
	res.Flipped = flipped
	return res
}

// HNDDirect computes the 2nd largest eigenvector of the materialized update
// matrix U with Arnoldi iteration and Hessenberg QR — the paper's
// "HnD-direct" baseline (SciPy eigs analogue). Materializing U costs
// O(m²n), which is why it loses to HNDPower at scale (Figure 5a).
type HNDDirect struct {
	Opts Options
}

// Name implements Ranker.
func (h HNDDirect) Name() string { return "HnD-direct" }

// Rank implements Ranker.
func (h HNDDirect) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := h.Opts
	opts.defaults()
	u := opts.newUpdate(m)
	um := u.UMatrix(m.Binary())
	vec, err := SecondLargestEigenvectorDense(ctx, um, opts.Seed)
	if err != nil {
		return Result{}, fmt.Errorf("core: HnD-direct eigensolve: %w", err)
	}
	res := Result{Converged: true}
	return orient(vec, m, opts, res), nil
}

// HNDDeflation computes the 2nd largest eigenvector of U with Hotelling's
// matrix deflation (Appendix references White 1958): one power iteration for
// the dominant left eigenvector of U (the right one is known to be e with
// eigenvalue 1 by Lemma 4), then power iteration on the deflated operator.
// Matrix-free, O(mn) per iteration, but needs the extra left-eigenvector
// round that HNDPower avoids.
type HNDDeflation struct {
	Opts Options
}

// Name implements Ranker.
func (h HNDDeflation) Name() string { return "HnD-deflation" }

// Rank implements Ranker.
func (h HNDDeflation) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := h.Opts
	opts.defaults()
	u := opts.newUpdate(m)
	hr, err := eigen.SecondEigenvectorHotelling(ctx, UOp{WS: u.NewWorkspace()}, eigen.HotellingOptions{
		Power: eigen.PowerOptions{
			Tol:     opts.Tol,
			MaxIter: opts.MaxIter,
			Seed:    opts.Seed,
		},
		KnownRight: mat.Ones(u.Users()),
		KnownValue: 1,
	})
	if err != nil {
		return Result{}, fmt.Errorf("core: HnD-deflation: %w", err)
	}
	res := Result{
		Iterations: hr.LeftIterations + hr.PowerIterations,
		Converged:  true,
	}
	return orient(hr.Vector, m, opts, res), nil
}

// AvgHITS runs the plain averaging HITS update s ← U·s to its fixed point.
// By Lemma 4 the scores converge to a constant vector and carry no ranking
// information — the method exists as the conceptual stepping stone between
// HITS and HND and is exposed for completeness and experiments.
type AvgHITS struct {
	Opts Options
}

// Name implements Ranker.
func (a AvgHITS) Name() string { return "AvgHITS" }

// Rank implements Ranker.
func (a AvgHITS) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := a.Opts
	opts.defaults()
	u := opts.newUpdate(m)
	pr, err := eigen.PowerIteration(ctx, UOp{WS: u.NewWorkspace()}, eigen.PowerOptions{
		Tol:     opts.Tol,
		MaxIter: opts.MaxIter,
		Seed:    opts.Seed,
	})
	if err != nil {
		return Result{Scores: pr.Vector, Iterations: pr.Iterations}, fmt.Errorf("core: AvgHITS: %w", err)
	}
	return Result{Scores: pr.Vector, Iterations: pr.Iterations, Converged: true}, nil
}
