package core

import (
	"context"
	"fmt"

	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// ABHPower is the paper's Algorithm 2: a matrix-free power iteration on
// β·I_{m−1} − M where M = S·L·T and L = D − C·Cᵀ is the ABH Laplacian. Its
// dominant eigenvector is the difference vector of the Fiedler vector of L,
// so cumulative summation recovers the ABH ranking without materializing L.
// Each iteration costs O(mn + m²) — the D·s term is dense — matching the
// paper's O(mnt + m²t) analysis.
type ABHPower struct {
	Opts Options
	// Beta overrides the spectral shift; 0 means the default max_i D_ii.
	Beta float64
}

// Name implements Ranker.
func (a ABHPower) Name() string { return "ABH-power" }

// Rank implements Ranker.
func (a ABHPower) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := a.Opts
	opts.defaults()
	u := opts.newUpdate(m)
	users := u.Users()
	if users == 2 {
		return orient(mat.Vector{0, 1}, m, opts, Result{Converged: true}), nil
	}
	d := u.DiagCCT()
	beta := a.Beta
	if beta <= 0 {
		beta = d.NormInf() // largest diagonal entry of D (Appendix E-B)
	}

	sdiff := initialDiff(users, opts, 211)

	// Preallocated buffers + owned workspace: the loop body allocates
	// nothing.
	ws := u.NewWorkspace()
	s := mat.NewVector(users)
	ls := mat.NewVector(users)
	next := mat.NewVector(users - 1)
	res := Result{}
	for it := 1; it <= opts.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		mat.CumSumShift(s, sdiff)              // s ← T·s_diff
		ws.ApplyL(ls, s, d)                    // s ← D·s − C·(Cᵀ·s) = L·s (fused)
		mat.Diff(next, ls)                     // S·(L·s)
		mat.AXPBY(next, beta, sdiff, -1, next) // (β·I − M)·s_diff
		if next.Normalize() == 0 {
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

// ABHLanczos is a matrix-free Fiedler-vector implementation of ABH that the
// paper's SciPy-based setup could not realize ("implementations by
// libraries such as Scipy ... require the full matrix as input"): symmetric
// Lanczos applied directly to the L·s = D·s − C·(Cᵀ·s) operator, avoiding
// the O(m²n) materialization of ABH-direct while keeping the eigsh-style
// convergence behaviour. Each Lanczos step costs O(mn + m·k) where k is the
// Krylov dimension.
type ABHLanczos struct {
	Opts Options
	// MaxSteps bounds the Krylov dimension (default min(m, 200)).
	MaxSteps int
}

// Name implements Ranker.
func (a ABHLanczos) Name() string { return "ABH-lanczos" }

// Rank implements Ranker.
func (a ABHLanczos) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := a.Opts
	opts.defaults()
	u := opts.newUpdate(m)
	users := u.Users()
	if users == 2 {
		return orient(mat.Vector{0, 1}, m, opts, Result{Converged: true}), nil
	}
	d := u.DiagCCT()
	ws := u.NewWorkspace()
	op := eigen.FuncOp{N: users, F: func(dst, x mat.Vector) {
		ws.ApplyL(dst, x, d)
	}}
	steps := a.MaxSteps
	if steps <= 0 {
		steps = 200
	}
	if steps > users {
		steps = users
	}
	res, err := eigen.Lanczos(ctx, op, eigen.LanczosOptions{MaxSteps: steps, Seed: opts.Seed})
	if err != nil {
		return Result{}, fmt.Errorf("core: ABH-lanczos: %w", err)
	}
	// The smallest Ritz value approximates L's null eigenvalue; the second
	// smallest Ritz vector approximates the Fiedler vector.
	if len(res.Vectors) < 2 {
		return orient(mat.NewVector(users), m, opts, Result{Converged: true}), nil
	}
	out := Result{Iterations: res.Steps, Converged: true}
	return orient(res.Vectors[1], m, opts, out), nil
}

// ABHDirect is the original formulation of Atkins et al.: materialize the
// Laplacian L = D − C·Cᵀ (O(m²n)) and sort users by its Fiedler vector,
// computed with the dense symmetric solver or Lanczos depending on size.
// This mirrors the paper's "ABH-direct" (SciPy eigsh/Lanczos) baseline.
type ABHDirect struct {
	Opts Options
}

// Name implements Ranker.
func (a ABHDirect) Name() string { return "ABH-direct" }

// Rank implements Ranker.
func (a ABHDirect) Rank(ctx context.Context, m *response.Matrix) (Result, error) {
	if err := validateInput(m); err != nil {
		return Result{}, err
	}
	opts := a.Opts
	opts.defaults()
	l := m.Binary().Laplacian()
	_, fiedler, err := eigen.FiedlerVector(ctx, l)
	if err != nil {
		return Result{}, fmt.Errorf("core: ABH-direct Fiedler vector: %w", err)
	}
	res := Result{Converged: true}
	return orient(fiedler, m, opts, res), nil
}
