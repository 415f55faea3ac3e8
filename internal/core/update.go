package core

import (
	"context"
	"sync"

	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// Update bundles the normalized response matrices of the AVGHITS machinery
// (Section III-B): C_row, C_col and matrix-free application of the update
// matrix U = C_row·(C_col)ᵀ and of the ABH quantities derived from
// L = D − C·Cᵀ. Building an Update costs O(nnz); every Apply costs O(nnz).
//
// An Update is immutable after construction and safe for concurrent
// appliers: the ApplyU/ApplyUT/ApplyL convenience methods draw their scratch
// space from an internal pool, and hot loops that want zero allocations and
// no pool traffic own a Workspace (see NewWorkspace) instead.
type Update struct {
	// C is the binary one-hot response matrix (m × Σkᵢ).
	C *mat.CSR
	// Crow and Ccol are the row- and column-normalized forms of C.
	Crow, Ccol *mat.CSR

	// pool recycles Workspaces for the convenience Apply* methods so
	// concurrent appliers never share scratch space.
	pool sync.Pool
}

// NewUpdate builds the update machinery for m through the matrix's
// generation-keyed normalization memo (response.Matrix.Normalized): on an
// unchanged matrix the three CSRs are served as-is, and after writes only
// the touched rows (and affected column scales) are respliced — the path
// that keeps a warm re-rank free of full O(nnz) normalization rebuilds.
func NewUpdate(m *response.Matrix) *Update {
	c, crow, ccol := m.Normalized()
	return &Update{C: c, Crow: crow, Ccol: ccol}
}

// Users returns the number of users (the dimension of U).
func (u *Update) Users() int { return u.C.Rows() }

// Workspace holds the scratch buffer one applier goroutine needs: the
// option-weight vector (length Σkᵢ). A Workspace must not be shared by
// concurrent appliers; a solver loop that owns one performs zero heap
// allocations per iteration after warm-up.
type Workspace struct {
	u   *Update
	opt mat.Vector
}

// NewWorkspace returns a fresh workspace for applying u.
func (u *Update) NewWorkspace() *Workspace {
	return &Workspace{u: u, opt: mat.NewVector(u.C.Cols())}
}

// ApplyU computes dst = U·s = C_row·(C_col)ᵀ·s using two sparse mat-vec
// products. dst must not alias s.
func (w *Workspace) ApplyU(dst, s mat.Vector) {
	w.u.Ccol.MulVecT(w.opt, s)
	w.u.Crow.MulVec(dst, w.opt)
}

// ApplyUT computes dst = Uᵀ·s.
func (w *Workspace) ApplyUT(dst, s mat.Vector) {
	w.u.Crow.MulVecT(w.opt, s)
	w.u.Ccol.MulVec(dst, w.opt)
}

// ApplyL computes dst = L·s = D·s − C·(Cᵀ·s) matrix-free. d must be the
// vector returned by DiagCCT. The D·s − · correction is fused into the row
// sweep of the second mat-vec, so the whole apply is two passes over the
// non-zeros with no extra sweep over dst.
func (w *Workspace) ApplyL(dst, s, d mat.Vector) {
	w.u.C.MulVecT(w.opt, s)
	w.u.C.MulVecDiagSub(dst, w.opt, d, s)
}

// acquire fetches a pooled workspace for the convenience appliers, growing
// the pool on first use (no New closure: the Update struct stays a plain
// three-pointer bundle, cheap to mint per matrix generation).
func (u *Update) acquire() *Workspace {
	if w, _ := u.pool.Get().(*Workspace); w != nil {
		return w
	}
	return u.NewWorkspace()
}

// ApplyU computes dst = U·s like Workspace.ApplyU, drawing scratch space
// from the internal pool so concurrent appliers of one Update are safe.
func (u *Update) ApplyU(dst, s mat.Vector) {
	w := u.acquire()
	w.ApplyU(dst, s)
	u.pool.Put(w)
}

// ApplyUT computes dst = Uᵀ·s; see ApplyU for the concurrency contract.
func (u *Update) ApplyUT(dst, s mat.Vector) {
	w := u.acquire()
	w.ApplyUT(dst, s)
	u.pool.Put(w)
}

// ApplyL computes dst = L·s = D·s − C·(Cᵀ·s) matrix-free; see ApplyU for
// the concurrency contract. d must be the vector returned by DiagCCT.
func (u *Update) ApplyL(dst, s, d mat.Vector) {
	w := u.acquire()
	w.ApplyL(dst, s, d)
	u.pool.Put(w)
}

// UOp exposes U as an eigen.TransposableOp without materializing it. When
// WS is set the applications run through that workspace (single-goroutine
// solvers: zero allocations per apply); when nil they fall back to the
// Update's pooled scratch.
type UOp struct {
	U  *Update
	WS *Workspace
}

// Dim implements eigen.Op.
func (o UOp) Dim() int { return o.U.Users() }

// Apply implements eigen.Op.
func (o UOp) Apply(dst, x mat.Vector) {
	if o.WS != nil {
		o.WS.ApplyU(dst, x)
		return
	}
	o.U.ApplyU(dst, x)
}

// ApplyT implements eigen.TransposableOp.
func (o UOp) ApplyT(dst, x mat.Vector) {
	if o.WS != nil {
		o.WS.ApplyUT(dst, x)
		return
	}
	o.U.ApplyUT(dst, x)
}

// UMatrix materializes the dense (m × m) update matrix U. O(m²n) — used by
// the "direct" method variants and by tests of the R-matrix lemmas.
func (u *Update) UMatrix() *mat.Dense { return u.Crow.MulCSRT(u.Ccol) }

// UDiffMatrix materializes U_diff = S·U·T, the (m−1)×(m−1) difference
// update matrix of HND.
func (u *Update) UDiffMatrix() *mat.Dense {
	um := u.UMatrix()
	m := um.Rows()
	out := mat.NewDense(m-1, m-1)
	// (S·U)[r][c] = U[r+1][c] − U[r][c]; (S·U·T)[r][j] = Σ_{c>j} (S·U)[r][c].
	for r := 0; r < m-1; r++ {
		// Suffix sums of row differences.
		suffix := 0.0
		for j := m - 2; j >= 0; j-- {
			suffix += um.At(r+1, j+1) - um.At(r, j+1)
			out.Set(r, j, suffix)
		}
	}
	return out
}

// DiagCCT returns the diagonal D of ABH's Laplacian: D_ii = (C·Cᵀ·e)_i,
// computed in O(nnz) as C·(Cᵀ·e).
func (u *Update) DiagCCT() mat.Vector {
	colSums := u.C.ColSums()
	d := mat.NewVector(u.Users())
	u.C.MulVec(d, colSums)
	return d
}

// LaplacianMatrix materializes the dense Laplacian L = D − C·Cᵀ (O(m²n)),
// used by ABH-direct.
func (u *Update) LaplacianMatrix() *mat.Dense { return u.C.Laplacian() }

// SecondLargestEigenvectorDense computes the 2nd largest eigenvector of the
// materialized U using Arnoldi + Hessenberg QR. Exposed for the HND-direct
// variant and for tests.
func SecondLargestEigenvectorDense(ctx context.Context, um *mat.Dense, seed int64) (mat.Vector, error) {
	pairs, err := eigen.TopRealEigenpairs(ctx, eigen.DenseOp{M: um}, 2, eigen.ArnoldiOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	if len(pairs) < 2 {
		// A single distinct eigenvalue: scores carry no ranking signal.
		return mat.NewVector(um.Rows()), nil
	}
	return pairs[1].Vector, nil
}
