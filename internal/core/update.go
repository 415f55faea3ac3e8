package core

import (
	"context"

	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// Update bundles the AVGHITS machinery (Section III-B) for one matrix
// state: the one-hot response matrix C and the two scale vectors that
// normalize it, C_row = diag(RowScale)·C and C_col = C·diag(ColScale).
// Neither normalized form is stored — the appliers scale inside their
// kernels — so building an Update costs O(m + nnz) and matrix-free
// application of U = C_row·(C_col)ᵀ and of the ABH quantities derived from
// L = D − C·Cᵀ costs O(nnz).
//
// An Update is immutable after construction; concurrent appliers each own
// a Workspace (see NewWorkspace).
type Update struct {
	// C is the binary one-hot response matrix (m × Σkᵢ).
	C *mat.CSR
	// RowScale[i] is 1/(items user i answered) and ColScale[j] is
	// 1/(users who chose option j); both are 0 for an empty row or column.
	// They are exactly the values of C.RowNormalized() and
	// C.ColNormalized().
	RowScale, ColScale mat.Vector
}

// NewUpdate builds the update machinery for m from its memoized one-hot
// encoding (response.Matrix.Binary): the row scales come from C's row
// lengths and the column scales from one column-count pass.
func NewUpdate(m *response.Matrix) *Update {
	c := m.Binary()
	rowScale := mat.NewVector(c.Rows())
	for i := range rowScale {
		if cols, _ := c.RowNNZ(i); len(cols) > 0 {
			rowScale[i] = 1 / float64(len(cols))
		}
	}
	colScale := c.ColSums() // one-hot entries: exact chooser counts
	for j, n := range colScale {
		if n != 0 {
			colScale[j] = 1 / n
		}
	}
	return &Update{C: c, RowScale: rowScale, ColScale: colScale}
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
// products over C's pattern. dst must not alias s.
func (w *Workspace) ApplyU(dst, s mat.Vector) {
	w.u.C.MulVecTColScaled(w.opt, s, w.u.ColScale)
	w.u.C.MulVecRowScaled(dst, w.opt, w.u.RowScale)
}

// ApplyUT computes dst = Uᵀ·s.
func (w *Workspace) ApplyUT(dst, s mat.Vector) {
	w.u.C.MulVecTRowScaled(w.opt, s, w.u.RowScale)
	w.u.C.MulVecColScaled(dst, w.opt, w.u.ColScale)
}

// ApplyL computes dst = L·s = D·s − C·(Cᵀ·s) matrix-free. d must be the
// vector returned by DiagCCT. The D·s − · correction is fused into the row
// sweep of the second mat-vec, so the whole apply is two passes over the
// non-zeros with no extra sweep over dst.
func (w *Workspace) ApplyL(dst, s, d mat.Vector) {
	w.u.C.MulVecT(w.opt, s)
	w.u.C.MulVecDiagSub(dst, w.opt, d, s)
}

// UOp exposes U as an eigen.TransposableOp without materializing it,
// applying through the workspace WS (made by the Update's NewWorkspace and
// owned by the single solver goroutine).
type UOp struct {
	WS *Workspace
}

// Dim implements eigen.Op.
func (o UOp) Dim() int { return o.WS.u.Users() }

// Apply implements eigen.Op.
func (o UOp) Apply(dst, x mat.Vector) { o.WS.ApplyU(dst, x) }

// ApplyT implements eigen.TransposableOp.
func (o UOp) ApplyT(dst, x mat.Vector) { o.WS.ApplyUT(dst, x) }

// UMatrix materializes the dense (m × m) update matrix U from the valued
// forms C.ScaleRows(RowScale) and C.ScaleCols(ColScale). O(m²n) — used by
// the "direct" method variants and by tests of the R-matrix lemmas.
func (u *Update) UMatrix() *mat.Dense {
	return u.C.ScaleRows(u.RowScale).MulCSRT(u.C.ScaleCols(u.ColScale))
}

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
