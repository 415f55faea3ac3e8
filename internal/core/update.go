package core

import (
	"context"

	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// Update bundles the AVGHITS machinery (Section III-B) for one matrix
// state: the one-hot response matrix C, as the per-page patterns the
// response matrix stores (response.Matrix.Patterns), and the two scale
// vectors that normalize it, C_row = diag(RowScale)·C and
// C_col = C·diag(ColScale). Neither normalized form is stored — the
// appliers scale inside their kernels — so building an Update costs
// O(m + nnz) plus the rebuild of any page a write dropped, and matrix-free
// application of U = C_row·(C_col)ᵀ and of the ABH quantities derived from
// L = D − C·Cᵀ costs O(nnz).
//
// An Update is immutable after construction; concurrent appliers each own
// a Workspace (see NewWorkspace).
type Update struct {
	// Pages holds C's rows in pages of response.PageUsers users, in row
	// order; each page spans all Σkᵢ columns.
	Pages []*mat.CSR
	// RowScale[i] is 1/(items user i answered) and ColScale[j] is
	// 1/(users who chose option j); both are 0 for an empty row or column.
	// They are exactly the values of C.RowNormalized() and
	// C.ColNormalized().
	RowScale, ColScale mat.Vector
}

// NewUpdate builds the update machinery for m from its page patterns: the
// row scales come from the pages' row pointers and the column scales from
// one column-count pass over the pages.
func NewUpdate(m *response.Matrix) *Update {
	u := &Update{Pages: m.Patterns(nil), RowScale: mat.NewVector(m.Users())}
	for k, p := range u.Pages {
		lo, hi := span(k, p)
		p.InvRowLens(u.RowScale[lo:hi])
	}
	u.ColScale = u.columnCounts(m.TotalOptions()) // exact chooser counts
	for j, n := range u.ColScale {
		if n != 0 {
			u.ColScale[j] = 1 / n
		}
	}
	return u
}

// columnCounts returns the number of users choosing each of the cols
// options — C's column sums, counted page by page.
func (u *Update) columnCounts(cols int) mat.Vector {
	counts := mat.NewVector(cols)
	for _, p := range u.Pages {
		p.AddColCounts(counts)
	}
	return counts
}

// span returns the rows [lo, hi) of C that page k holds: every page but
// the last holds response.PageUsers rows.
func span(k int, p *mat.CSR) (lo, hi int) {
	lo = k * response.PageUsers
	return lo, lo + p.Rows()
}

// Users returns the number of users (the dimension of U).
func (u *Update) Users() int { return len(u.RowScale) }

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
	return &Workspace{u: u, opt: mat.NewVector(len(u.ColScale))}
}

// The appliers below run each kernel page by page on the matching
// sub-slices of the user-indexed vectors. A transpose product zeroes the
// option vector once and accumulates every page into it in row order, so
// each option's sum adds the same terms in the same order as one product
// over the whole of C: the results are bitwise those of the unpaged
// kernels.

// ApplyU computes dst = U·s = C_row·(C_col)ᵀ·s using two sparse mat-vec
// products over C's pattern. dst must not alias s.
func (w *Workspace) ApplyU(dst, s mat.Vector) {
	u := w.u
	w.opt.Fill(0)
	for k, p := range u.Pages {
		lo, hi := span(k, p)
		p.MulVecTColScaledAdd(w.opt, s[lo:hi], u.ColScale)
	}
	for k, p := range u.Pages {
		lo, hi := span(k, p)
		p.MulVecRowScaled(dst[lo:hi], w.opt, u.RowScale[lo:hi])
	}
}

// ApplyUT computes dst = Uᵀ·s.
func (w *Workspace) ApplyUT(dst, s mat.Vector) {
	u := w.u
	w.opt.Fill(0)
	for k, p := range u.Pages {
		lo, hi := span(k, p)
		p.MulVecTRowScaledAdd(w.opt, s[lo:hi], u.RowScale[lo:hi])
	}
	for k, p := range u.Pages {
		lo, hi := span(k, p)
		p.MulVecColScaled(dst[lo:hi], w.opt, u.ColScale)
	}
}

// ApplyL computes dst = L·s = D·s − C·(Cᵀ·s) matrix-free. d must be the
// vector returned by DiagCCT. The D·s − · correction is fused into the row
// sweep of the second mat-vec, so the whole apply is two passes over the
// non-zeros with no extra sweep over dst.
func (w *Workspace) ApplyL(dst, s, d mat.Vector) {
	w.opt.Fill(0)
	for k, p := range w.u.Pages {
		lo, hi := span(k, p)
		p.MulVecTAdd(w.opt, s[lo:hi])
	}
	for k, p := range w.u.Pages {
		lo, hi := span(k, p)
		p.MulVecDiagSub(dst[lo:hi], w.opt, d[lo:hi], s[lo:hi])
	}
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
// forms c.ScaleRows(RowScale) and c.ScaleCols(ColScale), where c is the
// assembled one-hot matrix the Update was built from
// (response.Matrix.Binary). O(m²n) — used by the "direct" method variants
// and by tests of the R-matrix lemmas.
func (u *Update) UMatrix(c *mat.CSR) *mat.Dense {
	return c.ScaleRows(u.RowScale).MulCSRT(c.ScaleCols(u.ColScale))
}

// UDiffMatrix materializes U_diff = S·U·T, the (m−1)×(m−1) difference
// update matrix of HND, from the assembled one-hot matrix c (see UMatrix).
func (u *Update) UDiffMatrix(c *mat.CSR) *mat.Dense {
	um := u.UMatrix(c)
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
	colSums := u.columnCounts(len(u.ColScale))
	d := mat.NewVector(u.Users())
	for k, p := range u.Pages {
		lo, hi := span(k, p)
		p.MulVec(d[lo:hi], colSums)
	}
	return d
}

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
