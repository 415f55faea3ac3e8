package mat

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the workhorse representation
// for the (m × kn) one-hot response matrix C, whose rows each contain at most
// n non-zeros.
type CSR struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz
	val        []float64 // len nnz
}

// Coord is a single (Row, Col, Val) triplet used to assemble sparse matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a rows×cols CSR matrix from coordinate triplets.
// Duplicate coordinates are summed. Entries equal to zero are kept out.
//
// Assembly is O(nnz + rows + cols): input already sorted by (row, col) —
// the common case, produced by every one-hot response encoding — is merged
// in a single pass with no sort at all, and unsorted input goes through two
// stable counting-sort passes (by column, then by row) instead of an
// O(nnz log nnz) comparison sort (see BenchmarkNewCSRAssembly).
func NewCSR(rows, cols int, entries []Coord) *CSR {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: NewCSR invalid shape %dx%d", rows, cols))
	}
	nnz := 0
	inOrder := true
	prevRow, prevCol := -1, -1
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("mat: NewCSR entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols))
		}
		if e.Val != 0 {
			if e.Row < prevRow || (e.Row == prevRow && e.Col < prevCol) {
				inOrder = false
			}
			prevRow, prevCol = e.Row, e.Col
			nnz++
		}
	}
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	if nnz == 0 {
		return m
	}
	if inOrder {
		// Fast path: merge duplicate runs straight off the sorted input.
		colIdx := make([]int, 0, nnz)
		val := make([]float64, 0, nnz)
		for i := 0; i < len(entries); {
			e := entries[i]
			if e.Val == 0 {
				i++
				continue
			}
			v := e.Val
			j := i + 1
			for j < len(entries) &&
				(entries[j].Val == 0 || (entries[j].Row == e.Row && entries[j].Col == e.Col)) {
				v += entries[j].Val
				j++
			}
			if v != 0 {
				colIdx = append(colIdx, e.Col)
				val = append(val, v)
				m.rowPtr[e.Row+1]++
			}
			i = j
		}
		m.colIdx = colIdx
		m.val = val
		for r := 0; r < rows; r++ {
			m.rowPtr[r+1] += m.rowPtr[r]
		}
		return m
	}

	// Pass 1: stable counting sort by column into scratch triplet arrays.
	colStart := make([]int, cols+1)
	for _, e := range entries {
		if e.Val != 0 {
			colStart[e.Col+1]++
		}
	}
	for c := 0; c < cols; c++ {
		colStart[c+1] += colStart[c]
	}
	byColRow := make([]int, nnz)
	byColCol := make([]int, nnz)
	byColVal := make([]float64, nnz)
	for _, e := range entries {
		if e.Val == 0 {
			continue
		}
		at := colStart[e.Col]
		colStart[e.Col]++
		byColRow[at] = e.Row
		byColCol[at] = e.Col
		byColVal[at] = e.Val
	}

	// Pass 2: stable counting sort by row. Stability preserves the column
	// order within each row, so the output is sorted by (row, col).
	rowStart := make([]int, rows+1)
	for _, r := range byColRow {
		rowStart[r+1]++
	}
	for r := 0; r < rows; r++ {
		rowStart[r+1] += rowStart[r]
	}
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	for p, r := range byColRow {
		at := rowStart[r]
		rowStart[r]++
		colIdx[at] = byColCol[p]
		val[at] = byColVal[p]
	}
	// rowStart[r] now holds the end of row r; recover the row of each run
	// from it while merging duplicates in place below.

	// Merge duplicate (row, col) runs, dropping entries that sum to zero.
	out := 0
	row := 0
	for p := 0; p < nnz; {
		for rowStart[row] <= p {
			row++
		}
		q := p + 1
		v := val[p]
		for q < rowStart[row] && colIdx[q] == colIdx[p] {
			v += val[q]
			q++
		}
		if v != 0 {
			colIdx[out] = colIdx[p]
			val[out] = v
			out++
			m.rowPtr[row+1]++
		}
		p = q
	}
	m.colIdx = colIdx[:out]
	m.val = val[:out]
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// NewPattern assembles the rows×cols 0/1 matrix whose row r holds a one
// at each column of colIdx[rowPtr[r]:rowPtr[r+1]] — the one-hot encoding's
// shape, built straight from column lists with no triplet staging. Each
// row's columns must be strictly increasing and in range. The matrix
// adopts rowPtr and colIdx; callers must not modify them afterwards.
func NewPattern(rows, cols int, rowPtr, colIdx []int) *CSR {
	if rows <= 0 || cols <= 0 || len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		panic(fmt.Sprintf("mat: NewPattern invalid shape %dx%d with %d row pointers and %d entries", rows, cols, len(rowPtr), len(colIdx)))
	}
	for r := 0; r < rows; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		if hi < lo || hi > len(colIdx) {
			panic(fmt.Sprintf("mat: NewPattern row %d spans [%d,%d) of %d entries", r, lo, hi, len(colIdx)))
		}
		prev := -1
		for _, c := range colIdx[lo:hi] {
			if c <= prev || c >= cols {
				panic(fmt.Sprintf("mat: NewPattern row %d column %d out of order or range", r, c))
			}
			prev = c
		}
	}
	val := make([]float64, len(colIdx))
	for p := range val {
		val[p] = 1
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// CSRFromDense converts a dense matrix to CSR, dropping zeros.
func CSRFromDense(d *Dense) *CSR {
	var entries []Coord
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); v != 0 {
				entries = append(entries, Coord{i, j, v})
			}
		}
	}
	return NewCSR(d.Rows(), d.Cols(), entries)
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored non-zero entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the (i, j) entry using a binary search within row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if idx < hi && m.colIdx[idx] == j {
		return m.val[idx]
	}
	return 0
}

// RowNNZ returns the column indices and values of row i as views.
func (m *CSR) RowNNZ(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// InvRowLens sets dst[i] to 1/(entries stored in row i), or 0 for an
// empty row — for a one-hot m, the row scale of m.RowNormalized — in one
// pass over the row pointers.
func (m *CSR) InvRowLens(dst Vector) Vector {
	if len(dst) != m.rows {
		panic("mat: CSR InvRowLens length mismatch")
	}
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		if n := hi - lo; n > 0 {
			dst[i] = 1 / float64(n)
		} else {
			dst[i] = 0
		}
		lo = hi
	}
	return dst
}

// AddColCounts adds to dst[j] the number of entries stored in column j —
// for a one-hot m, its column sums — in one pass over the column indices.
// The counts are small integers, exact in float64.
func (m *CSR) AddColCounts(dst Vector) Vector {
	if len(dst) != m.cols {
		panic("mat: CSR AddColCounts length mismatch")
	}
	for _, j := range m.colIdx {
		dst[j]++
	}
	return dst
}

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    append([]float64(nil), m.val...),
	}
	return out
}

// The pattern kernels below bind the receiver's index slices to locals and
// range over each row's column slice, so the inner loops index no struct
// field and keep one bounds check per gather. Hoisting changes no
// floating-point operation: every sum adds the same products in the same
// order as the plain row-by-row loop (TestPatternKernelsMatchNaiveLoops
// pins each kernel bitwise to such a loop).

// MulVec computes dst = m·x, one row at a time in column order. dst must
// not alias x.
func (m *CSR) MulVec(dst, x Vector) Vector {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: CSR MulVec shape mismatch (%dx%d)·%d -> %d", m.rows, m.cols, len(x), len(dst)))
	}
	colIdx, val := m.colIdx, m.val
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		vs := val[lo:hi]
		var s float64
		for p, j := range colIdx[lo:hi] {
			s += vs[p] * x[j]
		}
		dst[i] = s
		lo = hi
	}
	return dst
}

// MulVecT computes dst = mᵀ·x without materializing the transpose.
// dst must not alias x.
func (m *CSR) MulVecT(dst, x Vector) Vector {
	dst.Fill(0)
	return m.MulVecTAdd(dst, x)
}

// MulVecTAdd adds mᵀ·x into dst, row by row in column order — MulVecT
// without the zeroing, so a matrix stored as row blocks accumulates its
// transpose product block after block in MulVecT's order. dst must not
// alias x.
func (m *CSR) MulVecTAdd(dst, x Vector) Vector {
	if len(x) != m.rows || len(dst) != m.cols {
		panic("mat: CSR MulVecT shape mismatch")
	}
	rowPtr, colIdx, val := m.rowPtr, m.colIdx, m.val
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		lo, hi := rowPtr[i], rowPtr[i+1]
		vs := val[lo:hi]
		for p, j := range colIdx[lo:hi] {
			dst[j] += vs[p] * xi
		}
	}
	return dst
}

// MulVecRowScaled computes dst = diag(r)·P·x, where P is m's pattern: every
// stored entry reads as 1, so for a one-hot m this is MulVec on
// m.ScaleRows(r) without materializing it. Each row accumulates r[i]·x[j]
// in MulVec's order, the product MulVec forms with the stored value r[i],
// so the result is bitwise that reference; scaling the row sum once
// instead would round differently. dst must not alias x.
//
// Two rows are in flight at a time, each summed in column order into its
// own accumulator: the two add chains are independent, so they overlap
// in the pipeline, and neither row's sum changes.
func (m *CSR) MulVecRowScaled(dst, x, r Vector) Vector {
	if len(x) != m.cols || len(dst) != m.rows || len(r) != m.rows {
		panic("mat: CSR MulVecRowScaled shape mismatch")
	}
	rowPtr, colIdx := m.rowPtr, m.colIdx
	i := 0
	for ; i+1 < len(dst); i += 2 {
		a := colIdx[rowPtr[i]:rowPtr[i+1]]
		b := colIdx[rowPtr[i+1]:rowPtr[i+2]]
		ra, rb := r[i], r[i+1]
		var sa, sb float64
		k := min(len(a), len(b))
		ak := a[:k]
		bk := b[:len(ak)]
		for t, ja := range ak {
			sa += ra * x[ja]
			sb += rb * x[bk[t]]
		}
		for _, j := range a[k:] {
			sa += ra * x[j]
		}
		for _, j := range b[k:] {
			sb += rb * x[j]
		}
		dst[i], dst[i+1] = sa, sb
	}
	if i < len(dst) {
		ri := r[i]
		var s float64
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			s += ri * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulVecColScaled computes dst = P·diag(c)·x over m's pattern P — MulVec on
// m.ScaleCols(c) of a one-hot m, bitwise, by the argument of
// MulVecRowScaled. dst must not alias x.
func (m *CSR) MulVecColScaled(dst, x, c Vector) Vector {
	if len(x) != m.cols || len(dst) != m.rows || len(c) != m.cols {
		panic("mat: CSR MulVecColScaled shape mismatch")
	}
	colIdx := m.colIdx
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		var s float64
		for _, j := range colIdx[lo:hi] {
			s += c[j] * x[j]
		}
		dst[i] = s
		lo = hi
	}
	return dst
}

// MulVecTRowScaledAdd adds (diag(r)·P)ᵀ·x into dst over m's pattern P —
// MulVecTAdd on m.ScaleRows(r) of a one-hot m, bitwise: each entry adds
// r[i]·x[i] in MulVecT's order. The product stays inside the entry's
// update rather than hoisted out of the row loop, so a compiler that fuses
// multiply-add (arm64) fuses it exactly as in MulVecT. dst must not alias
// x.
func (m *CSR) MulVecTRowScaledAdd(dst, x, r Vector) Vector {
	if len(x) != m.rows || len(dst) != m.cols || len(r) != m.rows {
		panic("mat: CSR MulVecTRowScaledAdd shape mismatch")
	}
	rowPtr, colIdx := m.rowPtr, m.colIdx
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		ri := r[i]
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			dst[j] += ri * xi
		}
	}
	return dst
}

// MulVecTColScaledAdd adds (P·diag(c))ᵀ·x into dst over m's pattern P —
// MulVecTAdd on m.ScaleCols(c) of a one-hot m, bitwise. It scatters one
// row at a time: interleaving rows would reorder the additions into a
// column two rows share. dst must not alias x.
func (m *CSR) MulVecTColScaledAdd(dst, x, c Vector) Vector {
	if len(x) != m.rows || len(dst) != m.cols || len(c) != m.cols {
		panic("mat: CSR MulVecTColScaledAdd shape mismatch")
	}
	rowPtr, colIdx := m.rowPtr, m.colIdx
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			dst[j] += c[j] * xi
		}
	}
	return dst
}

// MulVecDiagSub computes dst = diag∘s − m·x in one fused row pass, the
// kernel behind the matrix-free ABH Laplacian apply L·s = D·s − C·(Cᵀ·s).
// Fusing the diagonal term into the row sweep removes one full pass over
// dst compared to MulVec followed by an elementwise fix-up; each row's
// product accumulates in MulVec's order, so the result is bitwise that
// two-pass reference. dst must not alias x.
func (m *CSR) MulVecDiagSub(dst, x, diag, s Vector) Vector {
	if len(x) != m.cols || len(dst) != m.rows || len(diag) != m.rows || len(s) != m.rows {
		panic("mat: CSR MulVecDiagSub shape mismatch")
	}
	colIdx, val := m.colIdx, m.val
	lo := m.rowPtr[0]
	for i, hi := range m.rowPtr[1:] {
		vs := val[lo:hi]
		var acc float64
		for p, j := range colIdx[lo:hi] {
			acc += vs[p] * x[j]
		}
		dst[i] = diag[i]*s[i] - acc
		lo = hi
	}
	return dst
}

// RowSums returns the per-row sums of m.
func (m *CSR) RowSums() Vector {
	out := NewVector(m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p]
		}
		out[i] = s
	}
	return out
}

// ColSums returns the per-column sums of m.
func (m *CSR) ColSums() Vector {
	out := NewVector(m.cols)
	for p, j := range m.colIdx {
		out[j] += m.val[p]
	}
	return out
}

// ScaleRows returns a new CSR whose row i equals m's row i multiplied by
// f[i].
func (m *CSR) ScaleRows(f Vector) *CSR {
	if len(f) != m.rows {
		panic("mat: ScaleRows length mismatch")
	}
	out := m.Clone()
	for i := 0; i < m.rows; i++ {
		for p := out.rowPtr[i]; p < out.rowPtr[i+1]; p++ {
			out.val[p] *= f[i]
		}
	}
	return out
}

// ScaleCols returns a new CSR whose column j equals m's column j multiplied
// by f[j].
func (m *CSR) ScaleCols(f Vector) *CSR {
	if len(f) != m.cols {
		panic("mat: ScaleCols length mismatch")
	}
	out := m.Clone()
	for p, j := range out.colIdx {
		out.val[p] *= f[j]
	}
	return out
}

// RowNormalized returns a copy of m with each non-empty row scaled to sum 1.
func (m *CSR) RowNormalized() *CSR {
	sums := m.RowSums()
	inv := NewVector(m.rows)
	for i, s := range sums {
		if s != 0 {
			inv[i] = 1 / s
		}
	}
	return m.ScaleRows(inv)
}

// ColNormalized returns a copy of m with each non-empty column scaled to
// sum 1.
func (m *CSR) ColNormalized() *CSR {
	sums := m.ColSums()
	inv := NewVector(m.cols)
	for j, s := range sums {
		if s != 0 {
			inv[j] = 1 / s
		}
	}
	return m.ScaleCols(inv)
}

// ToDense expands m to a dense matrix.
func (m *CSR) ToDense() *Dense {
	out := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			out.Set(i, m.colIdx[p], m.val[p])
		}
	}
	return out
}

// T returns the transpose of m as a new CSR matrix.
func (m *CSR) T() *CSR {
	entries := make([]Coord, 0, m.NNZ())
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			entries = append(entries, Coord{Row: m.colIdx[p], Col: i, Val: m.val[p]})
		}
	}
	return NewCSR(m.cols, m.rows, entries)
}

// MulCSRT returns the dense product m·bᵀ, i.e. the (m.rows × b.rows) matrix
// of row-pair dot products. It is used to materialize CC^T and the AvgHITS
// update matrix U for the "direct" method variants.
func (m *CSR) MulCSRT(b *CSR) *Dense {
	if m.cols != b.cols {
		panic("mat: MulCSRT inner dimension mismatch")
	}
	out := NewDense(m.rows, b.rows)
	// For each column c of both operands, accumulate outer products of the
	// column supports. We iterate b row-wise and scatter through a dense
	// column accumulator of m's rows indexed by column.
	// Simpler approach: scratch dense vector per row of m.
	scratch := NewVector(m.cols)
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNNZ(i)
		for t, c := range cols {
			scratch[c] = vals[t]
		}
		for j := 0; j < b.rows; j++ {
			var s float64
			bc, bv := b.RowNNZ(j)
			for t, c := range bc {
				s += bv[t] * scratch[c]
			}
			out.Set(i, j, s)
		}
		for _, c := range cols {
			scratch[c] = 0
		}
	}
	return out
}

// Laplacian returns the dense Laplacian L = D - m·mᵀ of the square of m,
// where D is the diagonal matrix of row sums of m·mᵀ. This is the matrix
// used by the ABH method of Atkins et al.
func (m *CSR) Laplacian() *Dense {
	g := m.MulCSRT(m) // CC^T
	n := g.Rows()
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		var d float64
		for j := 0; j < n; j++ {
			d += g.At(i, j)
		}
		for j := 0; j < n; j++ {
			if i == j {
				l.Set(i, j, d-g.At(i, j))
			} else {
				l.Set(i, j, -g.At(i, j))
			}
		}
	}
	return l
}
