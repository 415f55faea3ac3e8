package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSparse(rng *rand.Rand, r, c int, density float64) *CSR {
	var entries []Coord
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				entries = append(entries, Coord{i, j, rng.NormFloat64()})
			}
		}
	}
	// Guarantee at least one entry so matrices are never entirely empty.
	if len(entries) == 0 {
		entries = append(entries, Coord{0, 0, 1})
	}
	return NewCSR(r, c, entries)
}

func TestNewCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 1}, {0, 0, 2}, {1, 1, 3}})
	if m.At(0, 0) != 3 {
		t.Fatalf("duplicate sum = %v", m.At(0, 0))
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestNewCSRDropsZeros(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 0}, {1, 0, 1}, {1, 0, -1}})
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0 (explicit zero and cancelling duplicates)", m.NNZ())
	}
}

func TestNewCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []Coord{{2, 0, 1}})
}

func TestCSRAt(t *testing.T) {
	m := NewCSR(3, 4, []Coord{{0, 3, 5}, {2, 1, -2}})
	if m.At(0, 3) != 5 || m.At(2, 1) != -2 || m.At(1, 1) != 0 {
		t.Fatal("At wrong values")
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randDense(rng, 6, 9)
	m := CSRFromDense(d)
	back := m.ToDense()
	for i := 0; i < 6; i++ {
		for j := 0; j < 9; j++ {
			if d.At(i, j) != back.At(i, j) {
				t.Fatal("round trip mismatch")
			}
		}
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		r := 1 + rng.Intn(15)
		c := 1 + rng.Intn(15)
		s := randSparse(rng, r, c, 0.3)
		d := s.ToDense()
		x := NewVector(c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := NewVector(r)
		want := NewVector(r)
		s.MulVec(got, x)
		d.MulVec(want, x)
		if !got.Equal(want, 1e-10) {
			t.Fatalf("MulVec mismatch trial %d", trial)
		}
		y := NewVector(r)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		gt := NewVector(c)
		wt := NewVector(c)
		s.MulVecT(gt, y)
		d.MulVecT(wt, y)
		if !gt.Equal(wt, 1e-10) {
			t.Fatalf("MulVecT mismatch trial %d", trial)
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randSparse(rng, 5, 8, 0.4)
	tt := s.T()
	if tt.Rows() != 8 || tt.Cols() != 5 {
		t.Fatalf("T shape %dx%d", tt.Rows(), tt.Cols())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 8; j++ {
			if s.At(i, j) != tt.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestRowColSums(t *testing.T) {
	m := NewCSR(2, 3, []Coord{{0, 0, 1}, {0, 2, 2}, {1, 2, 3}})
	if !m.RowSums().Equal(Vector{3, 3}, 0) {
		t.Fatalf("RowSums = %v", m.RowSums())
	}
	if !m.ColSums().Equal(Vector{1, 0, 5}, 0) {
		t.Fatalf("ColSums = %v", m.ColSums())
	}
}

func TestRowColNormalized(t *testing.T) {
	m := NewCSR(2, 3, []Coord{{0, 0, 1}, {0, 2, 3}, {1, 1, 2}})
	rn := m.RowNormalized()
	if !rn.RowSums().Equal(Vector{1, 1}, 1e-12) {
		t.Fatalf("RowNormalized sums %v", rn.RowSums())
	}
	cn := m.ColNormalized()
	sums := cn.ColSums()
	if math.Abs(sums[0]-1) > 1e-12 || math.Abs(sums[1]-1) > 1e-12 || math.Abs(sums[2]-1) > 1e-12 {
		t.Fatalf("ColNormalized sums %v", sums)
	}
}

func TestNormalizedSkipsEmptyRowsCols(t *testing.T) {
	m := NewCSR(3, 3, []Coord{{0, 0, 2}})
	rn := m.RowNormalized()
	if rn.At(0, 0) != 1 {
		t.Fatal("non-empty row not normalized")
	}
	if rn.RowSums()[1] != 0 {
		t.Fatal("empty row acquired mass")
	}
}

func TestMulCSRTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randSparse(rng, 4, 7, 0.5)
	b := randSparse(rng, 5, 7, 0.5)
	got := a.MulCSRT(b)
	want := a.ToDense().Mul(b.ToDense().T())
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-10 {
				t.Fatalf("MulCSRT mismatch at (%d,%d): %v vs %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randSparse(rng, 6, 10, 0.4)
	l := c.Laplacian()
	rs := l.RowSums()
	for i, s := range rs {
		if math.Abs(s) > 1e-9 {
			t.Fatalf("Laplacian row %d sums to %v", i, s)
		}
	}
	if !l.IsSymmetric(1e-9) {
		t.Fatal("Laplacian not symmetric")
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 1}, {1, 1, 2}})
	sr := m.ScaleRows(Vector{2, 3})
	if sr.At(0, 0) != 2 || sr.At(1, 1) != 6 {
		t.Fatal("ScaleRows wrong")
	}
	sc := m.ScaleCols(Vector{5, 7})
	if sc.At(0, 0) != 5 || sc.At(1, 1) != 14 {
		t.Fatal("ScaleCols wrong")
	}
	// Original untouched.
	if m.At(0, 0) != 1 {
		t.Fatal("ScaleRows mutated receiver")
	}
}

func TestRowNNZViews(t *testing.T) {
	m := NewCSR(2, 4, []Coord{{0, 1, 5}, {0, 3, 6}})
	cols, vals := m.RowNNZ(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[0] != 5 || vals[1] != 6 {
		t.Fatalf("RowNNZ = %v %v", cols, vals)
	}
	cols, _ = m.RowNNZ(1)
	if len(cols) != 0 {
		t.Fatal("empty row should have no entries")
	}
}

// randomCSR builds a random rows×cols CSR with roughly density·rows·cols
// normally distributed non-zeros.
func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Coord
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries = append(entries, Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(rows, cols, entries)
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// bitsEqual reports exact bit-level equality of two vectors.
func bitsEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMulVecDiagSubMatchesReference asserts the fused ABH kernel
// dst = diag∘s − m·x matches the unfused two-pass reference bitwise.
func TestMulVecDiagSubMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []struct {
		rows, cols int
		density    float64
	}{
		{rows: 17, cols: 9, density: 0.4},
		{rows: 120, cols: 80, density: 0.15},
		{rows: 500, cols: 130, density: 0.3},
		{rows: 900, cols: 60, density: 0.5}, // skewed tall
		{rows: 80, cols: 600, density: 0.4}, // wide rows
	} {
		m := randomCSR(rng, shape.rows, shape.cols, shape.density)
		x := randomVector(rng, shape.cols)
		s := randomVector(rng, shape.rows)
		diag := randomVector(rng, shape.rows)
		want := NewVector(shape.rows)
		m.MulVec(want, x)
		for i := range want {
			want[i] = diag[i]*s[i] - want[i]
		}
		got := NewVector(shape.rows)
		m.MulVecDiagSub(got, x, diag, s)
		if !bitsEqual(got, want) {
			t.Fatalf("MulVecDiagSub not bitwise equal to reference (%dx%d)", shape.rows, shape.cols)
		}
	}
}

// TestNewCSRCountingSortAgainstDense cross-checks the counting-sort
// assembly — shuffled input, duplicate coordinates, duplicates cancelling to
// zero — against a dense accumulation of the same entries.
func TestNewCSRCountingSortAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		dense := NewDense(rows, cols)
		n := rng.Intn(4 * rows * cols)
		entries := make([]Coord, 0, n+2)
		for e := 0; e < n; e++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := float64(rng.Intn(9) - 4) // small ints so duplicate sums are exact
			entries = append(entries, Coord{Row: i, Col: j, Val: v})
			dense.Set(i, j, dense.At(i, j)+v)
		}
		// Force an exact cancellation at one coordinate. Integer values keep
		// every duplicate sum exact regardless of accumulation order.
		i, j := rng.Intn(rows), rng.Intn(cols)
		w := float64(1 + rng.Intn(8))
		entries = append(entries, Coord{Row: i, Col: j, Val: w}, Coord{Row: i, Col: j, Val: -w})
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })

		m := NewCSR(rows, cols, entries)
		for r := 0; r < rows; r++ {
			colsNNZ, vals := m.RowNNZ(r)
			for p := range colsNNZ {
				if p > 0 && colsNNZ[p] <= colsNNZ[p-1] {
					t.Fatalf("trial %d: row %d columns not strictly sorted: %v", trial, r, colsNNZ)
				}
				if vals[p] == 0 {
					t.Fatalf("trial %d: stored explicit zero at (%d,%d)", trial, r, colsNNZ[p])
				}
			}
			for c := 0; c < cols; c++ {
				if got, want := m.At(r, c), dense.At(r, c); got != want {
					t.Fatalf("trial %d: At(%d,%d) = %g, dense %g", trial, r, c, got, want)
				}
			}
		}
	}
}

// TestScaledMulVecMatchesScaledCopies asserts each pattern-scaled kernel
// (the transpose ones adding into a zero dst) is bitwise MulVec/MulVecT on
// the valued form ScaleRows/ScaleCols
// materializes, over a one-hot pattern with an empty row and an empty
// column and an x with zero entries (the MulVecT skip path). The scales
// carry full mantissas, so a kernel that sums a row before scaling it, or
// reads its scale by the wrong index, changes low-order bits.
func TestScaledMulVecMatchesScaledCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const rows, items, k = 40, 12, 4 // 48 columns
	var entries []Coord
	for i := 0; i < rows; i++ {
		if i == 5 {
			continue // empty row
		}
		for it := 0; it < items; it++ {
			if rng.Float64() < 0.6 {
				if col := it*k + rng.Intn(k); col != 7 { // column 7 stays empty
					entries = append(entries, Coord{Row: i, Col: col, Val: 1})
				}
			}
		}
	}
	c := NewCSR(rows, items*k, entries)
	withZeros := func(n int) Vector {
		v := randomVector(rng, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = 0
			}
		}
		return v
	}
	r, s := randomVector(rng, rows), randomVector(rng, items*k)
	byRow, byCol := c.ScaleRows(r), c.ScaleCols(s)

	xc := withZeros(items * k)
	if !bitsEqual(c.MulVecRowScaled(NewVector(rows), xc, r), byRow.MulVec(NewVector(rows), xc)) {
		t.Fatal("MulVecRowScaled differs from MulVec on ScaleRows")
	}
	if !bitsEqual(c.MulVecColScaled(NewVector(rows), xc, s), byCol.MulVec(NewVector(rows), xc)) {
		t.Fatal("MulVecColScaled differs from MulVec on ScaleCols")
	}
	xr := withZeros(rows)
	if !bitsEqual(c.MulVecTRowScaledAdd(NewVector(items*k), xr, r), byRow.MulVecT(NewVector(items*k), xr)) {
		t.Fatal("MulVecTRowScaledAdd differs from MulVecT on ScaleRows")
	}
	if !bitsEqual(c.MulVecTColScaledAdd(NewVector(items*k), xr, s), byCol.MulVecT(NewVector(items*k), xr)) {
		t.Fatal("MulVecTColScaledAdd differs from MulVecT on ScaleCols")
	}
}

// TestNewPatternMatchesNewCSR asserts the column-list constructor builds
// exactly the CSR NewCSR assembles from the same entries with value 1,
// empty rows included, and rejects malformed column lists.
func TestNewPatternMatchesNewCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, cols = 30, 17
	rowPtr := make([]int, rows+1)
	var colIdx []int
	var entries []Coord
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r%7 != 3 && rng.Float64() < 0.3 { // rows 3, 10, ... stay empty
				colIdx = append(colIdx, c)
				entries = append(entries, Coord{Row: r, Col: c, Val: 1})
			}
		}
		rowPtr[r+1] = len(colIdx)
	}
	got, want := NewPattern(rows, cols, rowPtr, colIdx), NewCSR(rows, cols, entries)
	if got.Rows() != rows || got.Cols() != cols || got.NNZ() != want.NNZ() {
		t.Fatalf("shape %dx%d nnz %d, want %dx%d nnz %d", got.Rows(), got.Cols(), got.NNZ(), rows, cols, want.NNZ())
	}
	for r := 0; r < rows; r++ {
		gc, gv := got.RowNNZ(r)
		wc, wv := want.RowNNZ(r)
		if !intsEqual(gc, wc) || !bitsEqual(gv, wv) {
			t.Fatalf("row %d: %v %v, want %v %v", r, gc, gv, wc, wv)
		}
	}
	for name, bad := range map[string]func(){
		"unsorted":     func() { NewPattern(1, 4, []int{0, 2}, []int{2, 1}) },
		"duplicate":    func() { NewPattern(1, 4, []int{0, 2}, []int{1, 1}) },
		"out-of-range": func() { NewPattern(1, 4, []int{0, 1}, []int{4}) },
		"bad-rowptr":   func() { NewPattern(2, 4, []int{0, 1}, []int{1}) },
		"short-rowptr": func() { NewPattern(1, 4, []int{0, 2}, []int{1}) },
		"negative-row": func() { NewPattern(2, 4, []int{0, 2, 1}, []int{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewPattern accepted a malformed column list", name)
				}
			}()
			bad()
		}()
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
