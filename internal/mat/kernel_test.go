package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refRow is one row of a reference matrix: its column indices in
// increasing order and their values.
type refRow struct {
	cols []int
	vals []float64
}

// kernelCase is one matrix shape of TestPatternKernelsMatchNaiveLoops,
// given by each row's length; a row of length n holds n random distinct
// columns.
type kernelCase struct {
	name string
	lens []int
}

// kernelCases covers the row counts around a two-row step and a 64-user
// page (1, 2, 3, 63, 64, 65), empty rows at even and at odd positions, and
// pairs of rows of unequal length, a full row next to an empty one among
// them.
func kernelCases(rng *rand.Rand, cols int) []kernelCase {
	random := func(rows int) []int {
		lens := make([]int, rows)
		for i := range lens {
			if rng.Intn(5) > 0 {
				lens[i] = rng.Intn(cols + 1)
			}
		}
		return lens
	}
	var cases []kernelCase
	for _, rows := range []int{1, 2, 3, 63, 64, 65} {
		cases = append(cases, kernelCase{fmt.Sprintf("rows=%d", rows), random(rows)})
	}
	emptyAt := func(parity, rows int) []int {
		lens := random(rows)
		for i := range lens {
			if i%2 == parity {
				lens[i] = 0
			} else if lens[i] == 0 {
				lens[i] = 1 + rng.Intn(cols)
			}
		}
		return lens
	}
	return append(cases,
		kernelCase{"empty-even", emptyAt(0, 9)},
		kernelCase{"empty-odd", emptyAt(1, 9)},
		kernelCase{"full-then-empty", []int{cols, 0, cols, 1, 2, cols, 0}},
		kernelCase{"empty-then-full", []int{0, cols, 1, cols, cols, 3, 0, cols, 5}},
		kernelCase{"all-empty", []int{0, 0, 0}},
	)
}

// buildRows draws each row's columns and values: lens[i] distinct columns
// of [0, cols) in increasing order, with normal values.
func buildRows(rng *rand.Rand, lens []int, cols int) []refRow {
	rows := make([]refRow, len(lens))
	for i, n := range lens {
		pick := rng.Perm(cols)[:n]
		chosen := make([]bool, cols)
		for _, j := range pick {
			chosen[j] = true
		}
		for j, ok := range chosen {
			if ok {
				rows[i].cols = append(rows[i].cols, j)
				rows[i].vals = append(rows[i].vals, rng.NormFloat64())
			}
		}
	}
	return rows
}

// sparseVector returns n normal entries, about a third of them zero, so the
// transpose kernels take their zero-skip path.
func sparseVector(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		if rng.Intn(3) > 0 {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// accumulator returns the starting dst of an Add kernel: normal entries
// with a few negative zeros, which any addition of a +0 product would
// turn into +0 — so a kernel that stops skipping zero x entries shows.
func accumulator(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = math.Copysign(0, -1)
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestPatternKernelsMatchNaiveLoops pins every row and transpose kernel
// of CSR bitwise to the plain loop written below: each row summed in
// column order into one accumulator, each transpose product scattered
// row by row, rows with a zero x entry skipped. The references read only
// the test's own row lists, never csr.go, so a mistake shared by two
// kernels (MulVec and MulVecRowScaled, say) cannot hide here.
func TestPatternKernelsMatchNaiveLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const cols = 30
	for _, tc := range kernelCases(rng, cols) {
		t.Run(tc.name, func(t *testing.T) {
			rows := buildRows(rng, tc.lens, cols)
			n := len(rows)
			rowPtr := make([]int, n+1)
			var colIdx []int
			var entries []Coord
			for i, row := range rows {
				colIdx = append(colIdx, row.cols...)
				rowPtr[i+1] = len(colIdx)
				for p, j := range row.cols {
					entries = append(entries, Coord{Row: i, Col: j, Val: row.vals[p]})
				}
			}
			pattern := NewPattern(n, cols, rowPtr, colIdx)
			valued := NewCSR(n, cols, entries)

			x := sparseVector(rng, cols) // column-indexed input
			xr := sparseVector(rng, n)   // row-indexed input
			r := sparseVector(rng, n)    // row scales
			c := sparseVector(rng, cols) // column scales
			diag, s := sparseVector(rng, n), sparseVector(rng, n)
			startT := accumulator(rng, cols) // transpose dst before the add

			check := func(kernel string, got, want Vector) {
				t.Helper()
				if !bitsEqual(got, want) {
					t.Errorf("%s: got %v, want %v", kernel, got, want)
				}
			}
			rowLoop := func(term func(i, p, j int) float64) Vector {
				out := make(Vector, n)
				for i, row := range rows {
					var sum float64
					for p, j := range row.cols {
						sum += term(i, p, j)
					}
					out[i] = sum
				}
				return out
			}
			scatter := func(term func(i, p, j int, xi float64) float64) Vector {
				out := append(Vector(nil), startT...)
				for i, row := range rows {
					xi := xr[i]
					if xi == 0 {
						continue
					}
					for p, j := range row.cols {
						out[j] += term(i, p, j, xi)
					}
				}
				return out
			}

			check("MulVec", valued.MulVec(make(Vector, n), x),
				rowLoop(func(i, p, j int) float64 { return rows[i].vals[p] * x[j] }))
			check("MulVecRowScaled", pattern.MulVecRowScaled(make(Vector, n), x, r),
				rowLoop(func(i, _, j int) float64 { return r[i] * x[j] }))
			check("MulVecColScaled", pattern.MulVecColScaled(make(Vector, n), x, c),
				rowLoop(func(_, _, j int) float64 { return c[j] * x[j] }))
			diagSub := rowLoop(func(i, p, j int) float64 { return rows[i].vals[p] * x[j] })
			for i := range diagSub {
				diagSub[i] = diag[i]*s[i] - diagSub[i]
			}
			check("MulVecDiagSub", valued.MulVecDiagSub(make(Vector, n), x, diag, s), diagSub)

			check("MulVecTAdd", valued.MulVecTAdd(append(Vector(nil), startT...), xr),
				scatter(func(i, p, _ int, xi float64) float64 { return rows[i].vals[p] * xi }))
			check("MulVecTRowScaledAdd", pattern.MulVecTRowScaledAdd(append(Vector(nil), startT...), xr, r),
				scatter(func(i, _, _ int, xi float64) float64 { return r[i] * xi }))
			check("MulVecTColScaledAdd", pattern.MulVecTColScaledAdd(append(Vector(nil), startT...), xr, c),
				scatter(func(_, _, j int, xi float64) float64 { return c[j] * xi }))

			inv := make(Vector, n)
			for i, row := range rows {
				if len(row.cols) > 0 {
					inv[i] = 1 / float64(len(row.cols))
				}
			}
			check("InvRowLens", pattern.InvRowLens(accumulator(rng, n)), inv)
			counts := append(Vector(nil), startT...)
			for _, row := range rows {
				for _, j := range row.cols {
					counts[j]++
				}
			}
			check("AddColCounts", pattern.AddColCounts(append(Vector(nil), startT...)), counts)
		})
	}
}
