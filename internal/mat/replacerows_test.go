package mat

import (
	"math/rand"
	"testing"
)

// csrEqual reports whether two CSR matrices are bitwise identical in shape,
// structure and values.
func csrEqual(a, b *CSR) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		ac, av := a.RowNNZ(r)
		bc, bv := b.RowNNZ(r)
		if len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if ac[i] != bc[i] || av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestReplaceRowsMatchesScratchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	old := randomCSR(rng, 20, 15, 0.3)

	// New contents for a few rows, including an emptied row and a row of a
	// previously empty matrix region.
	repl := map[int][]Coord{
		2:  {{Col: 1, Val: 2}, {Col: 9, Val: -1}},
		7:  {}, // emptied
		8:  {{Col: 0, Val: 5}},
		19: {{Col: 3, Val: 1}, {Col: 4, Val: 1}, {Col: 14, Val: 7}},
	}
	rows := []int{2, 7, 8, 19}
	got := old.ReplaceRows(rows, func(r int, emit func(col int, val float64)) {
		for _, e := range repl[r] {
			emit(e.Col, e.Val)
		}
	})

	var entries []Coord
	for r := 0; r < old.Rows(); r++ {
		if rep, ok := repl[r]; ok {
			for _, e := range rep {
				entries = append(entries, Coord{Row: r, Col: e.Col, Val: e.Val})
			}
			continue
		}
		rc, rv := old.RowNNZ(r)
		for i := range rc {
			entries = append(entries, Coord{Row: r, Col: rc[i], Val: rv[i]})
		}
	}
	want := NewCSR(old.Rows(), old.Cols(), entries)
	if !csrEqual(got, want) {
		t.Fatal("ReplaceRows disagrees with from-scratch assembly")
	}

	// The receiver must be untouched (COW safety).
	if !csrEqual(old, randomCSR(rand.New(rand.NewSource(3)), 20, 15, 0.3)) {
		t.Fatal("ReplaceRows mutated its receiver")
	}
}

func TestReplaceRowsRejectsBadInput(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(1)), 5, 5, 0.5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unsorted rows", func() {
		m.ReplaceRows([]int{3, 1}, func(int, func(int, float64)) {})
	})
	mustPanic("row out of range", func() {
		m.ReplaceRows([]int{5}, func(int, func(int, float64)) {})
	})
	mustPanic("columns out of order", func() {
		m.ReplaceRows([]int{1}, func(_ int, emit func(int, float64)) {
			emit(3, 1)
			emit(2, 1)
		})
	})
	mustPanic("zero value", func() {
		m.ReplaceRows([]int{1}, func(_ int, emit func(int, float64)) {
			emit(0, 0)
		})
	})
}
