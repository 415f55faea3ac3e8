package mat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// oneHotEntries synthesizes the coordinate list of a Figure 5-shaped one-hot
// response matrix: `users` rows, `items` answers per row scattered over
// items·options columns — the exact workload NewCSR assembles on every
// Update build.
func oneHotEntries(users, items, options int, seed int64) (int, []Coord) {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, 0, users*items)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			entries = append(entries, Coord{Row: u, Col: i*options + rng.Intn(options), Val: 1})
		}
	}
	return items * options, entries
}

// newCSRSortSlice is the pre-counting-sort assembly (comparison sort on
// coordinate triplets), kept here as the benchmark reference.
func newCSRSortSlice(rows, cols int, entries []Coord) *CSR {
	sorted := make([]Coord, 0, len(entries))
	for _, e := range entries {
		if e.Val != 0 {
			sorted = append(sorted, e)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, sorted[i].Col)
			m.val = append(m.val, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// BenchmarkNewCSRAssembly compares counting-sort CSR assembly against the
// previous sort.Slice build on Figure 5-sized one-hot matrices.
func BenchmarkNewCSRAssembly(b *testing.B) {
	for _, shape := range []struct{ users, items int }{
		{1000, 100},  // Fig 5a mid sweep
		{10000, 100}, // Fig 5a large sweep
		{100, 10000}, // Fig 5b large sweep
	} {
		cols, entries := oneHotEntries(shape.users, shape.items, 4, 7)
		shuffled := append([]Coord(nil), entries...)
		rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		// The one-hot encoder emits entries already sorted by (row, col):
		// the new assembly merges them in one pass with no sort.
		b.Run(fmt.Sprintf("merge-presorted/m=%d/n=%d", shape.users, shape.items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewCSR(shape.users, cols, entries)
			}
		})
		b.Run(fmt.Sprintf("counting-sort/m=%d/n=%d", shape.users, shape.items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewCSR(shape.users, cols, shuffled)
			}
		})
		b.Run(fmt.Sprintf("sort-slice-presorted/m=%d/n=%d", shape.users, shape.items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newCSRSortSlice(shape.users, cols, entries)
			}
		})
		b.Run(fmt.Sprintf("sort-slice-shuffled/m=%d/n=%d", shape.users, shape.items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newCSRSortSlice(shape.users, cols, shuffled)
			}
		})
	}
}
