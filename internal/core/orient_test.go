package core

import (
	"math"
	"math/rand"
	"testing"

	"hitsndiffs/internal/rank"
	"hitsndiffs/internal/response"
)

// groupEntropyItemMajor is the item-by-item reference for groupEntropy:
// for each item, count the group's chosen options into a buffer of the
// widest item's width, then add that item's entropy.
func groupEntropyItemMajor(m *response.Matrix, users []int) float64 {
	buf := make([]int, m.MaxOptions())
	var total float64
	items := m.Items()
	for i := 0; i < items; i++ {
		counts := buf[:m.OptionCount(i)]
		for h := range counts {
			counts[h] = 0
		}
		for _, u := range users {
			if h := m.Answer(u, i); h != response.Unanswered {
				counts[h]++
			}
		}
		total += rank.Entropy(counts)
	}
	return total / float64(items)
}

// TestGroupEntropyMatchesItemMajor asserts the user-major group entropy
// orientation uses is bitwise the item-major reference, on random matrices
// with unanswered cells and mixed option counts, for groups of users drawn
// from every page — in random order, with repeats, and as whole deciles —
// and with a dirty buffer left by an earlier group.
func TestGroupEntropyMatchesItemMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial, users := range []int{5, 63, 65, 3*response.PageUsers + 7} {
		items := 2 + rng.Intn(20)
		options := make([]int, items)
		for i := range options {
			options[i] = 1 + rng.Intn(6)
		}
		m := response.New(users, items, options...)
		for u := 0; u < users; u++ {
			for i := 0; i < items; i++ {
				if rng.Float64() < 0.6 {
					m.SetAnswer(u, i, rng.Intn(options[i]))
				}
			}
		}
		buf := make([]int, m.TotalOptions())
		for g := 0; g < 8; g++ {
			group := make([]int, 1+rng.Intn(users))
			for j := range group {
				group[j] = rng.Intn(users)
			}
			if g == 0 {
				group = rng.Perm(users)[:max(1, users/10)]
			}
			got, want := groupEntropy(m, group, buf), groupEntropyItemMajor(m, group)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d group %d: user-major entropy %v, item-major %v", trial, g, got, want)
			}
		}
	}
}
