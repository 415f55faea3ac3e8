package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hitsndiffs/internal/mat"
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
		buf := make([]int, m.TotalOptions()+1)
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

// argsortDeciles is the reference deciles selects against: the first and
// last tenth (at least one user each) of the stable argsort reversed.
func argsortDeciles(scores mat.Vector) (top, bottom []int) {
	order := rank.OrderFromScores(scores)
	d := max(1, len(order)/10)
	return order[:d], order[len(order)-d:]
}

// sameUsers reports whether a and b hold the same users in any order.
func sameUsers(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// medianOfThreeKiller returns scores for n users on which every partition
// round of splitAt(identity, v, 0, n, k) takes the second lowest entry of
// its range as pivot, so each round drops only two entries and the round
// budget runs out long before position k is reached. Each round puts the
// range's lowest score at its last position and the second lowest in its
// middle, where the median of three picks it; it then replays partition's
// moves on such a range (pivot to the front, the scans meeting at the
// last entry, pivot to the second last). The test using it fails if
// partition's pivot rule or moves change, and the builder must follow.
func medianOfThreeKiller(n, k int) mat.Vector {
	v := mat.NewVector(n)
	v.Fill(-1) // unassigned; every assigned score is ≥ 0
	slot := make([]int, n)
	for i := range slot {
		slot[i] = i
	}
	next := 0.0
	for lo, hi := 0, n; hi-lo > 12 && hi-2 > k; hi -= 2 {
		mid := lo + (hi-lo)/2
		v[slot[hi-1]], v[slot[mid]] = next, next+1
		next += 2
		slot[lo], slot[mid] = slot[mid], slot[lo]
		slot[lo], slot[hi-2] = slot[hi-2], slot[lo]
	}
	for i := range v {
		if v[i] < 0 {
			v[i] = next
			next++
		}
	}
	return v
}

// TestDecilesMatchStableArgsort asserts the selected deciles are, as sets,
// the first and last tenth of the stable argsort reversed, with and
// without a bound scratch, for 2 to 4,099 users: heavy ties, ±0 mixes,
// all-equal scores (the zero-signal path), sorted and reversed vectors,
// infinities, the median-of-three killer and NaN-holding vectors (which
// take the argsort itself). It also pins the two-user solve path and that
// a bound scratch selects without allocating.
func TestDecilesMatchStableArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	negZero := math.Copysign(0, -1)
	kinds := []struct {
		name string
		gen  func(n, i int) float64
	}{
		{"normal", func(n, i int) float64 { return rng.NormFloat64() }},
		{"heavy-ties", func(n, i int) float64 { return float64(rng.Intn(3)) }},
		{"signed-zeros", func(n, i int) float64 { return []float64{0, negZero, 0.5, -0.5}[rng.Intn(4)] }},
		{"all-zero", func(n, i int) float64 { return 0 }},
		{"all-negative-zero", func(n, i int) float64 { return negZero }},
		{"sorted", func(n, i int) float64 { return float64(i) }},
		{"reversed", func(n, i int) float64 { return float64(n - i) }},
		{"sorted-runs-of-ties", func(n, i int) float64 { return float64(i / 7) }},
		{"infinities", func(n, i int) float64 { return []float64{math.Inf(1), math.Inf(-1), 1, -1}[rng.Intn(4)] }},
		{"nan", func(n, i int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(4))
		}},
	}
	sc := &SolveScratch{}
	check := func(name string, v mat.Vector) {
		t.Helper()
		wantTop, wantBottom := argsortDeciles(v)
		for _, s := range []*SolveScratch{nil, sc} {
			top, bottom := deciles(v, s)
			if !sameUsers(top, wantTop) || !sameUsers(bottom, wantBottom) {
				t.Fatalf("%s, %d users, scratch %v: deciles %v / %v, argsort %v / %v",
					name, len(v), s != nil, top, bottom, wantTop, wantBottom)
			}
		}
	}
	for _, n := range []int{2, 3, 9, 10, 11, 12, 13, 19, 20, 21, 64, 65, 127, 1000, 2000, 4099} {
		for _, k := range kinds {
			v := mat.NewVector(n)
			for i := range v {
				v[i] = k.gen(n, i)
			}
			check(k.name, v)
		}
		check("median-of-three-killer", medianOfThreeKiller(n, max(1, n/10)))
	}

	v := mat.NewVector(2000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(20, func() { deciles(v, sc) }); allocs != 0 {
		t.Fatalf("deciles with a bound scratch allocated %v times per call", allocs)
	}

	// Two users: HnD-power orients {0, 1} before binding any scratch.
	m := response.New(2, 3, 2)
	m.SetAnswer(0, 0, 1)
	m.SetAnswer(1, 0, 0)
	m.SetAnswer(1, 2, 1)
	plain, err := HNDPower{}.Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := HNDPower{Opts: Options{Scratch: &SolveScratch{}}}.Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsBitwise(t, "two users", pooled, plain)
}

// TestSplitAtFallsBackOnAdversarialInput drives the introselect fallback:
// on the median-of-three killer the partition rounds run out and splitAt
// sorts the rest of its range, still splitting correctly, while random
// scores of the same size never exhaust the budget.
func TestSplitAtFallsBackOnAdversarialInput(t *testing.T) {
	const n, k = 500, 50
	identity := func() []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	v := medianOfThreeKiller(n, k)
	idx := identity()
	if !splitAt(idx, v, 0, n, k) {
		t.Fatal("the median-of-three killer did not exhaust the partition rounds")
	}
	if want, _ := argsortDeciles(v); !sameUsers(idx[:k], want) {
		t.Fatalf("fallback split %v, argsort top decile %v", idx[:k], want)
	}
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 50; trial++ {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if splitAt(identity(), v, 0, n, k) {
			t.Fatalf("trial %d: random scores exhausted the partition rounds", trial)
		}
	}
}

// BenchmarkOrientDeciles times the orientation pass alone as a warm solve
// runs it: 2,000 users answering 100 four-option items with probability
// 0.5 (write-rank's shape), a bound scratch, the raw solved scores. It
// must report 0 allocs/op, which CI guards.
func BenchmarkOrientDeciles(b *testing.B) {
	m := randomResponses(rand.New(rand.NewSource(1)), 2000, 100, 4, 0.5)
	sc := &SolveScratch{}
	res, err := HNDPower{Opts: Options{Scratch: sc, SkipOrientation: true}}.Rank(context.Background(), m)
	if err != nil {
		b.Fatal(err)
	}
	raw := res.Scores.Clone()
	scores := mat.NewVector(len(raw))
	orientByDecileEntropy(scores, m, sc) // sizes the orientation buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scores, raw)
		orientByDecileEntropy(scores, m, sc)
	}
}
