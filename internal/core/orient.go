package core

import (
	"math"
	"math/bits"
	"slices"

	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/rank"
	"hitsndiffs/internal/response"
)

// OrientByDecileEntropy applies the paper's symmetry-breaking heuristic
// (Section III-D): among the top and bottom user deciles of the candidate
// ranking, the side whose chosen options have lower average entropy across
// items is declared the high-ability side. If that is the bottom side, the
// scores are negated. It returns the oriented scores and whether a flip
// occurred.
func OrientByDecileEntropy(scores mat.Vector, m *response.Matrix) (mat.Vector, bool) {
	return orientByDecileEntropy(scores, m, nil)
}

// orientByDecileEntropy is OrientByDecileEntropy with optional pooled
// buffers: a non-nil scratch supplies the decile indices and entropy
// counts, and flips in place (exact negation) instead of cloning — the
// orientation pass of a scratch-backed solve performs zero steady-state
// allocations. The deciles are selected, not sorted (see deciles); they
// and the decision are identical either way.
func orientByDecileEntropy(scores mat.Vector, m *response.Matrix, sc *SolveScratch) (mat.Vector, bool) {
	top, bottom := deciles(scores, sc)
	var buf []int
	if sc != nil {
		sc.counts = resizeInts(sc.counts, m.TotalOptions()+1)
		buf = sc.counts
	} else {
		buf = make([]int, m.TotalOptions()+1)
	}
	te, be := groupEntropy(m, top, buf), groupEntropy(m, bottom, buf)
	flip := func() (mat.Vector, bool) {
		if sc != nil {
			return scores.Scale(-1), true
		}
		return scores.Clone().Scale(-1), true
	}
	if math.Abs(te-be) < 1e-12 {
		// Entropy cannot discriminate (e.g. single-user deciles on
		// noise-free data). Fall back to agreement with the per-item
		// majority: abler users side with the plurality more often.
		ta, ba := majorityAgreement(m, top), majorityAgreement(m, bottom)
		if ta >= ba {
			return scores, false
		}
		return flip()
	}
	if te < be {
		return scores, false
	}
	return flip()
}

// deciles returns the top and bottom tenth (at least one user each) of the
// best-first order rank.OrderFromScores gives, a stable ascending argsort
// reversed: the top decile is the d users largest under the key (score,
// user index) and the bottom decile the d smallest. Two selections find
// both sets in O(m) expected time without sorting, in the scratch's order
// buffer when one is bound. The order inside each set is unspecified:
// orientation only counts what the users chose, in integers, so equal sets
// give a bitwise-equal decision. A vector holding NaN has no such key
// order, so it takes the argsort itself.
func deciles(scores mat.Vector, sc *SolveScratch) (top, bottom []int) {
	n := len(scores)
	d := max(1, n/10)
	if slices.ContainsFunc(scores, math.IsNaN) {
		order := rank.OrderFromScores(scores)
		return order[:d], order[n-d:]
	}
	var order []int
	if sc != nil {
		sc.order = resizeInts(sc.order, n)
		order = sc.order
	} else {
		order = make([]int, n)
	}
	for i := range order {
		order[i] = i
	}
	splitAt(order, scores, 0, n, d)
	splitAt(order, scores, d, n, n-d)
	return order[:d], order[n-d:]
}

// above reports whether user a ranks above user b under the key (v[a], a):
// a higher score ranks above, and equal scores — −0 and +0 among them —
// rank by the higher user index, as in a stable ascending argsort
// reversed.
func above(v mat.Vector, a, b int) bool {
	return v[a] > v[b] || (v[a] == v[b] && a > b)
}

// splitAt rearranges idx[lo:hi] so that every entry of idx[lo:k] ranks
// above every entry of idx[k:hi]. It is Hoare's FIND: partition around a
// median-of-three pivot and keep only the side holding position k, in
// place and in O(hi−lo) expected time. After 2·log₂(hi−lo) partition
// rounds it sorts what is left of the range instead, so the worst case
// stays O(m log m) (Musser's introselect), and it reports whether it did.
// v must hold no NaN.
func splitAt(idx []int, v mat.Vector, lo, hi, k int) (fellBack bool) {
	for budget := 2 * bits.Len(uint(hi-lo)); hi-lo > 12; budget-- {
		if budget == 0 {
			sortBestFirst(idx[lo:hi], v)
			return true
		}
		p := partition(idx, v, lo, hi)
		switch {
		case k < p:
			hi = p
		case k > p+1:
			lo = p + 1
		default:
			return false
		}
	}
	sortBestFirst(idx[lo:hi], v)
	return false
}

// partition splits idx[lo:hi], more than two entries, around the median
// of its first, middle and last entries, and returns the pivot's final
// position p: every entry of idx[lo:p] ranks above idx[p], and idx[p]
// ranks above every entry of idx[p+1:hi].
func partition(idx []int, v mat.Vector, lo, hi int) int {
	a, b, c := lo, lo+(hi-lo)/2, hi-1
	if above(v, idx[a], idx[b]) {
		a, b = b, a
	}
	if above(v, idx[b], idx[c]) {
		b = c
		if above(v, idx[a], idx[b]) {
			b = a
		}
	}
	idx[lo], idx[b] = idx[b], idx[lo]
	p := idx[lo]
	i, j := lo+1, hi-1
	for {
		for i <= j && above(v, idx[i], p) {
			i++
		}
		for i <= j && above(v, p, idx[j]) {
			j--
		}
		if i >= j {
			break
		}
		idx[i], idx[j] = idx[j], idx[i]
		i, j = i+1, j-1
	}
	idx[lo], idx[j] = idx[j], idx[lo]
	return j
}

// sortBestFirst sorts idx so that each entry ranks above the next
// (pdqsort: O(n log n) in the worst case, no allocation).
func sortBestFirst(idx []int, v mat.Vector) {
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case a == b:
			return 0
		case above(v, a, b):
			return -1
		}
		return 1
	})
}

// majorityAgreement returns the fraction of the group's answers that match
// the per-item plurality option over all users.
func majorityAgreement(m *response.Matrix, users []int) float64 {
	var agree, total float64
	for i := 0; i < m.Items(); i++ {
		counts := m.OptionCounts(i)
		best := 0
		for h, c := range counts {
			if c > counts[best] {
				best = h
			}
		}
		for _, u := range users {
			if h := m.Answer(u, i); h != response.Unanswered {
				total++
				if h == best {
					agree++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return agree / total
}

// groupEntropy returns the average Shannon entropy over items of the option
// distribution chosen by the given users. It reads each user's row once,
// counting every chosen option into a caller-supplied buffer of one count
// per column of the one-hot encoding plus one spare slot in front (Σkᵢ+1,
// keeping the per-rank orientation pass allocation-free), then adds the
// item entropies in item order: the counts and the additions are those of
// an item-by-item scan, so the result is bitwise the same. The count loop
// has no branch: an unanswered cell (h = −1) adds 0 to the slot before its
// item's columns — the spare slot or the previous item's last column —
// where an answered one adds 1 to its option's column.
func groupEntropy(m *response.Matrix, users []int, counts []int) float64 {
	clear(counts)
	for _, u := range users {
		col := 1 // counts[col] is item i's first column
		for i, h := range m.Row(u) {
			counts[col+h] += 1 + h>>63
			col += m.OptionCount(i)
		}
	}
	var total float64
	col := 1
	for i := 0; i < m.Items(); i++ {
		k := m.OptionCount(i)
		total += rank.Entropy(counts[col : col+k])
		col += k
	}
	return total / float64(m.Items())
}
