package response

import "sort"

// PruneUnchosenOptions returns a copy of m in which options chosen by
// nobody are removed from their items (the WLOG assumption of the paper's
// Appendix B proofs: empty columns carry no information). Items where no
// option remains keep a single dummy option. Answers are renumbered
// accordingly.
func (m *Matrix) PruneUnchosenOptions() *Matrix {
	newCounts := make([]int, m.items)
	remap := make([][]int, m.items) // old option -> new option or -1
	for i := 0; i < m.items; i++ {
		counts := m.OptionCounts(i)
		remap[i] = make([]int, m.options[i])
		next := 0
		for h, c := range counts {
			if c > 0 {
				remap[i][h] = next
				next++
			} else {
				remap[i][h] = -1
			}
		}
		if next == 0 {
			next = 1 // keep the item representable
		}
		newCounts[i] = next
	}
	out := New(m.users, m.items, newCounts...)
	for u := 0; u < m.users; u++ {
		for i := 0; i < m.items; i++ {
			if h := m.Answer(u, i); h != Unanswered {
				out.SetAnswer(u, i, remap[i][h])
			}
		}
	}
	return out
}

// PadToEqualRowSums returns a copy of m extended with single-answer dummy
// items so that every user has the same number of answers — the equal-row-
// sum normalization used by the paper's Lemmas 5–7. Each added item has one
// option answered by exactly one user, which cannot break the consecutive
// ones property.
func (m *Matrix) PadToEqualRowSums() *Matrix {
	maxCount := 0
	counts := make([]int, m.users)
	for u := 0; u < m.users; u++ {
		counts[u] = m.AnswerCount(u)
		if counts[u] > maxCount {
			maxCount = counts[u]
		}
	}
	var extra int
	for _, c := range counts {
		extra += maxCount - c
	}
	if extra == 0 {
		return m.Clone()
	}
	newOptions := append([]int(nil), m.options...)
	for j := 0; j < extra; j++ {
		newOptions = append(newOptions, 1)
	}
	out := New(m.users, m.items+extra, newOptions...)
	for u := 0; u < m.users; u++ {
		for i := 0; i < m.items; i++ {
			if h := m.Answer(u, i); h != Unanswered {
				out.SetAnswer(u, i, h)
			}
		}
	}
	next := m.items
	for u := 0; u < m.users; u++ {
		for j := counts[u]; j < maxCount; j++ {
			out.SetAnswer(u, next, 0)
			next++
		}
	}
	return out
}

// Components returns the connected components of the user-option bipartite
// graph as sorted user-index groups; users with no answers form singleton
// groups at the end. Spectral rankings are only comparable within a
// component.
func (m *Matrix) Components() [][]int {
	total := m.users + m.TotalOptions()
	uf := newUnionFind(total)
	for u := 0; u < m.users; u++ {
		for i := 0; i < m.items; i++ {
			if h := m.Answer(u, i); h != Unanswered {
				uf.union(u, m.users+m.Column(i, h))
			}
		}
	}
	groups := map[int][]int{}
	var silent [][]int
	for u := 0; u < m.users; u++ {
		if m.AnswerCount(u) == 0 {
			silent = append(silent, []int{u})
			continue
		}
		r := uf.find(u)
		groups[r] = append(groups[r], u)
	}
	out := make([][]int, 0, len(groups)+len(silent))
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return append(out, silent...)
}

// Subset returns a new matrix containing only the given users (in the
// given order), with the same items and option counts. Only answered
// cells are written, so the subset's generation counts the answers it
// copied: a subset of an empty matrix starts at generation 0, as a new
// matrix does.
func (m *Matrix) Subset(users []int) *Matrix {
	if len(users) == 0 {
		panic("response: Subset needs at least one user")
	}
	out := New(len(users), m.items, m.options...)
	for nu, u := range users {
		for i, h := range m.Row(u) {
			if h != Unanswered {
				out.SetAnswer(nu, i, h)
			}
		}
	}
	return out
}
