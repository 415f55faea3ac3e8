// Package response models the input of the ability discovery problem: the
// choices of m users over n heterogeneous multiple-choice items, and the
// derived (m × kn) one-hot binary response matrix C of the paper together
// with its row- and column-normalized forms.
package response

import (
	"fmt"
	"sort"
	"sync"

	"hitsndiffs/internal/mat"
)

// Unanswered marks an item a user did not answer.
const Unanswered = -1

// Matrix holds the responses of m users to n items. Each item i has
// OptionCount(i) options numbered from 0. Option 0 is, by generator
// convention, the best-fitting option, but nothing in the algorithms relies
// on that: they see only the one-hot encoding.
type Matrix struct {
	users   int
	items   int
	options []int // options[i] = number of options of item i
	offsets []int // offsets[i] = first column of item i in the flat encoding
	choices []int // users×items row-major; Unanswered for no response

	// binMu guards the memoized one-hot CSR encoding and its delta state
	// below. Concurrent readers of an otherwise-immutable Matrix (e.g.
	// several Engine ranks on one snapshot) share a single build.
	binMu sync.Mutex
	// bin is the memoized one-hot CSR. It is immutable once published:
	// SetAnswer never touches it (it only records the written row in dirty),
	// and a delta rebuild swaps in a freshly assembled CSR instead of
	// patching in place — so a clone or snapshot sharing the pointer can
	// never observe a partial rebuild.
	bin *mat.CSR
	// dirty lists the user rows written since bin was assembled (append
	// order, duplicates allowed; sorted and deduplicated at rebuild). The
	// next Binary() call re-encodes only these rows and bulk-copies the
	// rest (see mat.ReplaceRows), which is what makes a single-user write
	// cheap to absorb under sparse write traffic.
	dirty []int
	// gen counts every SetAnswer — the write generation staleness and
	// durability are measured in (see Generation).
	gen uint64
	// fullBuilds and deltaBuilds count how often Binary() assembled the
	// CSR from scratch vs. by touched-rows rebuild (see CSRRebuilds).
	fullBuilds, deltaBuilds uint64
}

// New creates an empty response matrix for m users, n items, and the given
// per-item option counts. A single int may be passed to give every item the
// same number of options.
func New(users, items int, options ...int) *Matrix {
	if users <= 0 || items <= 0 {
		panic(fmt.Sprintf("response: New invalid shape %d users × %d items", users, items))
	}
	var per []int
	switch len(options) {
	case 1:
		per = make([]int, items)
		for i := range per {
			per[i] = options[0]
		}
	case 0:
		panic("response: New requires at least one option count")
	default:
		if len(options) != items {
			panic(fmt.Sprintf("response: New got %d option counts for %d items", len(options), items))
		}
		per = append([]int(nil), options...)
	}
	offsets := make([]int, items+1)
	for i, k := range per {
		if k < 1 {
			panic(fmt.Sprintf("response: item %d has %d options", i, k))
		}
		offsets[i+1] = offsets[i] + k
	}
	choices := make([]int, users*items)
	for i := range choices {
		choices[i] = Unanswered
	}
	return &Matrix{users: users, items: items, options: per, offsets: offsets, choices: choices}
}

// FromChoices builds a response matrix from a users×items table of option
// indices (Unanswered allowed), inferring each item's option count as one
// more than the maximum observed index, with a floor of minOptions.
func FromChoices(choices [][]int, minOptions int) *Matrix {
	if len(choices) == 0 || len(choices[0]) == 0 {
		panic("response: FromChoices empty input")
	}
	users, items := len(choices), len(choices[0])
	per := make([]int, items)
	for i := range per {
		per[i] = minOptions
	}
	for u, row := range choices {
		if len(row) != items {
			panic(fmt.Sprintf("response: FromChoices ragged row %d", u))
		}
		for i, c := range row {
			if c != Unanswered && c+1 > per[i] {
				per[i] = c + 1
			}
		}
	}
	m := New(users, items, per...)
	for u, row := range choices {
		for i, c := range row {
			if c != Unanswered {
				m.SetAnswer(u, i, c)
			}
		}
	}
	return m
}

// Users returns the number of users m.
func (m *Matrix) Users() int { return m.users }

// Items returns the number of items n.
func (m *Matrix) Items() int { return m.items }

// OptionCount returns the number of options of item i.
func (m *Matrix) OptionCount(i int) int { return m.options[i] }

// TotalOptions returns the width of the flat one-hot encoding (Σᵢ kᵢ).
func (m *Matrix) TotalOptions() int { return m.offsets[m.items] }

// MaxOptions returns k, the largest option count over all items.
func (m *Matrix) MaxOptions() int {
	k := 0
	for _, v := range m.options {
		if v > k {
			k = v
		}
	}
	return k
}

// Column returns the flat column index of option h of item i.
func (m *Matrix) Column(item, option int) int {
	if option < 0 || option >= m.options[item] {
		panic(fmt.Sprintf("response: item %d has no option %d", item, option))
	}
	return m.offsets[item] + option
}

// SetAnswer records that user u chose option h for item i. Passing
// Unanswered clears the response. A write does not discard the memoized
// one-hot CSR: it marks row u dirty, and the next Binary() call rebuilds
// only the touched rows.
func (m *Matrix) SetAnswer(u, i, h int) {
	if h != Unanswered && (h < 0 || h >= m.options[i]) {
		panic(fmt.Sprintf("response: SetAnswer option %d out of range for item %d (k=%d)", h, i, m.options[i]))
	}
	m.choices[u*m.items+i] = h
	m.binMu.Lock()
	m.gen++
	if m.bin != nil {
		m.dirty = append(m.dirty, u)
	}
	m.binMu.Unlock()
}

// Generation returns a counter bumped by every SetAnswer — the unit of
// the serving engines' staleness bound and the key their durable records
// carry (equal generations on the same Matrix imply identical responses);
// a Clone starts from its parent's generation.
func (m *Matrix) Generation() uint64 {
	m.binMu.Lock()
	defer m.binMu.Unlock()
	return m.gen
}

// CSRRebuilds reports how many times Binary() assembled the memoized
// one-hot CSR from scratch (full) and how many times it rebuilt only the
// rows touched since the previous build (delta). Clones inherit their
// parent's counts, so the pair is a cumulative observability signal for a
// copy-on-write engine matrix: under sparse write traffic, full must stop
// growing after the first build while delta tracks the write rate.
func (m *Matrix) CSRRebuilds() (full, delta uint64) {
	m.binMu.Lock()
	defer m.binMu.Unlock()
	return m.fullBuilds, m.deltaBuilds
}

// Answer returns the option user u chose for item i, or Unanswered.
func (m *Matrix) Answer(u, i int) int { return m.choices[u*m.items+i] }

// AnswerCount returns the number of items user u answered.
func (m *Matrix) AnswerCount(u int) int {
	c := 0
	for i := 0; i < m.items; i++ {
		if m.Answer(u, i) != Unanswered {
			c++
		}
	}
	return c
}

// Clone returns a deep copy of m. The memoized one-hot CSR travels with
// the clone: the memo is immutable by construction (delta rebuilds swap,
// never patch), so parent and clone can share it safely, and a clone taken
// by a copy-on-write engine pays only a touched-rows rebuild on its next
// Binary() instead of a from-scratch assembly. Pending dirty rows and the
// generation counter travel too.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{
		users:   m.users,
		items:   m.items,
		options: append([]int(nil), m.options...),
		offsets: append([]int(nil), m.offsets...),
		choices: append([]int(nil), m.choices...),
	}
	m.binMu.Lock()
	out.bin = m.bin
	if len(m.dirty) > 0 {
		out.dirty = append([]int(nil), m.dirty...)
	}
	out.gen = m.gen
	out.fullBuilds, out.deltaBuilds = m.fullBuilds, m.deltaBuilds
	m.binMu.Unlock()
	return out
}

// Binary returns the (m × Σkᵢ) one-hot CSR response matrix C of the paper.
// The encoding is memoized, so repeated solves on an unchanged matrix
// (Engine re-ranks, method comparisons) build it once; callers must treat
// the returned CSR as read-only. After writes, only the touched user rows
// are re-encoded — the remaining rows are bulk-copied from the previous
// memo — and the rebuild swaps in a new CSR, so any previously returned
// encoding stays valid and fully consistent forever.
func (m *Matrix) Binary() *mat.CSR {
	m.binMu.Lock()
	defer m.binMu.Unlock()
	if m.bin != nil && len(m.dirty) == 0 {
		return m.bin
	}
	if m.bin == nil {
		m.fullBuilds++
		entries := make([]mat.Coord, 0, m.users*m.items)
		for u := 0; u < m.users; u++ {
			for i := 0; i < m.items; i++ {
				if h := m.Answer(u, i); h != Unanswered {
					entries = append(entries, mat.Coord{Row: u, Col: m.Column(i, h), Val: 1})
				}
			}
		}
		m.bin = mat.NewCSR(m.users, m.TotalOptions(), entries)
		m.dirty = m.dirty[:0] // keep the capacity for the next write burst
		return m.bin
	}
	m.deltaBuilds++
	rows := sortDedup(m.dirty)
	// Item offsets grow with the item index, so emitting in item order
	// satisfies ReplaceRows' increasing-column contract.
	m.bin = m.bin.ReplaceRows(rows, func(u int, emit func(col int, val float64)) {
		for i := 0; i < m.items; i++ {
			if h := m.Answer(u, i); h != Unanswered {
				emit(m.Column(i, h), 1)
			}
		}
	})
	m.dirty = m.dirty[:0] // keep the capacity for the next write burst
	return m.bin
}

// sortDedup sorts the dirty-row list ascending and removes duplicates, in
// place — the shape mat.ReplaceRows requires.
func sortDedup(rows []int) []int {
	sort.Ints(rows)
	out := rows[:0]
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			out = append(out, r)
		}
	}
	return out
}

// Normalized returns the one-hot CSR encoding C together with freshly
// built row- and column-normalized forms C_row and C_col. No solve calls
// it: the spectral methods apply both normalizations as scale vectors
// inside their kernels (see core.NewUpdate). Each call builds the two
// forms from the memoized C in O(nnz); callers must treat C as read-only.
func (m *Matrix) Normalized() (c, crow, ccol *mat.CSR) {
	c = m.Binary()
	return c, c.RowNormalized(), c.ColNormalized()
}

// PermuteUsers returns a new matrix whose user u is m's user perm[u].
func (m *Matrix) PermuteUsers(perm []int) *Matrix {
	if len(perm) != m.users {
		panic("response: PermuteUsers length mismatch")
	}
	out := m.Clone()
	for u, src := range perm {
		copy(out.choices[u*m.items:(u+1)*m.items], m.choices[src*m.items:(src+1)*m.items])
	}
	// The rows were rewritten wholesale behind the memo's back: drop the
	// cloned encoding and its delta state instead of marking every row
	// dirty.
	out.bin, out.dirty = nil, nil
	out.gen++
	return out
}

// IsConnected reports whether the user-option bipartite graph induced by the
// responses forms a single connected component over the users who answered
// at least one item. Spectral ranking methods require connectivity to relate
// scores across users.
func (m *Matrix) IsConnected() bool {
	total := m.users + m.TotalOptions()
	uf := newUnionFind(total)
	for u := 0; u < m.users; u++ {
		for i := 0; i < m.items; i++ {
			if h := m.Answer(u, i); h != Unanswered {
				uf.union(u, m.users+m.Column(i, h))
			}
		}
	}
	root := -1
	for u := 0; u < m.users; u++ {
		if m.AnswerCount(u) == 0 {
			continue
		}
		r := uf.find(u)
		if root == -1 {
			root = r
		} else if r != root {
			return false
		}
	}
	return true
}

// OptionCounts returns, for item i, the number of users choosing each
// option.
func (m *Matrix) OptionCounts(i int) []int {
	counts := make([]int, m.options[i])
	for u := 0; u < m.users; u++ {
		if h := m.Answer(u, i); h != Unanswered {
			counts[h]++
		}
	}
	return counts
}

// unionFind is a standard weighted quick-union with path halving.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
