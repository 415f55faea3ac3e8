// Package response models the input of the ability discovery problem: the
// choices of m users over n heterogeneous multiple-choice items, and the
// derived (m × kn) one-hot binary response matrix C of the paper together
// with its row- and column-normalized forms.
package response

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hitsndiffs/internal/mat"
)

// Unanswered marks an item a user did not answer.
const Unanswered = -1

// PageUsers is the number of users per storage page. A Matrix stores its
// users in consecutive pages of this many (the last page may be shorter),
// and a copy-on-write write copies one page. It is a fixed constant of the
// storage layout, not a tuning knob.
const PageUsers = 64

// page holds the choices of up to PageUsers consecutive users together
// with their one-hot pattern. A page reachable from two matrices is never
// written: a matrix writes only the pages it owns (see Matrix.owned).
type page struct {
	cells []int // rows×items row-major; Unanswered for no response
	// pattern is the one-hot CSR of the page's rows over all Σkᵢ columns,
	// or nil after a write until the next Patterns call rebuilds it. It is
	// published once per page version through the atomic pointer, so
	// concurrent solves of one snapshot may race to build it and all read
	// the same encoding.
	pattern atomic.Pointer[mat.CSR]
}

// Matrix holds the responses of m users to n items. Each item i has
// OptionCount(i) options numbered from 0. Option 0 is, by generator
// convention, the best-fitting option, but nothing in the algorithms relies
// on that: they see only the one-hot encoding.
//
// The responses live in immutable pages of PageUsers users. Clone copies
// the page table, so a copy-on-write snapshot costs O(pages), and the first
// write to a page two matrices share copies that one page.
type Matrix struct {
	users   int
	items   int
	options []int // options[i] = number of options of item i; never modified
	offsets []int // offsets[i] = first column of item i; never modified

	// mu guards the page table, the ownership flags and the generation.
	mu    sync.Mutex
	pages []*page
	// owned[p] reports that pages[p] is reachable from this matrix alone,
	// so SetAnswer may write it in place. Clone clears the flags on both
	// sides, and SetAnswer copies a page it does not own before writing.
	owned []bool
	// gen counts every SetAnswer — the write generation staleness and
	// durability are measured in (see Generation).
	gen uint64
}

// CheckShape reports whether New accepts the geometry: positive users and
// items, one option count or one per item, each at least 1, and both
// users×items and Σkᵢ at most 2^32 — the bound the binary snapshot codec
// reads back, so every matrix that can be built can also be recovered. The
// arithmetic cannot overflow.
func CheckShape(users, items int, options ...int) error {
	if users <= 0 || items <= 0 {
		return fmt.Errorf("response: invalid shape %d users × %d items", users, items)
	}
	if uint64(users) > maxSnapshotCells/uint64(items) {
		return fmt.Errorf("response: %d users × %d items exceeds %d cells", users, items, uint64(maxSnapshotCells))
	}
	switch len(options) {
	case 0:
		return fmt.Errorf("response: at least one option count is required")
	case 1:
		if k := options[0]; k < 1 || uint64(k) > maxSnapshotCells/uint64(items) {
			return fmt.Errorf("response: %d items × %d options is not in [1, %d] columns", items, k, uint64(maxSnapshotCells))
		}
		return nil
	case items:
	default:
		return fmt.Errorf("response: got %d option counts for %d items", len(options), items)
	}
	var total uint64
	for i, k := range options {
		if k < 1 {
			return fmt.Errorf("response: item %d has %d options", i, k)
		}
		if total += uint64(k); total > maxSnapshotCells {
			return fmt.Errorf("response: option counts exceed %d columns at item %d", uint64(maxSnapshotCells), i)
		}
	}
	return nil
}

// New creates an empty response matrix for m users, n items, and the given
// per-item option counts. A single int may be passed to give every item the
// same number of options. It panics on a shape CheckShape rejects.
func New(users, items int, options ...int) *Matrix {
	if err := CheckShape(users, items, options...); err != nil {
		panic(err.Error())
	}
	var per []int
	if len(options) == 1 {
		per = make([]int, items)
		for i := range per {
			per[i] = options[0]
		}
	} else {
		per = append([]int(nil), options...)
	}
	offsets := make([]int, items+1)
	for i, k := range per {
		offsets[i+1] = offsets[i] + k
	}
	n := (users + PageUsers - 1) / PageUsers
	m := &Matrix{users: users, items: items, options: per, offsets: offsets,
		pages: make([]*page, n), owned: make([]bool, n)}
	for p := range m.pages {
		cells := make([]int, min(PageUsers, users-p*PageUsers)*items)
		for c := range cells {
			cells[c] = Unanswered
		}
		m.pages[p] = &page{cells: cells}
		m.owned[p] = true
	}
	return m
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
// Unanswered clears the response. A write to a page this matrix shares
// with a clone copies that page first; either way it drops only the
// written page's one-hot pattern, which the next Patterns call rebuilds.
func (m *Matrix) SetAnswer(u, i, h int) {
	if h != Unanswered && (h < 0 || h >= m.options[i]) {
		panic(fmt.Sprintf("response: SetAnswer option %d out of range for item %d (k=%d)", h, i, m.options[i]))
	}
	p := u / PageUsers
	m.mu.Lock()
	pg := m.pages[p]
	if m.owned[p] {
		pg.pattern.Store(nil)
	} else {
		pg = &page{cells: append([]int(nil), pg.cells...)}
		m.pages[p] = pg
		m.owned[p] = true
	}
	pg.cells[(u-p*PageUsers)*m.items+i] = h
	m.gen++
	m.mu.Unlock()
}

// Generation returns a counter bumped by every SetAnswer — the unit of
// the serving engines' staleness bound and the key their durable records
// carry (equal generations on the same Matrix imply identical responses);
// a Clone starts from its parent's generation.
func (m *Matrix) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Answer returns the option user u chose for item i, or Unanswered.
func (m *Matrix) Answer(u, i int) int { return m.Row(u)[i] }

// Row returns the choices of user u, one per item (Unanswered for none),
// as a read-only view: callers must not modify it, and it reflects later
// SetAnswer calls on m only until m copies the page on write. Reading a
// whole row through it avoids one page lookup per Answer.
func (m *Matrix) Row(u int) []int {
	p := u / PageUsers
	lo := (u - p*PageUsers) * m.items
	return m.pages[p].cells[lo : lo+m.items : lo+m.items]
}

// AnswerCount returns the number of items user u answered.
func (m *Matrix) AnswerCount(u int) int {
	c := 0
	for _, h := range m.Row(u) {
		c += answered(h)
	}
	return c
}

// answered is 1 for an answer and 0 for Unanswered, without a branch:
// rows mix the two at random, so a branch would mispredict often.
func answered(h int) int { return 1 + h>>63 }

// Clone returns a copy of m that shares every page with it, in O(pages):
// both matrices give up ownership of the shared pages, so whichever writes
// a page first copies it, and neither ever sees the other's writes. Page
// patterns travel with their pages, and the clone starts at m's
// generation.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{users: m.users, items: m.items, options: m.options, offsets: m.offsets}
	m.mu.Lock()
	out.pages = append([]*page(nil), m.pages...)
	out.owned = make([]bool, len(m.pages))
	clear(m.owned)
	out.gen = m.gen
	m.mu.Unlock()
	return out
}

// Patterns appends to dst the one-hot pattern of each page in row order:
// page p's pattern is rows [p·PageUsers, p·PageUsers+rows) of the
// (m × Σkᵢ) one-hot matrix C, over all Σkᵢ columns. Patterns dropped by a
// write are rebuilt in O(page) and published on their page; on an
// unchanged matrix the call only reads them. Callers must treat the
// patterns as read-only.
func (m *Matrix) Patterns(dst []*mat.CSR) []*mat.CSR {
	for p, pg := range m.pages {
		c := pg.pattern.Load()
		if c == nil {
			lo := p * PageUsers
			c = m.encode(lo, lo+len(pg.cells)/m.items)
			if !pg.pattern.CompareAndSwap(nil, c) {
				c = pg.pattern.Load()
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// Binary returns the (m × Σkᵢ) one-hot CSR response matrix C of the paper,
// freshly assembled from the choices in O(nnz) on each call. The solvers
// read the per-page Patterns instead; Binary serves the methods that need
// C whole.
func (m *Matrix) Binary() *mat.CSR { return m.encode(0, m.users) }

// encode builds the one-hot pattern of users [lo, hi): two passes over the
// rows, the first sizing the column list exactly. The second writes every
// cell's column and advances past it only for an answer, so it too runs
// without a branch per cell.
func (m *Matrix) encode(lo, hi int) *mat.CSR {
	nnz := 0
	for u := lo; u < hi; u++ {
		nnz += m.AnswerCount(u)
	}
	rowPtr := make([]int, hi-lo+1)
	colIdx := make([]int, nnz+1) // one spare slot for a trailing unanswered write
	n := 0
	for u := lo; u < hi; u++ {
		row := m.Row(u)
		offsets := m.offsets[:len(row)]
		for i, h := range row {
			colIdx[n] = offsets[i] + h
			n += answered(h)
		}
		rowPtr[u-lo+1] = n
	}
	return mat.NewPattern(hi-lo, m.TotalOptions(), rowPtr, colIdx[:nnz:nnz])
}

// Normalized returns the one-hot CSR encoding C together with freshly
// built row- and column-normalized forms C_row and C_col. No solve calls
// it: the spectral methods apply both normalizations as scale vectors
// inside their kernels (see core.NewUpdate). Each call assembles all three
// in O(nnz).
func (m *Matrix) Normalized() (c, crow, ccol *mat.CSR) {
	c = m.Binary()
	return c, c.RowNormalized(), c.ColNormalized()
}

// PermuteUsers returns a new matrix whose user u is m's user perm[u], one
// generation past m's.
func (m *Matrix) PermuteUsers(perm []int) *Matrix {
	if len(perm) != m.users {
		panic("response: PermuteUsers length mismatch")
	}
	out := New(m.users, m.items, m.options...)
	for u, src := range perm {
		copy(out.Row(u), m.Row(src)) // out is fresh and owns every page
	}
	out.gen = m.Generation() + 1
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
