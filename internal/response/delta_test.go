package response

import (
	"math"
	"math/rand"
	"testing"

	"hitsndiffs/internal/mat"
)

// csrBitwiseEqual reports exact structural and bit-level value equality.
func csrBitwiseEqual(a, b *mat.CSR) bool {
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
			if ac[i] != bc[i] || math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}

// scratchBinary builds the one-hot encoding of users [lo, hi) from
// triplets through mat.NewCSR — a reference independent of the paged
// encoder.
func scratchBinary(m *Matrix, lo, hi int) *mat.CSR {
	var entries []mat.Coord
	for u := lo; u < hi; u++ {
		for i := 0; i < m.Items(); i++ {
			if h := m.Answer(u, i); h != Unanswered {
				entries = append(entries, mat.Coord{Row: u - lo, Col: m.Column(i, h), Val: 1})
			}
		}
	}
	return mat.NewCSR(hi-lo, m.TotalOptions(), entries)
}

// solveInputMatchesScratch reports whether m's page patterns and its
// assembled Binary() are bitwise the from-scratch encoding.
func solveInputMatchesScratch(m *Matrix) bool {
	if !csrBitwiseEqual(m.Binary(), scratchBinary(m, 0, m.Users())) {
		return false
	}
	pages := m.Patterns(nil)
	if len(pages) != (m.Users()+PageUsers-1)/PageUsers {
		return false
	}
	for p, c := range pages {
		lo := p * PageUsers
		if !csrBitwiseEqual(c, scratchBinary(m, lo, min(lo+PageUsers, m.Users()))) {
			return false
		}
	}
	return true
}

// TestDeltaRebuildBitwiseIdentical drives random write bursts through a
// four-page matrix (the last page partial) and asserts that after each
// burst the solve input is bitwise a from-scratch encoding — answers
// changed, added and retracted — and that only the written pages' patterns
// were rebuilt: every other page serves the identical pattern.
func TestDeltaRebuildBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, 3*PageUsers+8, 30, 4, 0.7)
	before := m.Patterns(nil)

	for round := 0; round < 20; round++ {
		written := map[int]bool{}
		for w := 1 + rng.Intn(3); w > 0; w-- {
			u, i := rng.Intn(m.Users()), rng.Intn(m.Items())
			written[u/PageUsers] = true
			if rng.Float64() < 0.2 {
				m.SetAnswer(u, i, Unanswered) // retraction empties row entries
			} else {
				m.SetAnswer(u, i, rng.Intn(4))
			}
		}
		after := m.Patterns(nil)
		for p := range after {
			if rebuilt := after[p] != before[p]; rebuilt != written[p] {
				t.Fatalf("round %d: page %d rebuilt=%v, written=%v", round, p, rebuilt, written[p])
			}
		}
		if !solveInputMatchesScratch(m) {
			t.Fatalf("round %d: paged encoding differs from scratch encoding", round)
		}
		before = after
	}
}

// TestDeltaRebuildUnderOutstandingSnapshot is the copy-on-write contract:
// a clone of a snapshot (what Engine.Observe does under an outstanding
// View) that is then written must leave the snapshot's choices and
// patterns untouched, share every page it did not write, and encode its
// own writes bitwise as a from-scratch assembly.
func TestDeltaRebuildUnderOutstandingSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	snapshot := randomMatrix(rng, 2*PageUsers+20, 25, 3, 0.8)
	before := snapshot.Patterns(nil)
	beforeCopies := make([]*mat.CSR, len(before))
	for p, c := range before {
		beforeCopies[p] = c.Clone()
	}
	cellsBefore := snapshot.Binary()

	clone := snapshot.Clone()
	clone.SetAnswer(3, 5, 2)           // page 0
	clone.SetAnswer(17, 0, Unanswered) // page 0 again: copied once
	clone.SetAnswer(PageUsers+1, 4, 1) // page 1

	if !solveInputMatchesScratch(clone) {
		t.Fatal("clone's paged encoding differs from scratch encoding")
	}
	got := clone.Patterns(nil)
	if got[0] == before[0] || got[1] == before[1] || got[2] != before[2] {
		t.Fatal("clone must rebuild exactly the two pages it wrote and share the third")
	}

	// The snapshot never observes the clone's writes: same patterns, same
	// bits, same choices.
	for p, c := range snapshot.Patterns(nil) {
		if c != before[p] || !csrBitwiseEqual(c, beforeCopies[p]) {
			t.Fatalf("snapshot's page %d pattern was replaced or mutated", p)
		}
	}
	if !csrBitwiseEqual(snapshot.Binary(), cellsBefore) {
		t.Fatal("snapshot's choices moved")
	}
}

// TestCloneCarriesPendingDirtyRows clones between a write and the pattern
// rebuild: the write must travel with the clone, and the rebuild either
// side publishes must serve both.
func TestCloneCarriesPendingDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 20, 10, 3, 0.9)
	m.Patterns(nil)
	m.SetAnswer(4, 4, 1) // pattern dropped, not yet rebuilt
	clone := m.Clone()
	if !solveInputMatchesScratch(clone) || clone.Answer(4, 4) != 1 {
		t.Fatal("clone lost the pending write")
	}
	if !solveInputMatchesScratch(m) {
		t.Fatal("parent lost the pending write")
	}
}

func TestGenerationCountsWrites(t *testing.T) {
	m := New(4, 3, 2)
	if m.Generation() != 0 {
		t.Fatal("fresh matrix should be at generation 0")
	}
	m.SetAnswer(0, 0, 1)
	m.SetAnswer(1, 2, 0)
	if g := m.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	clone := m.Clone()
	if clone.Generation() != 2 {
		t.Fatal("clone should inherit its parent's generation")
	}
	clone.SetAnswer(0, 0, 0)
	if m.Generation() != 2 || clone.Generation() != 3 {
		t.Fatal("clone writes must not move the parent's generation")
	}
}

// TestPermuteUsersDropsMemo guards the one transform that rewrites every
// row: its output must encode its own rows, not its source's patterns.
func TestPermuteUsersDropsMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomMatrix(rng, PageUsers+10, 6, 3, 0.9)
	m.Patterns(nil)
	perm := rng.Perm(m.Users())
	p := m.PermuteUsers(perm)
	if !solveInputMatchesScratch(p) {
		t.Fatal("PermuteUsers served a stale encoding")
	}
	if p.Generation() != m.Generation()+1 {
		t.Fatalf("PermuteUsers generation %d, want %d", p.Generation(), m.Generation()+1)
	}
}
