package response

import (
	"math/rand"
	"testing"

	"hitsndiffs/internal/mat"
)

// scratchNormalized derives C_row/C_col from scratch on an independent copy
// whose memos have never been populated.
func scratchNormalized(m *Matrix) (crow, ccol *mat.CSR) {
	c := scratchBinary(m)
	return c.RowNormalized(), c.ColNormalized()
}

// TestNormalizedMemoBitwiseIdentical drives random write bursts through the
// normalized memo and asserts every spliced refresh is bitwise identical to
// from-scratch normalization — answers changed, added and retracted.
func TestNormalizedMemoBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := randomMatrix(rng, 50, 30, 4, 0.7)
	m.Normalized() // populate the memo

	for round := 0; round < 20; round++ {
		writes := 1 + rng.Intn(5)
		for w := 0; w < writes; w++ {
			u, i := rng.Intn(m.Users()), rng.Intn(m.Items())
			if rng.Float64() < 0.2 {
				m.SetAnswer(u, i, Unanswered)
			} else {
				m.SetAnswer(u, i, rng.Intn(4))
			}
		}
		c, crow, ccol := m.Normalized()
		if c != m.Binary() {
			t.Fatalf("round %d: Normalized returned a stale encoding", round)
		}
		wantRow, wantCol := scratchNormalized(m)
		if !csrBitwiseEqual(crow, wantRow) {
			t.Fatalf("round %d: spliced C_row differs from scratch", round)
		}
		if !csrBitwiseEqual(ccol, wantCol) {
			t.Fatalf("round %d: spliced C_col differs from scratch", round)
		}
	}
	full, delta := m.NormRebuilds()
	if full != 1 {
		t.Fatalf("expected exactly 1 full normalization, got %d", full)
	}
	if delta != 20 {
		t.Fatalf("expected 20 spliced normalizations, got %d", delta)
	}
}

// TestNormalizedMemoHit asserts an unchanged matrix returns the identical
// pointers without any rebuild — the warm re-rank fast path.
func TestNormalizedMemoHit(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := randomMatrix(rng, 20, 10, 3, 0.8)
	c1, r1, l1 := m.Normalized()
	c2, r2, l2 := m.Normalized()
	if c1 != c2 || r1 != r2 || l1 != l2 {
		t.Fatal("unchanged matrix should serve the memoized pointers")
	}
	if full, delta := m.NormRebuilds(); full != 1 || delta != 0 {
		t.Fatalf("memo hit should not rebuild (full=%d delta=%d)", full, delta)
	}
}

// TestNormalizedRowAndColumnEmptying covers the deleted-answer edge cases:
// a user retracting every answer (row empties) and an option losing its
// last taker (column empties).
func TestNormalizedRowAndColumnEmptying(t *testing.T) {
	m := New(3, 2, 3)
	m.SetAnswer(0, 0, 1)
	m.SetAnswer(0, 1, 2)
	m.SetAnswer(1, 0, 1)
	m.SetAnswer(2, 1, 0)
	m.Normalized()

	m.SetAnswer(0, 0, Unanswered) // user 0 halfway gone
	m.SetAnswer(0, 1, Unanswered) // row 0 now empty; item 1 option 2 column empty
	_, crow, ccol := m.Normalized()
	wantRow, wantCol := scratchNormalized(m)
	if !csrBitwiseEqual(crow, wantRow) || !csrBitwiseEqual(ccol, wantCol) {
		t.Fatal("row/column-emptying splice differs from scratch")
	}

	// Refill the emptied row and column.
	m.SetAnswer(0, 1, 2)
	_, crow, ccol = m.Normalized()
	wantRow, wantCol = scratchNormalized(m)
	if !csrBitwiseEqual(crow, wantRow) || !csrBitwiseEqual(ccol, wantCol) {
		t.Fatal("refill splice differs from scratch")
	}
	if full, delta := m.NormRebuilds(); full != 1 || delta != 2 {
		t.Fatalf("expected 1 full + 2 delta normalizations, got %d + %d", full, delta)
	}
}

// TestNormalizedMemoUnderOutstandingSnapshot is the copy-on-write contract
// for the normalized forms: a clone's spliced refresh must leave the
// snapshot's memo untouched, pointer and bits.
func TestNormalizedMemoUnderOutstandingSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	snapshot := randomMatrix(rng, 40, 25, 3, 0.8)
	_, crowBefore, ccolBefore := snapshot.Normalized()
	crowCopy, ccolCopy := crowBefore.Clone(), ccolBefore.Clone()

	clone := snapshot.Clone()
	clone.SetAnswer(3, 5, 2)
	clone.SetAnswer(17, 0, Unanswered)

	_, crow, ccol := clone.Normalized()
	wantRow, wantCol := scratchNormalized(clone)
	if !csrBitwiseEqual(crow, wantRow) || !csrBitwiseEqual(ccol, wantCol) {
		t.Fatal("clone's spliced normalization differs from scratch")
	}
	if full, delta := clone.NormRebuilds(); full != 1 || delta != 1 {
		t.Fatalf("clone should have paid a spliced refresh (full=%d delta=%d)", full, delta)
	}

	_, crowAfter, ccolAfter := snapshot.Normalized()
	if crowAfter != crowBefore || ccolAfter != ccolBefore {
		t.Fatal("snapshot's memoized normalized forms were replaced")
	}
	if !csrBitwiseEqual(crowBefore, crowCopy) || !csrBitwiseEqual(ccolBefore, ccolCopy) {
		t.Fatal("snapshot's memoized normalized forms were mutated in place")
	}
}

// TestNormalizedCloneCarriesPendingDirtyRows clones between a write and the
// refresh: the pending normalization delta must travel with the clone, on
// both sides.
func TestNormalizedCloneCarriesPendingDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := randomMatrix(rng, 20, 10, 3, 0.9)
	m.Normalized()
	m.SetAnswer(4, 4, 1) // dirty, not yet refreshed
	clone := m.Clone()
	for name, mm := range map[string]*Matrix{"clone": clone, "parent": m} {
		_, crow, ccol := mm.Normalized()
		wantRow, wantCol := scratchNormalized(mm)
		if !csrBitwiseEqual(crow, wantRow) || !csrBitwiseEqual(ccol, wantCol) {
			t.Fatalf("%s lost the pending normalization delta", name)
		}
	}
}

// TestNormalizedAfterInterleavedBinary covers the lagging-dirty-set case:
// Binary() may splice the one-hot CSR several times between Normalized()
// calls, so the normalization delta spans multiple encoding generations.
func TestNormalizedAfterInterleavedBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	m := randomMatrix(rng, 30, 15, 3, 0.8)
	m.Normalized()
	for i := 0; i < 4; i++ {
		m.SetAnswer(rng.Intn(30), rng.Intn(15), rng.Intn(3))
		m.Binary() // splice the encoding without refreshing the memo
	}
	_, crow, ccol := m.Normalized()
	wantRow, wantCol := scratchNormalized(m)
	if !csrBitwiseEqual(crow, wantRow) || !csrBitwiseEqual(ccol, wantCol) {
		t.Fatal("multi-generation splice differs from scratch")
	}
	if full, delta := m.NormRebuilds(); full != 1 || delta != 1 {
		t.Fatalf("four writes should collapse into one spliced refresh (full=%d delta=%d)", full, delta)
	}
}

// TestNormalizedPermuteUsersDropsMemo guards the one transform that rewrites
// rows behind the memos' backs.
func TestNormalizedPermuteUsersDropsMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	m := randomMatrix(rng, 10, 6, 3, 0.9)
	m.Normalized()
	p := m.PermuteUsers(rng.Perm(10))
	_, crow, ccol := p.Normalized()
	wantRow, wantCol := scratchNormalized(p)
	if !csrBitwiseEqual(crow, wantRow) || !csrBitwiseEqual(ccol, wantCol) {
		t.Fatal("PermuteUsers served a stale normalized memo")
	}
}
