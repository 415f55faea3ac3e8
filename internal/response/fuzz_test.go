package response

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzMemoInvariants drives an arbitrary byte-coded sequence of writes,
// retractions, clones, clone writes and solve-input reads through one
// matrix and its latest clone, and asserts the invariants of paged
// copy-on-write storage: the generation counter bumps exactly once per
// SetAnswer on each side; a clone's writes never reach its parent's cells
// and the parent's writes never reach the clone's; and the solve input
// (the page patterns, and Binary) is always bitwise a from-scratch
// encoding. The first byte picks the user count from {1, 63, 64, 65, 131},
// so sequences straddle page boundaries; each op is then a pair of bytes
// (kind and item and option, user).
func FuzzMemoInvariants(f *testing.F) {
	// 131 users: write page 0, fork, write the shared page 0 on the parent
	// and page 1 on the clone, read the solve input.
	f.Add([]byte{0x04, 0x00, 0x05, 0x02, 0x00, 0x28, 0x06, 0x03, 0x46, 0x04, 0x00})
	f.Add([]byte("write-clone-write"))
	// 65 users: fork, then both sides write the one-user last page.
	f.Add([]byte{0x03, 0x02, 0x00, 0x03, 0x40, 0x28, 0x40, 0x04, 0x00, 0x01, 0x3f, 0x04, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const items, k = 5, 3
		users := []int{1, 63, 64, 65, 131}[0]
		if len(ops) > 0 {
			users = []int{1, 63, 64, 65, 131}[int(ops[0])%5]
			ops = ops[1:]
		}
		if len(ops) > 128 {
			ops = ops[:128]
		}
		m := New(users, items, k)
		want := dense(m)
		var clone *Matrix
		var wantClone [][]int
		gen, cloneGen := m.Generation(), uint64(0)
		for pc := 0; pc+1 < len(ops); pc += 2 {
			op := ops[pc]
			u, i, h := int(ops[pc+1])%users, int(op>>3)%items, int(op>>5)%k
			switch op % 5 {
			case 0: // answer
				m.SetAnswer(u, i, h)
				want[u][i] = h
				gen++
			case 1: // retract
				m.SetAnswer(u, i, Unanswered)
				want[u][i] = Unanswered
				gen++
			case 2: // copy-on-write fork
				clone, wantClone, cloneGen = m.Clone(), dense(m), gen
				if clone.Generation() != gen {
					t.Fatalf("op %d: clone generation %d, want inherited %d", pc, clone.Generation(), gen)
				}
			case 3: // write the clone, in a page it may share with m
				if clone != nil {
					clone.SetAnswer(u, i, h)
					wantClone[u][i] = h
					cloneGen++
				}
			case 4: // read the solve input mid-sequence
				if !solveInputMatchesScratch(m) {
					t.Fatalf("op %d: solve input differs from scratch encoding", pc)
				}
				if clone != nil && !solveInputMatchesScratch(clone) {
					t.Fatalf("op %d: clone solve input differs from scratch encoding", pc)
				}
			}
			if g := m.Generation(); g != gen {
				t.Fatalf("op %d: generation %d, want %d", pc, g, gen)
			}
			if !sameCells(m, want) {
				t.Fatalf("op %d: parent cells moved by a clone write", pc)
			}
			if clone != nil {
				if g := clone.Generation(); g != cloneGen {
					t.Fatalf("op %d: clone generation %d, want %d", pc, g, cloneGen)
				}
				if !sameCells(clone, wantClone) {
					t.Fatalf("op %d: clone cells moved by a parent write", pc)
				}
			}
		}
		if !solveInputMatchesScratch(m) {
			t.Fatal("solve input stale at end of sequence")
		}
		first, again := m.Patterns(nil), m.Patterns(nil)
		for p := range first {
			if first[p] != again[p] {
				t.Fatalf("unchanged matrix rebuilt page %d's pattern", p)
			}
		}
	})
}

// dense copies m's choices into a users×items table.
func dense(m *Matrix) [][]int {
	out := make([][]int, m.Users())
	for u := range out {
		out[u] = append([]int(nil), m.Row(u)...)
	}
	return out
}

// sameCells reports whether m's choices equal the table want.
func sameCells(m *Matrix, want [][]int) bool {
	for u, row := range want {
		for i, h := range row {
			if m.Answer(u, i) != h {
				return false
			}
		}
	}
	return true
}

// FuzzReadCSV asserts that arbitrary input never panics the parser and that
// anything it accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("3,3\n0,1\n2,0\n")
	f.Add("2\n\n")
	f.Add("2,2\n0,\n,1\n")
	f.Add("1,1,1\n0,0,0\n")
	f.Add("x\n0\n")
	f.Add("3,3\n-1,5\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted matrix failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Users() != m.Users() || back.Items() != m.Items() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				back.Users(), back.Items(), m.Users(), m.Items())
		}
		for u := 0; u < m.Users(); u++ {
			for i := 0; i < m.Items(); i++ {
				if back.Answer(u, i) != m.Answer(u, i) {
					t.Fatal("round trip changed answers")
				}
			}
		}
	})
}
