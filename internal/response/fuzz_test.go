package response

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzMemoInvariants drives an arbitrary byte-coded sequence of writes,
// retractions, clones and memo reads through one matrix and asserts the
// invariants of the generation-keyed one-hot memo: the generation counter
// bumps exactly once per SetAnswer, the memoized encoding is never stale
// after SetAnswer or Clone (always bitwise identical to a from-scratch
// encoding), and a clone's writes never move its parent's generation or
// memo.
func FuzzMemoInvariants(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x13, 0x7f, 0x20})
	f.Add([]byte("write-clone-write"))
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x91, 0x55})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const users, items, k = 7, 5, 3
		m := New(users, items, k)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		gen := m.Generation()
		for pc, op := range ops {
			u, i := int(op>>4)%users, int(op>>2)%items
			switch op % 4 {
			case 0: // answer
				m.SetAnswer(u, i, int(op)%k)
				gen++
			case 1: // retract
				m.SetAnswer(u, i, Unanswered)
				gen++
			case 2: // materialize the memo mid-sequence
				if got, want := m.Binary(), scratchBinary(m); !csrBitwiseEqual(got, want) {
					t.Fatalf("op %d: memoized encoding stale", pc)
				}
			case 3: // copy-on-write fork: clone writes must not leak back
				clone := m.Clone()
				if clone.Generation() != gen {
					t.Fatalf("op %d: clone generation %d, want inherited %d", pc, clone.Generation(), gen)
				}
				clone.SetAnswer(u, i, int(op)%k)
				if got, want := clone.Binary(), scratchBinary(clone); !csrBitwiseEqual(got, want) {
					t.Fatalf("op %d: clone memo stale after write", pc)
				}
			}
			if g := m.Generation(); g != gen {
				t.Fatalf("op %d: generation %d, want %d", pc, g, gen)
			}
		}
		got := m.Binary()
		if want := scratchBinary(m); !csrBitwiseEqual(got, want) {
			t.Fatal("memoized encoding stale at end of sequence")
		}
		if m.Binary() != got {
			t.Fatal("unchanged matrix must serve the identical memo pointer")
		}
	})
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
