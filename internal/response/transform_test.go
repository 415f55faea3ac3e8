package response

import (
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, users, items, k int, p float64) *Matrix {
	m := New(users, items, k)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if rng.Float64() < p {
				m.SetAnswer(u, i, rng.Intn(k))
			}
		}
	}
	return m
}

func TestPruneUnchosenOptions(t *testing.T) {
	m := New(3, 2, 4)
	m.SetAnswer(0, 0, 0)
	m.SetAnswer(1, 0, 3)
	m.SetAnswer(2, 1, 1)
	p := m.PruneUnchosenOptions()
	if p.OptionCount(0) != 2 || p.OptionCount(1) != 1 {
		t.Fatalf("pruned counts %d, %d", p.OptionCount(0), p.OptionCount(1))
	}
	// Option 3 of item 0 became option 1.
	if p.Answer(1, 0) != 1 {
		t.Fatalf("remapped answer %d", p.Answer(1, 0))
	}
	if p.Answer(0, 0) != 0 {
		t.Fatal("first option should stay 0")
	}
}

func TestPruneKeepsAnswerSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 10, 8, 5, 0.6)
	p := m.PruneUnchosenOptions()
	// Same users answer the same items; co-answer structure preserved.
	for u := 0; u < 10; u++ {
		for i := 0; i < 8; i++ {
			if (m.Answer(u, i) == Unanswered) != (p.Answer(u, i) == Unanswered) {
				t.Fatal("answeredness changed")
			}
		}
	}
	// Every remaining option is chosen at least once.
	for i := 0; i < p.Items(); i++ {
		counts := p.OptionCounts(i)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			continue // fully silent item keeps its dummy option
		}
		for h, c := range counts {
			if c == 0 {
				t.Fatalf("item %d option %d still unchosen", i, h)
			}
		}
	}
}

func TestPadToEqualRowSums(t *testing.T) {
	m := New(3, 3, 2)
	m.SetAnswer(0, 0, 0)
	m.SetAnswer(0, 1, 1)
	m.SetAnswer(0, 2, 0)
	m.SetAnswer(1, 0, 1)
	// user 2 answers nothing.
	p := m.PadToEqualRowSums()
	for u := 0; u < 3; u++ {
		if p.AnswerCount(u) != 3 {
			t.Fatalf("user %d padded count %d", u, p.AnswerCount(u))
		}
	}
	// Original answers intact.
	if p.Answer(0, 1) != 1 || p.Answer(1, 0) != 1 {
		t.Fatal("original answers lost")
	}
	// Dummy items have exactly one respondent each.
	for i := m.Items(); i < p.Items(); i++ {
		counts := p.OptionCounts(i)
		if len(counts) != 1 || counts[0] != 1 {
			t.Fatalf("dummy item %d counts %v", i, counts)
		}
	}
}

func TestPadNoOpWhenEqual(t *testing.T) {
	m := New(2, 2, 2)
	for u := 0; u < 2; u++ {
		for i := 0; i < 2; i++ {
			m.SetAnswer(u, i, 0)
		}
	}
	p := m.PadToEqualRowSums()
	if p.Items() != 2 {
		t.Fatalf("no-op pad added items: %d", p.Items())
	}
}

func TestComponents(t *testing.T) {
	m := New(5, 2, 2)
	// Users 0,1 share item 0 option 0; users 2,3 share item 1 option 1;
	// user 4 silent.
	m.SetAnswer(0, 0, 0)
	m.SetAnswer(1, 0, 0)
	m.SetAnswer(2, 1, 1)
	m.SetAnswer(3, 1, 1)
	comps := m.Components()
	if len(comps) != 3 {
		t.Fatalf("components %v", comps)
	}
	if comps[0][0] != 0 || comps[0][1] != 1 || comps[1][0] != 2 || comps[1][1] != 3 {
		t.Fatalf("component grouping %v", comps)
	}
	if len(comps[2]) != 1 || comps[2][0] != 4 {
		t.Fatalf("silent user component %v", comps[2])
	}
}

func TestComponentsSingleWhenConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 20, 10, 3, 1)
	comps := m.Components()
	// Fully answered matrices are almost surely connected via shared
	// options; verify consistency with IsConnected.
	if (len(comps) == 1) != m.IsConnected() {
		t.Fatalf("Components (%d) disagrees with IsConnected (%v)", len(comps), m.IsConnected())
	}
}

func TestSubset(t *testing.T) {
	m := New(4, 2, 3)
	m.SetAnswer(2, 0, 1)
	m.SetAnswer(3, 1, 2)
	s := m.Subset([]int{3, 2})
	if s.Users() != 2 {
		t.Fatalf("subset users %d", s.Users())
	}
	if s.Answer(0, 1) != 2 || s.Answer(1, 0) != 1 {
		t.Fatal("subset answers wrong")
	}
	if s.Answer(0, 0) != Unanswered || s.Answer(1, 1) != Unanswered {
		t.Fatal("subset answered a cell its source left unanswered")
	}
	// Only the two copied answers count as writes.
	if g := s.Generation(); g != 2 {
		t.Fatalf("subset generation %d, want 2", g)
	}
}

func TestSubsetEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2, 2).Subset(nil)
}
