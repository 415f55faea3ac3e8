package response

import (
	"bytes"
	"strings"
	"testing"
)

// paperExample builds the running example of the paper's Figure 1b:
// 4 users, 3 items, 3 options each; option 0 is "A" (best), 2 is "C".
func paperExample() *Matrix {
	m := New(4, 3, 3)
	answers := [][]int{
		{0, 0, 0}, // u1: A A A
		{0, 0, 2}, // u2: A A C
		{0, 1, 2}, // u3: A B C
		{1, 2, 2}, // u4: B C C
	}
	for u, row := range answers {
		for i, h := range row {
			m.SetAnswer(u, i, h)
		}
	}
	return m
}

func TestNewSingleOptionCount(t *testing.T) {
	m := New(2, 3, 4)
	if m.Users() != 2 || m.Items() != 3 || m.TotalOptions() != 12 {
		t.Fatalf("shape %d users %d items %d cols", m.Users(), m.Items(), m.TotalOptions())
	}
	if m.MaxOptions() != 4 {
		t.Fatalf("MaxOptions = %d", m.MaxOptions())
	}
}

func TestNewPerItemOptions(t *testing.T) {
	m := New(2, 3, 2, 3, 4)
	if m.TotalOptions() != 9 {
		t.Fatalf("TotalOptions = %d", m.TotalOptions())
	}
	if m.Column(1, 0) != 2 || m.Column(2, 3) != 8 {
		t.Fatal("Column offsets wrong")
	}
}

func TestNewPanicsOnBadCounts(t *testing.T) {
	for _, tc := range []func(){
		func() { New(0, 1, 2) },
		func() { New(1, 2, 2, 2, 2) },
		func() { New(1, 1, 0) },
		func() { New(1, 1) },
		func() { New(1<<62, 4, 2) },          // users×items wraps to 0
		func() { New(1<<31, 4, 2) },          // 2^33 cells
		func() { New(4, 1, 1<<40) },          // 2^40 option columns
		func() { New(4, 2, 1<<31, 1<<31+1) }, // Σkᵢ past 2^32
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc()
		}()
	}
}

func TestSetAnswerAndAnswer(t *testing.T) {
	m := New(2, 2, 3)
	if m.Answer(0, 0) != Unanswered {
		t.Fatal("fresh matrix should be unanswered")
	}
	m.SetAnswer(0, 0, 2)
	if m.Answer(0, 0) != 2 {
		t.Fatal("Answer after SetAnswer")
	}
	m.SetAnswer(0, 0, Unanswered)
	if m.Answer(0, 0) != Unanswered {
		t.Fatal("clearing answer failed")
	}
}

func TestSetAnswerOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1, 2).SetAnswer(0, 0, 2)
}

func TestBinaryMatchesPaperFigure1(t *testing.T) {
	m := paperExample()
	c := m.Binary()
	if c.Rows() != 4 || c.Cols() != 9 {
		t.Fatalf("C is %dx%d", c.Rows(), c.Cols())
	}
	// Figure 1b, rows of C (users 1..4, columns 1A 1B 1C 2A 2B 2C 3A 3B 3C):
	want := [][]float64{
		{1, 0, 0, 1, 0, 0, 1, 0, 0},
		{1, 0, 0, 1, 0, 0, 0, 0, 1},
		{1, 0, 0, 0, 1, 0, 0, 0, 1},
		{0, 1, 0, 0, 0, 1, 0, 0, 1},
	}
	for u := range want {
		for j := range want[u] {
			if c.At(u, j) != want[u][j] {
				t.Fatalf("C(%d,%d) = %v, want %v", u, j, c.At(u, j), want[u][j])
			}
		}
	}
	if c.NNZ() != 12 {
		t.Fatalf("NNZ = %d, want m·n = 12", c.NNZ())
	}
}

func TestAnswerCount(t *testing.T) {
	m := New(2, 3, 2)
	m.SetAnswer(0, 0, 0)
	m.SetAnswer(0, 2, 1)
	if m.AnswerCount(0) != 2 || m.AnswerCount(1) != 0 {
		t.Fatal("AnswerCount wrong")
	}
}

func TestFromChoices(t *testing.T) {
	m := FromChoices([][]int{
		{0, 2},
		{1, Unanswered},
	}, 2)
	if m.OptionCount(0) != 2 || m.OptionCount(1) != 3 {
		t.Fatalf("option counts %d %d", m.OptionCount(0), m.OptionCount(1))
	}
	if m.Answer(1, 1) != Unanswered {
		t.Fatal("unanswered lost")
	}
}

func TestPermuteUsers(t *testing.T) {
	m := paperExample()
	p := m.PermuteUsers([]int{3, 2, 1, 0})
	if p.Answer(0, 0) != 1 || p.Answer(3, 0) != 0 {
		t.Fatal("PermuteUsers wrong")
	}
	// Original untouched.
	if m.Answer(0, 0) != 0 {
		t.Fatal("PermuteUsers mutated source")
	}
}

func TestIsConnected(t *testing.T) {
	m := paperExample()
	if !m.IsConnected() {
		t.Fatal("paper example should be connected")
	}
	// Two disjoint groups: users 0,1 answer item 0; users 2,3 answer item 1
	// with non-overlapping options.
	d := New(4, 2, 2)
	d.SetAnswer(0, 0, 0)
	d.SetAnswer(1, 0, 0)
	d.SetAnswer(2, 1, 1)
	d.SetAnswer(3, 1, 1)
	if d.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestIsConnectedIgnoresSilentUsers(t *testing.T) {
	m := New(3, 1, 2)
	m.SetAnswer(0, 0, 0)
	m.SetAnswer(1, 0, 0)
	// User 2 answers nothing; connectivity over active users should hold.
	if !m.IsConnected() {
		t.Fatal("silent users must not break connectivity")
	}
}

func TestOptionCounts(t *testing.T) {
	m := paperExample()
	got := m.OptionCounts(0)
	if got[0] != 3 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("OptionCounts item0 = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := paperExample()
	m.SetAnswer(1, 2, Unanswered) // include a blank cell
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Users() != m.Users() || back.Items() != m.Items() {
		t.Fatal("shape lost in round trip")
	}
	for u := 0; u < m.Users(); u++ {
		for i := 0; i < m.Items(); i++ {
			if back.Answer(u, i) != m.Answer(u, i) {
				t.Fatalf("answer (%d,%d) lost", u, i)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"header only":   "3,3\n",
		"bad header":    "x,3\n0,0\n",
		"bad cell":      "3,3\nz,0\n",
		"out of range":  "3,3\n5,0\n",
		"negative cell": "3,3\n-2,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := paperExample()
	c := m.Clone()
	c.SetAnswer(0, 0, 2)
	if m.Answer(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
}
