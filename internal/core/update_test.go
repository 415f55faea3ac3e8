package core

import (
	"math"
	"math/rand"
	"testing"

	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// TestAppliersMatchNormalizedReference asserts the Workspace appliers,
// DiagCCT and UMatrix, which walk C page by page and scale it inside their
// kernels, are bitwise the reference computed on the whole assembled C and
// its materialized forms C.RowNormalized() and C.ColNormalized() with
// MulVec, MulVecT and MulCSRT — on random matrices of one to three pages
// (user counts not a multiple of the page size), after writes, and after
// retractions that empty a user row and an option column.
func TestAppliersMatchNormalizedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	check := func(t *testing.T, m *response.Matrix) {
		t.Helper()
		u := NewUpdate(m)
		c := m.Binary()
		crow, ccol := c.RowNormalized(), c.ColNormalized()
		users, cols := c.Rows(), c.Cols()
		s := mat.NewVector(users)
		for i := range s {
			if rng.Intn(5) > 0 { // keep zero entries: MulVecT skips them
				s[i] = rng.NormFloat64()
			}
		}
		d := u.DiagCCT()
		assertBits(t, "DiagCCT", d, c.MulVec(mat.NewVector(users), c.ColSums()))
		ws := u.NewWorkspace()
		opt := mat.NewVector(cols)
		got, want := mat.NewVector(users), mat.NewVector(users)

		ws.ApplyU(got, s)
		crow.MulVec(want, ccol.MulVecT(opt, s))
		assertBits(t, "ApplyU", got, want)

		ws.ApplyUT(got, s)
		ccol.MulVec(want, crow.MulVecT(opt, s))
		assertBits(t, "ApplyUT", got, want)

		ws.ApplyL(got, s, d)
		c.MulVec(want, c.MulVecT(opt, s))
		for i := range want {
			want[i] = d[i]*s[i] - want[i]
		}
		assertBits(t, "ApplyL", got, want)

		gotU, wantU := u.UMatrix(c), crow.MulCSRT(ccol)
		for i := 0; i < users; i++ {
			assertBits(t, "UMatrix row", gotU.Row(i), wantU.Row(i))
		}
	}
	for trial, users := range []int{17, 63, 65, 2*response.PageUsers + 1, 150, 3*response.PageUsers - 1} {
		items, k := 3+rng.Intn(12), 2+rng.Intn(3)
		m := randomResponses(rng, users, items, k, 0.4+0.5*rng.Float64())
		check(t, m)
		for w := 0; w < 10; w++ {
			m.SetAnswer(rng.Intn(users), rng.Intn(items), rng.Intn(k))
		}
		check(t, m)
		// Empty user 0's row and every chooser of option 0 of item 0.
		for i := 0; i < items; i++ {
			m.SetAnswer(0, i, response.Unanswered)
		}
		for v := 0; v < users; v++ {
			if m.Answer(v, 0) == 0 {
				m.SetAnswer(v, 0, response.Unanswered)
			}
		}
		if u := NewUpdate(m); u.RowScale[0] != 0 || u.ColScale[0] != 0 {
			t.Fatalf("trial %d: retractions left row 0 or column 0 non-empty", trial)
		}
		check(t, m)
	}
}

func assertBits(t *testing.T, what string, got, want mat.Vector) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}
