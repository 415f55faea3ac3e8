package core

import (
	"context"
	"math"
	"testing"

	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/rank"
	"hitsndiffs/internal/response"
)

// paperExample is the running example of Figure 1: 4 users, 3 items, 3
// options, responses consistent with the ability order u1 > u2 > u3 > u4.
func paperExample() *response.Matrix {
	m := response.New(4, 3, 3)
	answers := [][]int{
		{0, 0, 0},
		{0, 0, 2},
		{0, 1, 2},
		{1, 2, 2},
	}
	for u, row := range answers {
		for i, h := range row {
			m.SetAnswer(u, i, h)
		}
	}
	return m
}

// abilityScores gives descending ground-truth scores for the paper example.
func paperAbilities() mat.Vector { return mat.Vector{4, 3, 2, 1} }

func c1pDataset(t *testing.T, users, items, options int, seed int64) *irt.Dataset {
	t.Helper()
	cfg := irt.DefaultConfig(irt.ModelGRM)
	cfg.Users, cfg.Items, cfg.Options, cfg.Seed = users, items, options, seed
	d, err := irt.GenerateC1P(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func allSpectralRankers() []Ranker {
	return []Ranker{
		HNDPower{},
		HNDDirect{},
		HNDDeflation{},
		ABHPower{},
		ABHDirect{},
	}
}

func TestURowStochastic(t *testing.T) {
	// Lemma 3: each row of U sums to 1 (for users with answers).
	m := paperExample()
	um := NewUpdate(m).UMatrix(m.Binary())
	for i := 0; i < um.Rows(); i++ {
		if s := um.Row(i).Sum(); math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d of U sums to %v", i, s)
		}
	}
}

func TestUOnesFixedPoint(t *testing.T) {
	// Lemma 4: e is an eigenvector of U with eigenvalue 1.
	u := NewUpdate(paperExample())
	e := mat.Ones(4)
	out := mat.NewVector(4)
	u.NewWorkspace().ApplyU(out, e)
	if !out.Equal(e, 1e-12) {
		t.Fatalf("U·e = %v", out)
	}
}

func TestUSymmetricAndRMatrixOnPMatrix(t *testing.T) {
	// Lemmas 5 & 6: for a P-matrix with equal row sums, U is a symmetric
	// R-matrix. The paper example is already ability-sorted with equal row
	// sums (3 answers per user).
	m := paperExample()
	um := NewUpdate(m).UMatrix(m.Binary())
	if !um.IsSymmetric(1e-12) {
		t.Fatal("U not symmetric on P-matrix input")
	}
	if !um.IsRMatrix(1e-12) {
		t.Fatal("U not an R-matrix on P-matrix input")
	}
}

func TestUDiffNonNegativeOnPMatrix(t *testing.T) {
	// Lemma 7 (interior step): U_diff = S·U·T is entrywise non-negative for
	// an ability-sorted consistent matrix.
	m := paperExample()
	ud := NewUpdate(m).UDiffMatrix(m.Binary())
	for i := 0; i < ud.Rows(); i++ {
		for j := 0; j < ud.Cols(); j++ {
			if ud.At(i, j) < -1e-12 {
				t.Fatalf("U_diff(%d,%d) = %v < 0", i, j, ud.At(i, j))
			}
		}
	}
}

func TestUDiffMatrixMatchesDefinition(t *testing.T) {
	// U_diff must equal S·U·T computed from first principles.
	d := c1pDataset(t, 9, 6, 3, 3)
	u, c := NewUpdate(d.Responses), d.Responses.Binary()
	um := u.UMatrix(c)
	m := um.Rows()
	want := mat.NewDense(m-1, m-1)
	for r := 0; r < m-1; r++ {
		for j := 0; j < m-1; j++ {
			// (S·U·T)[r][j] = Σ_{c=j+1}^{m-1} (U[r+1][c] − U[r][c])
			var s float64
			for c := j + 1; c < m; c++ {
				s += um.At(r+1, c) - um.At(r, c)
			}
			want.Set(r, j, s)
		}
	}
	ud := u.UDiffMatrix(c)
	for r := 0; r < m-1; r++ {
		for j := 0; j < m-1; j++ {
			if math.Abs(ud.At(r, j)-want.At(r, j)) > 1e-10 {
				t.Fatalf("U_diff(%d,%d) = %v, want %v", r, j, ud.At(r, j), want.At(r, j))
			}
		}
	}
}

func TestUDiffEigenvaluesAreUEigenvaluesMinusOne(t *testing.T) {
	// Lemma 1: spec(U_diff) = spec(U) \ {1}.
	m := paperExample()
	u, c := NewUpdate(m), m.Binary()
	um := u.UMatrix(c)
	ud := u.UDiffMatrix(c)
	// U is symmetric here; its eigenvalues via the dense solver.
	// U_diff is not symmetric; use Hessenberg QR after Arnoldi-free direct
	// reduction: U_diff is small (3×3), QR on it directly via the dense
	// route: embed as Hessenberg by brute force characteristic check.
	// Simplest: compare traces and the fixed point: trace(U_diff) =
	// trace(U) − 1.
	var trU, trD float64
	for i := 0; i < um.Rows(); i++ {
		trU += um.At(i, i)
	}
	for i := 0; i < ud.Rows(); i++ {
		trD += ud.At(i, i)
	}
	if math.Abs(trD-(trU-1)) > 1e-10 {
		t.Fatalf("trace(U_diff) = %v, want trace(U)−1 = %v", trD, trU-1)
	}
}

func TestPaperExampleAllMethodsRecoverOrder(t *testing.T) {
	m := paperExample()
	truth := paperAbilities()
	for _, r := range allSpectralRankers() {
		res, err := r.Rank(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if got := rank.AbsSpearman(res.Scores, truth); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: |ρ| = %v on the paper example, want 1 (scores %v)", r.Name(), got, res.Scores)
		}
	}
}

// isPMatrix reports whether every column of the one-hot encoding of m has
// its ones consecutive.
func isPMatrix(m *response.Matrix) bool {
	c := m.Binary()
	for j := 0; j < c.Cols(); j++ {
		state := 0
		for i := 0; i < c.Rows(); i++ {
			one := c.At(i, j) != 0
			switch {
			case one && state == 0:
				state = 1
			case !one && state == 1:
				state = 2
			case one && state == 2:
				return false
			}
		}
	}
	return true
}

// assertC1PRecovered checks Theorem 2's statement: permuting the users by
// the method's ranking yields a P-matrix, and the ranking matches the
// ability order up to ties between users with identical response rows.
func assertC1PRecovered(t *testing.T, name string, res Result, d *irt.Dataset) {
	t.Helper()
	order := res.Order()
	if !isPMatrix(d.Responses.PermuteUsers(order)) {
		rev := make([]int, len(order))
		for i, u := range order {
			rev[len(order)-1-i] = u
		}
		if !isPMatrix(d.Responses.PermuteUsers(rev)) {
			t.Errorf("%s: ranking does not reconstruct a P-matrix", name)
			return
		}
	}
	// Ties between duplicate response rows cap ρ below 1; compare against
	// the best any row-determined scoring can achieve.
	got := rank.Spearman(res.Scores, d.Abilities)
	best := rank.Spearman(idealRowScores(d), d.Abilities)
	if got < best-0.01 {
		t.Errorf("%s: ρ = %v on C1P data, want ≥ %v (tie-limited optimum)", name, got, best)
	}
}

// idealRowScores assigns every user the mean ability of the users sharing
// its exact response row: the best score any method that sees only the
// responses can produce.
func idealRowScores(d *irt.Dataset) mat.Vector {
	m := d.Responses
	groups := map[string][]int{}
	for u := 0; u < m.Users(); u++ {
		key := ""
		for i := 0; i < m.Items(); i++ {
			key += string(rune('a' + m.Answer(u, i) + 1))
		}
		groups[key] = append(groups[key], u)
	}
	scores := mat.NewVector(m.Users())
	for _, users := range groups {
		var sum float64
		for _, u := range users {
			sum += d.Abilities[u]
		}
		avg := sum / float64(len(users))
		for _, u := range users {
			scores[u] = avg
		}
	}
	return scores
}

func TestC1PRecoveryTheorem(t *testing.T) {
	// Theorem 2: on consistent responses every HND variant (and ABH)
	// recovers the consistent ordering, including orientation thanks to
	// the skewed ability distribution.
	d := c1pDataset(t, 50, 40, 3, 7)
	for _, r := range allSpectralRankers() {
		res, err := r.Rank(context.Background(), d.Responses)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		assertC1PRecovered(t, r.Name(), res, d)
	}
}

func TestC1PRecoveryAcrossShapes(t *testing.T) {
	for _, tc := range []struct {
		users, items, options int
		seed                  int64
	}{
		// Item counts are kept high relative to users so the C1P ordering
		// is (near-)unique, the premise of Theorem 2.
		{25, 40, 3, 1},
		{30, 40, 4, 2},
		{80, 60, 5, 3},
		{15, 60, 3, 4},
	} {
		d := c1pDataset(t, tc.users, tc.items, tc.options, tc.seed)
		h := HNDPower{}
		res, err := h.Rank(context.Background(), d.Responses)
		if err != nil {
			t.Fatal(err)
		}
		assertC1PRecovered(t, "HnD-power", res, d)
	}
}

func TestHNDVariantsAgreeOnNoisyData(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 60, 80, 13
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := HNDPower{}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Ranker{HNDDirect{}, HNDDeflation{}} {
		res, err := r.Rank(context.Background(), d.Responses)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if got := rank.AbsSpearman(res.Scores, base.Scores); got < 0.98 {
			t.Errorf("%s disagrees with HnD-power: |ρ| = %v", r.Name(), got)
		}
	}
}

func TestABHVariantsAgree(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 50, 60, 17
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ABHPower{}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := ABHDirect{}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	if got := rank.AbsSpearman(p.Scores, dr.Scores); got < 0.95 {
		t.Errorf("ABH power vs direct |ρ| = %v", got)
	}
}

func TestHNDBeatsNothingOnConstantResponses(t *testing.T) {
	// All users answer identically: no ranking signal; must not crash and
	// should return converged with tied scores.
	m := response.New(5, 4, 3)
	for u := 0; u < 5; u++ {
		for i := 0; i < 4; i++ {
			m.SetAnswer(u, i, 1)
		}
	}
	res, err := HNDPower{}.Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence on degenerate input")
	}
}

func TestTwoUserInput(t *testing.T) {
	m := response.New(2, 3, 2)
	// User 0 always picks option 0 (majority-of-one is ambiguous, but the
	// method must return scores without error).
	for i := 0; i < 3; i++ {
		m.SetAnswer(0, i, 0)
		m.SetAnswer(1, i, 1)
	}
	for _, r := range []Ranker{HNDPower{}, ABHPower{}} {
		if _, err := r.Rank(context.Background(), m); err != nil {
			t.Fatalf("%s on 2 users: %v", r.Name(), err)
		}
	}
}

func TestValidateInputRejectsDegenerate(t *testing.T) {
	m := response.New(3, 2, 2) // nobody answered anything
	if _, err := (HNDPower{}).Rank(context.Background(), m); err == nil {
		t.Fatal("expected error for empty responses")
	}
}

func TestOrientByDecileEntropy(t *testing.T) {
	// Build data where good users agree (low entropy) and bad users spread
	// uniformly (high entropy).
	d := c1pDataset(t, 40, 30, 3, 21)
	m := d.Responses
	// Scores aligned with ability: should NOT flip.
	aligned, flipped := OrientByDecileEntropy(d.Abilities.Clone(), m)
	if flipped {
		t.Fatal("aligned scores were flipped")
	}
	if got := rank.Spearman(aligned, d.Abilities); got < 0.99 {
		t.Fatalf("aligned orientation ρ = %v", got)
	}
	// Reversed scores: should flip back.
	rev := d.Abilities.Clone().Scale(-1)
	fixed, flipped := OrientByDecileEntropy(rev, m)
	if !flipped {
		t.Fatal("reversed scores were not flipped")
	}
	if got := rank.Spearman(fixed, d.Abilities); got < 0.99 {
		t.Fatalf("fixed orientation ρ = %v", got)
	}
}

func TestSkipOrientationKeepsRawSign(t *testing.T) {
	d := c1pDataset(t, 30, 20, 3, 23)
	res, err := HNDPower{Opts: Options{SkipOrientation: true}}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flipped {
		t.Fatal("orientation metadata set despite SkipOrientation")
	}
	best := rank.Spearman(idealRowScores(d), d.Abilities)
	if got := rank.AbsSpearman(res.Scores, d.Abilities); got < best-0.01 {
		t.Fatalf("raw |ρ| = %v, tie-limited optimum %v", got, best)
	}
}

func TestAvgHITSConvergesToConstant(t *testing.T) {
	d := c1pDataset(t, 20, 15, 3, 29)
	res, err := AvgHITS{}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	// All scores equal up to tolerance: variance of normalized vector ~ 0.
	if v := res.Scores.Variance(); v > 1e-6 {
		t.Fatalf("AvgHITS scores variance %v, want ~0 (Lemma 4)", v)
	}
}

func TestABHPowerBetaOverride(t *testing.T) {
	d := c1pDataset(t, 25, 20, 3, 31)
	auto, err := ABHPower{}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ABHPower{Beta: 500}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	if got := rank.AbsSpearman(auto.Scores, big.Scores); got < 0.95 {
		t.Fatalf("β override changed the ranking: |ρ| = %v", got)
	}
	// Figure 14a: larger β needs more iterations.
	if big.Iterations <= auto.Iterations {
		t.Fatalf("β=500 iterations %d not larger than auto %d", big.Iterations, auto.Iterations)
	}
}

func TestDiagCCTMatchesDense(t *testing.T) {
	d := c1pDataset(t, 12, 10, 3, 37)
	got := NewUpdate(d.Responses).DiagCCT()
	c := d.Responses.Binary()
	cct := c.MulCSRT(c)
	for i := 0; i < cct.Rows(); i++ {
		if math.Abs(got[i]-cct.Row(i).Sum()) > 1e-10 {
			t.Fatalf("D[%d] = %v, want %v", i, got[i], cct.Row(i).Sum())
		}
	}
}

func TestApplyLMatchesDenseLaplacian(t *testing.T) {
	d := c1pDataset(t, 12, 10, 3, 41)
	u := NewUpdate(d.Responses)
	l := d.Responses.Binary().Laplacian()
	diag := u.DiagCCT()
	x := mat.NewVector(12)
	for i := range x {
		x[i] = float64(i) - 5.5
	}
	want := mat.NewVector(12)
	l.MulVec(want, x)
	got := mat.NewVector(12)
	u.NewWorkspace().ApplyL(got, x, diag)
	if !got.Equal(want, 1e-9) {
		t.Fatalf("ApplyL = %v, want %v", got, want)
	}
}

func TestMissingAnswersStillRankable(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.AnswerProb, cfg.Seed = 80, 100, 0.7, 43
	cfg.DiscriminationMax = 50 // strong signal so ranking is discernible
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HNDPower{}.Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	if got := rank.Spearman(res.Scores, d.Abilities); got < 0.8 {
		t.Fatalf("incomplete-data ρ = %v, want > 0.8", got)
	}
}

func TestResultOrder(t *testing.T) {
	r := Result{Scores: mat.Vector{0.1, 0.9, 0.5}}
	order := r.Order()
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("Order = %v", order)
	}
}

func TestRankerNames(t *testing.T) {
	want := map[string]Ranker{
		"HnD-power":     HNDPower{},
		"HnD-direct":    HNDDirect{},
		"HnD-deflation": HNDDeflation{},
		"ABH-power":     ABHPower{},
		"ABH-direct":    ABHDirect{},
		"AvgHITS":       AvgHITS{},
	}
	for name, r := range want {
		if r.Name() != name {
			t.Errorf("Name() = %q, want %q", r.Name(), name)
		}
	}
}

func TestABHLanczosMatchesDirect(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 60, 80, 83
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := (ABHDirect{}).Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	lan, err := (ABHLanczos{}).Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	if got := rank.AbsSpearman(direct.Scores, lan.Scores); got < 0.95 {
		t.Fatalf("ABH-lanczos vs ABH-direct |ρ| = %v", got)
	}
}

func TestABHLanczosRecoversC1P(t *testing.T) {
	d := c1pDataset(t, 40, 50, 3, 89)
	res, err := (ABHLanczos{}).Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	assertC1PRecovered(t, "ABH-lanczos", res, d)
}

func TestDiffEigenvectorsNonNegativeOnC1P(t *testing.T) {
	// On consistent data the converged difference vectors should be
	// (entrywise) single-signed: the monotone eigenvector of Theorem 1.
	d := c1pDataset(t, 40, 50, 3, 97)
	sorted := d.Responses.PermuteUsers(d.Abilities.ArgSort())
	hd, iters, err := DiffEigenvector(context.Background(), sorted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatal("no iterations recorded")
	}
	pos, neg := 0, 0
	for _, v := range hd {
		if v > 1e-9 {
			pos++
		}
		if v < -1e-9 {
			neg++
		}
	}
	if pos > 0 && neg > 0 {
		t.Fatalf("HND diff vector mixes signs on sorted C1P data: %d+/%d-", pos, neg)
	}
	ad, _, err := ABHDiffEigenvector(context.Background(), sorted, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg = 0, 0
	for _, v := range ad {
		if v > 1e-6 {
			pos++
		}
		if v < -1e-6 {
			neg++
		}
	}
	if pos > 0 && neg > 0 {
		t.Fatalf("ABH diff vector mixes signs on sorted C1P data: %d+/%d-", pos, neg)
	}
}

func TestDiffEigenvectorTinyInputs(t *testing.T) {
	m := response.New(2, 2, 2)
	m.SetAnswer(0, 0, 0)
	m.SetAnswer(1, 0, 0)
	if _, _, err := DiffEigenvector(context.Background(), m, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ABHDiffEigenvector(context.Background(), m, Options{}, 0); err != nil {
		t.Fatal(err)
	}
	if (ABHLanczos{}).Name() != "ABH-lanczos" {
		t.Fatal("ABH-lanczos name wrong")
	}
}
