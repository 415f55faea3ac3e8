package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/rank"
	"hitsndiffs/internal/response"
)

// randomResponses builds a random connected-ish response matrix.
func randomResponses(rng *rand.Rand, users, items, k int, p float64) *response.Matrix {
	m := response.New(users, items, k)
	for u := 0; u < users; u++ {
		answered := false
		for i := 0; i < items; i++ {
			if rng.Float64() < p {
				m.SetAnswer(u, i, rng.Intn(k))
				answered = true
			}
		}
		if !answered {
			m.SetAnswer(u, rng.Intn(items), rng.Intn(k))
		}
	}
	return m
}

// Property (Lemma 3): U is row-stochastic for ANY response matrix where
// every user answered something.
func TestPropertyURowStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		users := 3 + rng.Intn(20)
		items := 2 + rng.Intn(15)
		k := 2 + rng.Intn(4)
		m := randomResponses(rng, users, items, k, 0.3+0.7*rng.Float64())
		um := NewUpdate(m).UMatrix(m.Binary())
		for i := 0; i < users; i++ {
			if s := um.Row(i).Sum(); math.Abs(s-1) > 1e-9 {
				t.Fatalf("trial %d: row %d of U sums to %v", trial, i, s)
			}
		}
	}
}

// Property: HND is equivariant under user permutation — permuting the
// users permutes the scores identically (given the same deterministic
// effective behaviour, ranking must be permutation-consistent).
func TestPropertyHNDUserPermutationEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		cfg := irt.DefaultConfig(irt.ModelSamejima)
		cfg.Users, cfg.Items, cfg.Seed = 30, 40, int64(trial)
		cfg.DiscriminationMax = 30
		d, err := irt.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(30)
		permuted := d.Responses.PermuteUsers(perm)

		base, err := (HNDPower{}).Rank(context.Background(), d.Responses)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := (HNDPower{}).Rank(context.Background(), permuted)
		if err != nil {
			t.Fatal(err)
		}
		// permuted user u corresponds to original user perm[u]: the
		// rankings must correlate perfectly after un-permuting.
		unperm := mat.NewVector(30)
		for u, src := range perm {
			unperm[src] = pres.Scores[u]
		}
		if got := rank.AbsSpearman(unperm, base.Scores); got < 0.999 {
			t.Fatalf("trial %d: permutation equivariance broken, |ρ| = %v", trial, got)
		}
	}
}

// Property: HND is invariant under option relabeling within an item — the
// algorithm sees only the one-hot encoding, so swapping two option labels
// (consistently for all users) must not change the ranking.
func TestPropertyHNDOptionRelabelInvariance(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 40, 50, 17
	cfg.DiscriminationMax = 30
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := (HNDPower{Opts: Options{SkipOrientation: true}}).Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	// Swap options 0 and 2 of every even item.
	relabeled := d.Responses.Clone()
	for i := 0; i < relabeled.Items(); i += 2 {
		for u := 0; u < relabeled.Users(); u++ {
			switch relabeled.Answer(u, i) {
			case 0:
				relabeled.SetAnswer(u, i, 2)
			case 2:
				relabeled.SetAnswer(u, i, 0)
			}
		}
	}
	res, err := (HNDPower{Opts: Options{SkipOrientation: true}}).Rank(context.Background(), relabeled)
	if err != nil {
		t.Fatal(err)
	}
	if got := rank.AbsSpearman(res.Scores, base.Scores); got < 0.999 {
		t.Fatalf("option relabeling changed the ranking: |ρ| = %v", got)
	}
}

// Property: scores of users with identical response rows tie exactly.
func TestPropertyDuplicateUsersTie(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelGRM)
	cfg.Users, cfg.Items, cfg.Seed = 20, 30, 19
	d, err := irt.GenerateC1P(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate user 0 as a new trailing user by overwriting user 19.
	m := d.Responses.Clone()
	for i := 0; i < m.Items(); i++ {
		m.SetAnswer(19, i, m.Answer(0, i))
	}
	res, err := (HNDPower{}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Scores[0]-res.Scores[19]) > 1e-6*math.Max(1, math.Abs(res.Scores[0])) {
		t.Fatalf("duplicate users scored differently: %v vs %v", res.Scores[0], res.Scores[19])
	}
}

// Failure injection: a disconnected response matrix must not crash any
// spectral method (rankings across components are arbitrary but defined).
func TestDisconnectedInputDoesNotCrash(t *testing.T) {
	m := response.New(8, 4, 2)
	for u := 0; u < 4; u++ {
		for i := 0; i < 2; i++ {
			m.SetAnswer(u, i, u%2)
		}
	}
	for u := 4; u < 8; u++ {
		for i := 2; i < 4; i++ {
			m.SetAnswer(u, i, u%2)
		}
	}
	if m.IsConnected() {
		t.Fatal("test setup should be disconnected")
	}
	for _, r := range allSpectralRankers() {
		res, err := r.Rank(context.Background(), m)
		if err != nil {
			t.Fatalf("%s errored on disconnected input: %v", r.Name(), err)
		}
		for _, s := range res.Scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("%s produced %v on disconnected input", r.Name(), s)
			}
		}
	}
}

// Failure injection: users who answered nothing must keep finite scores.
func TestSilentUsersDoNotPoison(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 20, 30, 23
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Responses.Clone()
	for i := 0; i < m.Items(); i++ {
		m.SetAnswer(5, i, response.Unanswered)
		m.SetAnswer(11, i, response.Unanswered)
	}
	for _, r := range allSpectralRankers() {
		res, err := r.Rank(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		for u, s := range res.Scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("%s: user %d score %v", r.Name(), u, s)
			}
		}
	}
}

// Per-component ranking: combining Components with Subset gives meaningful
// rankings inside each island.
func TestPerComponentRanking(t *testing.T) {
	cfgA := irt.DefaultConfig(irt.ModelGRM)
	cfgA.Users, cfgA.Items, cfgA.Seed = 15, 20, 29
	a, err := irt.GenerateC1P(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	// Build a 2-island matrix: island A on items 0..19, island B on 20..39.
	m := response.New(30, 40, 3)
	for u := 0; u < 15; u++ {
		for i := 0; i < 20; i++ {
			m.SetAnswer(u, i, a.Responses.Answer(u, i))
		}
	}
	cfgB := cfgA
	cfgB.Seed = 31
	bDS, err := irt.GenerateC1P(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 15; u++ {
		for i := 0; i < 20; i++ {
			m.SetAnswer(15+u, 20+i, bDS.Responses.Answer(u, i))
		}
	}
	comps := m.Components()
	if len(comps) != 2 {
		t.Fatalf("expected 2 components, got %d", len(comps))
	}
	for ci, comp := range comps {
		sub := m.Subset(comp)
		res, err := (HNDPower{}).Rank(context.Background(), sub)
		if err != nil {
			t.Fatalf("component %d: %v", ci, err)
		}
		truth := a.Abilities
		if ci == 1 {
			truth = bDS.Abilities
		}
		if got := rank.AbsSpearman(res.Scores, truth); got < 0.95 {
			t.Fatalf("component %d ranking |ρ| = %v", ci, got)
		}
	}
}
