package core

import (
	"context"
	"math/rand"
	"testing"

	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/rank"
	"hitsndiffs/internal/response"
)

// prePUnequalRows builds a P-matrix (already ability-sorted) with unequal
// row sums: each item is answered only by a contiguous user interval, and
// within the interval users split into contiguous option blocks. Both
// constructions keep every column's ones consecutive.
func prePUnequalRows(t *testing.T) *response.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	const users, items, k = 15, 30, 3
	m := response.New(users, items, k)
	for i := 0; i < items; i++ {
		lo := rng.Intn(users / 2)
		hi := users/2 + rng.Intn(users/2)
		if i == 0 {
			lo, hi = 0, users-1 // everyone answers item 0
		}
		// Two cut points inside [lo, hi] split it into ≤3 option blocks,
		// best options to the top (larger user index = more able here).
		c1 := lo + rng.Intn(hi-lo+1)
		c2 := c1 + rng.Intn(hi-c1+1)
		for u := lo; u <= hi; u++ {
			switch {
			case u < c1:
				m.SetAnswer(u, i, 2)
			case u < c2:
				m.SetAnswer(u, i, 1)
			default:
				m.SetAnswer(u, i, 0)
			}
		}
	}
	return m
}

// TestPaddingRestoresLemmaPreconditions exercises the paper's WLOG step:
// Lemmas 5–7 assume equal row sums, and any pre-P matrix can be padded with
// singleton columns to satisfy that without breaking C1P. We build a
// P-matrix with unequal row sums, pad, and verify that U becomes a
// symmetric R-matrix with non-negative U_diff.
func TestPaddingRestoresLemmaPreconditions(t *testing.T) {
	sorted := prePUnequalRows(t)
	if !isPMatrix(sorted) {
		t.Fatal("construction should be a P-matrix")
	}
	padded := sorted.PadToEqualRowSums()
	if !isPMatrix(padded) {
		t.Fatal("padding broke the P-matrix property")
	}
	u, c := NewUpdate(padded), padded.Binary()
	um := u.UMatrix(c)
	if !um.IsSymmetric(1e-9) {
		t.Fatal("padded U not symmetric (Lemma 5)")
	}
	if !um.IsRMatrix(1e-9) {
		t.Fatal("padded U not an R-matrix (Lemma 6)")
	}
	ud := u.UDiffMatrix(c)
	for i := 0; i < ud.Rows(); i++ {
		for j := 0; j < ud.Cols(); j++ {
			if ud.At(i, j) < -1e-9 {
				t.Fatalf("padded U_diff(%d,%d) = %v < 0 (Lemma 7)", i, j, ud.At(i, j))
			}
		}
	}
}

// TestPaddingPreservesHNDRanking confirms the paper's caveat in reverse:
// padding may perturb scores slightly but preserves the recovered ordering
// on consistent data.
func TestPaddingPreservesHNDRanking(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelGRM)
	cfg.Users, cfg.Items, cfg.AnswerProb, cfg.Seed = 30, 60, 0.85, 53
	d, err := irt.GenerateC1P(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := (HNDPower{}).Rank(context.Background(), d.Responses)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := (HNDPower{}).Rank(context.Background(), d.Responses.PadToEqualRowSums())
	if err != nil {
		t.Fatal(err)
	}
	if got := rank.AbsSpearman(base.Scores, padded.Scores); got < 0.97 {
		t.Fatalf("padding changed the ranking: |ρ| = %v", got)
	}
}
