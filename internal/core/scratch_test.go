package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func assertResultsBitwise(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Flipped != want.Flipped {
		t.Fatalf("%s: metadata mismatch: got it=%d conv=%v flip=%v, want it=%d conv=%v flip=%v",
			name, got.Iterations, got.Converged, got.Flipped, want.Iterations, want.Converged, want.Flipped)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: score length %d vs %d", name, len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("%s: score[%d] = %v, want %v (not bitwise identical)", name, i, got.Scores[i], want.Scores[i])
		}
	}
}

// TestHNDPowerScratchBitwise asserts a scratch-backed full solve is bitwise
// identical to the allocating solve — the guarantee that engine-side buffer
// pooling cannot move any score.
func TestHNDPowerScratchBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		m := randomResponses(rng, 15+rng.Intn(40), 10, 4, 0.8)
		opts := Options{Seed: int64(trial)}
		plain, err := (HNDPower{Opts: opts}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		sc := &SolveScratch{}
		optsSc := opts
		optsSc.Scratch = sc
		pooled, err := (HNDPower{Opts: optsSc}).Rank(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsBitwise(t, "solve-scratch", pooled, plain)

		// Reuse the same scratch on a different matrix: rebind must not leak
		// state between solves.
		m2 := randomResponses(rng, 10+rng.Intn(20), 8, 3, 0.9)
		plain2, err := (HNDPower{Opts: opts}).Rank(context.Background(), m2)
		if err != nil {
			t.Fatal(err)
		}
		pooled2, err := (HNDPower{Opts: optsSc}).Rank(context.Background(), m2)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsBitwise(t, "solve-scratch-reuse", pooled2, plain2)
	}
}

// TestWarmSolveZeroAlloc is the warm-solve allocation guard: with a
// prebuilt Update and a bound scratch, a steady-state warm re-rank after an
// idempotent rewrite performs zero heap allocations.
func TestWarmSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := randomResponses(rng, 80, 30, 4, 0.9)
	cold, err := (HNDPower{}).Rank(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	warm := cold.Scores.Clone()
	m.SetAnswer(0, 0, m.Answer(0, 0))
	h := HNDPower{Opts: Options{WarmStart: warm, Update: NewUpdate(m), Scratch: &SolveScratch{}}}
	ctx := context.Background()

	// Warm-up binds every buffer (scratch vectors, apply workspace,
	// orientation counts).
	res, err := h.Rank(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("warm solve of an unchanged matrix took %d iterations (converged=%v), want 1", res.Iterations, res.Converged)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := h.Rank(ctx, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm solve allocated %v times per run, want 0", allocs)
	}
}
