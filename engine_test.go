package hitsndiffs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// engineWorkload generates a noisy mid-size matrix on which HnD-power
// needs a healthy number of iterations (low discrimination widens the
// spectral gap's inverse).
func engineWorkload(t testing.TB, users, items int, seed int64) *ResponseMatrix {
	t.Helper()
	cfg := DefaultGeneratorConfig(ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = users, items, seed
	cfg.DiscriminationMax = 2
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Responses
}

func scoresEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRankHonorsPreCancelledContext(t *testing.T) {
	m := engineWorkload(t, 60, 40, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"HnD-power", "HnD-deflation", "ABH-power", "HITS", "TruthFinder", "Dawid-Skene", "GLAD"} {
		if info, _ := Describe(name); info.BinaryOnly {
			continue // workload has 3 options
		}
		r, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Rank(ctx, m); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	}
}

func TestRankCancellationMidIterationReturnsPromptly(t *testing.T) {
	// An unreachable tolerance forces the power iteration to run its full
	// (enormous) budget unless the context interrupts it.
	m := engineWorkload(t, 2000, 300, 5)
	r := HND(WithTol(1e-30), WithMaxIter(1<<30))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := r.Rank(ctx, m)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, not prompt", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Rank did not return after cancellation")
	}
}

func TestRankDeadlineExceeded(t *testing.T) {
	m := engineWorkload(t, 2000, 300, 7)
	r := HND(WithTol(1e-30), WithMaxIter(1<<30))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := r.Rank(ctx, m)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestEngineRankMatchesDirect: a cold Engine.Rank returns bitwise the
// direct solve, on a noisy matrix and on two degenerate ones — two users,
// and every user answering identically, where U_diff carries no signal
// and every score is zero.
func TestEngineRankMatchesDirect(t *testing.T) {
	two := NewResponseMatrix(2, 3, 2)
	for i := 0; i < 3; i++ {
		two.SetAnswer(0, i, 0)
	}
	two.SetAnswer(1, 0, 1)
	flat := NewResponseMatrix(4, 3, 2)
	for u := 0; u < 4; u++ {
		for i := 0; i < 3; i++ {
			flat.SetAnswer(u, i, 0)
		}
	}
	for name, m := range map[string]*ResponseMatrix{
		"noisy": engineWorkload(t, 120, 60, 11), "two-users": two, "flat": flat,
	} {
		eng, err := NewEngine(m, WithRankOptions(WithSeed(9)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Rank(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := HND(WithSeed(9)).Rank(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !scoresEqualBits(got.Scores, want.Scores) || got.Iterations != want.Iterations {
			t.Fatalf("%s: engine %+v, direct %+v", name, got, want)
		}
		for _, s := range got.Scores {
			if name == "flat" && s != 0 {
				t.Fatalf("identical answers scored %v, want all zero", got.Scores)
			}
		}
	}
}

// TestWarmSolveGoldenEquivalence pins the engine's re-rank to one warm
// solve: after a write, a retraction and a rewrite of the same answer,
// Engine.Rank must reproduce, bit for bit, the plain registry solver run
// over the same snapshots with the same warm-start sequence.
func TestWarmSolveGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 45, 30, 11)
	eng, err := NewEngine(m, WithRankOptions(WithSeed(3), WithParallelism(1)))
	if err != nil {
		t.Fatal(err)
	}
	var prev []float64
	step := func(phase string) {
		t.Helper()
		misses := eng.Metrics().CacheMisses
		res, err := eng.Rank(ctx)
		if err != nil {
			t.Fatalf("%s: engine: %v", phase, err)
		}
		if d := eng.Metrics().CacheMisses - misses; d != 1 {
			t.Fatalf("%s: rank took %d cache misses, want 1", phase, d)
		}
		view, _ := eng.View()
		opts := []Option{WithSeed(3), WithParallelism(1)}
		if prev != nil {
			opts = append(opts, WithWarmStart(prev))
		}
		ref, err := HND(opts...).Rank(ctx, view)
		if err != nil {
			t.Fatalf("%s: direct solver: %v", phase, err)
		}
		if !scoresEqualBits(res.Scores, ref.Scores) {
			t.Fatalf("%s: engine scores diverge from the direct warm solve", phase)
		}
		if res.Iterations != ref.Iterations || res.Converged != ref.Converged || res.Flipped != ref.Flipped {
			t.Fatalf("%s: solve metadata diverged (it %d vs %d, conv %v vs %v, flip %v vs %v)", phase,
				res.Iterations, ref.Iterations, res.Converged, ref.Converged, res.Flipped, ref.Flipped)
		}
		prev = res.Scores
	}
	step("cold")
	for i, o := range []Observation{
		{User: 2, Item: 4, Option: 1},
		{User: 8, Item: 9, Option: Unanswered},
		{User: 2, Item: 4, Option: 1},
	} {
		if err := eng.Observe(o.User, o.Item, o.Option); err != nil {
			t.Fatal(err)
		}
		step([]string{"warm-write", "warm-retract", "warm-rewrite"}[i])
	}
}

func TestEngineCachesPerVersion(t *testing.T) {
	m := engineWorkload(t, 80, 50, 13)
	eng, err := NewEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	if v := eng.Version(); v != 0 {
		t.Fatalf("fresh engine version = %d", v)
	}
	first, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A cached read must not be affected by the caller mutating the
	// returned scores.
	first.Scores[0] = 12345
	second, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.Scores[0] == 12345 {
		t.Fatal("cache shares score slice with caller")
	}
	if err := eng.Observe(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if v := eng.Version(); v != 1 {
		t.Fatalf("version after Observe = %d", v)
	}
}

func TestEngineObserveValidation(t *testing.T) {
	eng, err := NewEngine(NewResponseMatrix(3, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []Observation{
		{User: -1, Item: 0, Option: 0},
		{User: 3, Item: 0, Option: 0},
		{User: 0, Item: 2, Option: 0},
		{User: 0, Item: 0, Option: 2},
	}
	for _, c := range cases {
		if err := eng.Observe(c.User, c.Item, c.Option); err == nil {
			t.Fatalf("Observe(%+v) should fail", c)
		}
	}
	if v := eng.Version(); v != 0 {
		t.Fatalf("failed observes must not bump version, got %d", v)
	}
	// A batch with one bad entry is rejected atomically.
	batch := []Observation{{User: 0, Item: 0, Option: 1}, {User: 1, Item: 5, Option: 0}}
	if err := eng.ObserveBatch(batch); err == nil {
		t.Fatal("batch with invalid entry should fail")
	}
	if got := eng.Snapshot().Answer(0, 0); got != Unanswered {
		t.Fatalf("rejected batch partially applied: answer = %d", got)
	}
	// Retraction via Unanswered.
	if err := eng.Observe(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Observe(0, 0, Unanswered); err != nil {
		t.Fatal(err)
	}
	if got := eng.Snapshot().Answer(0, 0); got != Unanswered {
		t.Fatalf("retraction failed: answer = %d", got)
	}
}

func TestEngineUnknownMethod(t *testing.T) {
	if _, err := NewEngine(NewResponseMatrix(2, 2, 2), WithMethod("nope")); err == nil {
		t.Fatal("unknown method must fail at construction")
	}
}

// TestEngineWarmStartConvergesFaster compares the engine's warm re-ranks
// with cold solves of the same snapshots: a direct New(...).Rank starts
// from the seeded random vector every time.
func TestEngineWarmStartConvergesFaster(t *testing.T) {
	m := engineWorkload(t, 300, 100, 42)
	warm, err := NewEngine(m, WithRankOptions(WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New("HnD-power", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := warm.Rank(ctx); err != nil {
		t.Fatal(err)
	}

	// Drip in new responses and compare the re-rank cost.
	var warmIters, coldIters int
	for round := 0; round < 5; round++ {
		var batch []Observation
		for u := 0; u < 5; u++ {
			user := (round*5 + u) % m.Users()
			item := round % m.Items()
			batch = append(batch, Observation{
				User: user, Item: item,
				Option: (m.Answer(user, item) + 1 + m.OptionCount(item)) % m.OptionCount(item),
			})
		}
		if err := warm.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		wres, err := warm.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		view, _ := warm.View()
		cres, err := cold.Rank(ctx, view)
		if err != nil {
			t.Fatal(err)
		}
		warmIters += wres.Iterations
		coldIters += cres.Iterations
	}
	if warmIters >= coldIters {
		t.Fatalf("warm start did not reduce iterations: warm=%d cold=%d", warmIters, coldIters)
	}
	t.Logf("re-rank iterations over 5 rounds: warm=%d cold=%d", warmIters, coldIters)
}

func TestEngineInferLabels(t *testing.T) {
	m := FromChoices([][]int{
		{0, 0},
		{0, 0},
		{1, 1},
	}, 2)
	eng, err := NewEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := eng.InferLabels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || labels[0] != 0 || labels[1] != 0 {
		t.Fatalf("labels = %v", labels)
	}
	// Cached path returns an independent slice.
	labels[0] = 99
	again, err := eng.InferLabels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again[0] == 99 {
		t.Fatal("label cache shares slice with caller")
	}
}

// TestEngineConcurrentObserveAndRank exercises the RWMutex discipline
// under -race: writers stream observations while readers rank and infer
// labels concurrently.
func TestEngineConcurrentObserveAndRank(t *testing.T) {
	m := engineWorkload(t, 100, 60, 21)
	eng, err := NewEngine(m, WithRankOptions(WithSeed(3), WithMaxIter(500)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				u := rng.Intn(eng.Users())
				it := rng.Intn(eng.Items())
				if err := eng.Observe(u, it, rng.Intn(3)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := eng.Rank(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := eng.InferLabels(ctx); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The engine is still consistent: one final ranked read.
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != eng.Users() {
		t.Fatalf("final scores length %d", len(res.Scores))
	}
}

// TestEngineViewCopyOnWrite pins the snapshot semantics: a View is O(1),
// stays frozen at its version while Observes land, and back-to-back
// Observes without an intervening snapshot mutate in place (no clone).
func TestEngineViewCopyOnWrite(t *testing.T) {
	m := engineWorkload(t, 30, 20, 9)
	eng, err := NewEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	view, version := eng.View()
	if version != 0 {
		t.Fatalf("fresh engine version = %d", version)
	}
	before := view.Answer(1, 1)
	next := (before + 1 + view.OptionCount(1)) % view.OptionCount(1)
	if err := eng.Observe(1, 1, next); err != nil {
		t.Fatal(err)
	}
	if got := view.Answer(1, 1); got != before {
		t.Fatalf("view mutated by Observe: answer %d -> %d", before, got)
	}
	view2, version2 := eng.View()
	if version2 != 1 {
		t.Fatalf("version after Observe = %d, want 1", version2)
	}
	if view2 == view {
		t.Fatal("post-Observe view aliases the frozen snapshot")
	}
	if got := view2.Answer(1, 1); got != next {
		t.Fatalf("new view answer = %d, want %d", got, next)
	}
	// Retracting and re-answering without an intervening View writes in
	// place; the engine state must still reflect every Observe.
	if err := eng.Observe(2, 2, Unanswered); err != nil {
		t.Fatal(err)
	}
	if err := eng.Observe(3, 3, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := eng.View(); got.Answer(2, 2) != Unanswered || got.Answer(3, 3) != 0 {
		t.Fatal("in-place Observes lost")
	}
	if view2.Answer(2, 2) == Unanswered && m.Answer(2, 2) != Unanswered {
		t.Fatal("frozen view2 mutated by post-snapshot Observe")
	}
}

// TestEngineRankDoesNotCloneMatrix asserts the serving guarantee behind
// BenchmarkEngineSnapshot: ranking traffic on an unchanged matrix performs
// no O(mn) matrix copies — scores aside, per-call allocations stay flat as
// the matrix grows.
func TestEngineRankDoesNotCloneMatrix(t *testing.T) {
	ctx := context.Background()
	perCall := func(users, items int) float64 {
		eng, err := NewEngine(engineWorkload(t, users, items, 11))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := eng.Rank(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.InferLabels(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := perCall(40, 30)
	large := perCall(160, 120)
	// A per-call matrix clone would scale allocations with users×items;
	// cached serving should stay within a small constant of the small case.
	if large > 4*small+8 {
		t.Fatalf("cached Rank+InferLabels allocations grew with matrix size: %v -> %v", small, large)
	}
}
