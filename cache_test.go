package hitsndiffs

import (
	"context"
	"math"
	"sync"
	"testing"
)

// goldenWorkload picks a workload every registry method can rank: binary
// items for the binary-only baselines, a consistent (C1P) matrix for BL,
// and the usual noisy 3-option matrix otherwise.
func goldenWorkload(t *testing.T, method string) *ResponseMatrix {
	t.Helper()
	info, ok := Describe(method)
	if !ok {
		t.Fatalf("unknown method %q", method)
	}
	if info.ConsistentOnly {
		cfg := DefaultGeneratorConfig(ModelGRM)
		cfg.Users, cfg.Items, cfg.Seed = 40, 30, 11
		d, err := GenerateConsistent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d.Responses
	}
	cfg := DefaultGeneratorConfig(ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 45, 30, 11
	cfg.DiscriminationMax = 2
	if info.BinaryOnly {
		cfg.Options = 2
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Responses
}

// memoFree rebuilds m with no memoized state: its answers are replayed
// into a fresh matrix, so a solve on the rebuild assembles the one-hot
// encoding and its normalized forms from scratch instead of splicing them.
func memoFree(m *ResponseMatrix) *ResponseMatrix {
	options := make([]int, m.Items())
	for i := range options {
		options[i] = m.OptionCount(i)
	}
	out := NewResponseMatrix(m.Users(), m.Items(), options...)
	for u := 0; u < m.Users(); u++ {
		for i := 0; i < m.Items(); i++ {
			if h := m.Answer(u, i); h != Unanswered {
				out.SetAnswer(u, i, h)
			}
		}
	}
	return out
}

// TestUpdateCacheGoldenEquivalence is the golden suite of the matrix memo
// every solve input is drawn from: for every registered method, on the
// cold rank and after a write, a retraction, a rewrite and a burst, each
// Engine.Rank takes one cache miss and must reproduce, bit for bit (errors
// included), the plain registry solver warm-started from the engine's
// previous scores and run on a memo-free rebuild of the same snapshot.
func TestUpdateCacheGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, method := range MethodNames() {
		t.Run(method, func(t *testing.T) {
			eng, err := NewEngine(goldenWorkload(t, method), WithMethod(method),
				WithRankOptions(WithSeed(3), WithParallelism(1)))
			if err != nil {
				t.Fatal(err)
			}
			var prev []float64 // the engine's last solved scores: its next warm start
			step := func(phase string) {
				t.Helper()
				misses := eng.Metrics().CacheMisses
				res, err := eng.Rank(ctx)
				if d := eng.Metrics().CacheMisses - misses; d != 1 {
					t.Fatalf("%s: rank took %d cache misses, want 1", phase, d)
				}
				view, _ := eng.View()
				opts := []Option{WithSeed(3), WithParallelism(1)}
				if prev != nil {
					opts = append(opts, WithWarmStart(prev))
				}
				r, rerr := New(method, opts...)
				if rerr != nil {
					t.Fatal(rerr)
				}
				ref, rerr := r.Rank(ctx, memoFree(view))
				if (err == nil) != (rerr == nil) {
					t.Fatalf("%s: engine err %v vs reference err %v", phase, err, rerr)
				}
				if err != nil {
					if err.Error() != rerr.Error() {
						t.Fatalf("%s: errors differ: %v vs %v", phase, err, rerr)
					}
					return
				}
				if !scoresEqualBits(res.Scores, ref.Scores) {
					t.Fatalf("%s: engine scores diverge from the memo-free warm solve", phase)
				}
				if res.Iterations != ref.Iterations || res.Converged != ref.Converged || res.Flipped != ref.Flipped {
					t.Fatalf("%s: solve metadata diverged (it %d vs %d, conv %v vs %v, flip %v vs %v)", phase,
						res.Iterations, ref.Iterations, res.Converged, ref.Converged, res.Flipped, ref.Flipped)
				}
				prev = res.Scores
			}

			step("cold")
			for i, o := range []Observation{
				{User: 3, Item: 2, Option: 1},
				{User: 7, Item: 5, Option: Unanswered}, // retraction (may empty a row)
				{User: 3, Item: 2, Option: 0},
			} {
				if err := eng.Observe(o.User, o.Item, o.Option); err != nil {
					t.Fatal(err)
				}
				step([]string{"warm-write", "warm-retract", "warm-rewrite"}[i])
			}
			burst := []Observation{{User: 1, Item: 1, Option: 0}, {User: 9, Item: 4, Option: 1}, {User: 12, Item: 0, Option: 1}}
			if err := eng.ObserveBatch(burst); err != nil {
				t.Fatal(err)
			}
			step("warm-burst")
		})
	}
}

// TestWarmRerankAvoidsFullNormalizationRebuild is the counter assertion of
// the matrix memo the engine draws every solve input from: after the cold
// solve's one full normalization, warm re-ranks following single-user
// writes pay touched-rows splices only — no further full
// RowNormalized/ColNormalized rebuild anywhere, even under outstanding
// copy-on-write snapshots — and concurrent cache misses on one version
// share a single splice.
func TestWarmRerankAvoidsFullNormalizationRebuild(t *testing.T) {
	ctx := context.Background()
	rankedEngine := func(t *testing.T) *Engine {
		t.Helper()
		eng, err := NewEngine(engineWorkload(t, 120, 60, 9), WithRankOptions(WithSeed(4)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	t.Run("sequential", func(t *testing.T) {
		eng := rankedEngine(t)
		view, _ := eng.View() // outstanding snapshot: the next write COW-clones
		if full, delta := view.NormRebuilds(); full != 1 || delta != 0 {
			t.Fatalf("cold rank paid %d full + %d delta normalizations, want 1 + 0", full, delta)
		}
		for i := 0; i < 3; i++ {
			if err := eng.Observe(7+i, 3, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Rank(ctx); err != nil {
				t.Fatal(err)
			}
		}
		m, _ := eng.View()
		if full, delta := m.NormRebuilds(); full != 1 || delta != 3 {
			t.Fatalf("warm re-ranks paid %d full + %d delta normalizations, want 1 + 3", full, delta)
		}
		if full, _ := m.CSRRebuilds(); full != 1 {
			t.Fatalf("warm re-ranks paid %d full CSR rebuilds, want 1", full)
		}
		// The outstanding snapshot still serves its original normalized memo.
		if _, crow, _ := view.Normalized(); crow == nil {
			t.Fatal("snapshot lost its normalized memo")
		}
		if full, delta := view.NormRebuilds(); full != 1 || delta != 0 {
			t.Fatalf("snapshot's counters moved (full=%d delta=%d)", full, delta)
		}
	})

	// Every rank of one version solves on the same snapshot, so however
	// many of them miss the result cache at once, the first to fetch the
	// solve input splices the memo and the rest read it.
	t.Run("concurrent-misses", func(t *testing.T) {
		const rankers = 8
		eng := rankedEngine(t)
		if err := eng.Observe(7, 3, 0); err != nil {
			t.Fatal(err)
		}
		view, version := eng.View()
		_, normBefore := view.NormRebuilds()
		_, csrBefore := view.CSRRebuilds()
		missesBefore := eng.Metrics().CacheMisses
		start := make(chan struct{})
		errs := make(chan error, rankers)
		var wg sync.WaitGroup
		for i := 0; i < rankers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := eng.Rank(ctx); err != nil {
					errs <- err
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if v := eng.Version(); v != version {
			t.Fatalf("version moved from %d to %d without a write", version, v)
		}
		if full, delta := view.NormRebuilds(); full != 1 || delta-normBefore != 1 {
			t.Fatalf("%d concurrent ranks paid %d full + %d delta normalizations, want 1 + 1",
				rankers, full, delta-normBefore)
		}
		if full, delta := view.CSRRebuilds(); full != 1 || delta-csrBefore != 1 {
			t.Fatalf("%d concurrent ranks paid %d full + %d delta CSR rebuilds, want 1 + 1",
				rankers, full, delta-csrBefore)
		}
		t.Logf("%d concurrent ranks: %d cache misses", rankers, eng.Metrics().CacheMisses-missesBefore)
	})
}

// TestObserveRankAvoidsFullCSRRebuild is the delta-aware acceptance
// criterion: after the engine's first solve, a single-user Observe followed
// by a Rank must rebuild only the touched rows of the memoized one-hot CSR
// — the full-assembly counter stays at one, under an outstanding
// copy-on-write snapshot included.
func TestObserveRankAvoidsFullCSRRebuild(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, 120, 60, 9), WithRankOptions(WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	view, _ := eng.View() // outstanding snapshot: the next write COW-clones
	if full, _ := view.CSRRebuilds(); full != 1 {
		t.Fatalf("cold rank paid %d full builds, want 1", full)
	}
	for i := 0; i < 3; i++ {
		if err := eng.Observe(7+i, 3, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := eng.View()
	full, delta := m.CSRRebuilds()
	if full != 1 {
		t.Fatalf("single-user writes triggered %d full CSR rebuilds, want 1 (delta=%d)", full, delta)
	}
	if delta != 3 {
		t.Fatalf("expected 3 delta rebuilds, got %d", delta)
	}
	// The outstanding snapshot still serves its original, fully consistent
	// encoding.
	if view.Binary() == nil || view == m {
		t.Fatal("snapshot was not detached by the writes")
	}
}

// assertNormalizedTripleConsistent checks that a snapshot's (C, C_row,
// C_col) triple is internally consistent — the "never a partially refreshed
// Crow/Ccol" assertion of the race suite. For the one-hot encoding, every
// C_row entry of a row with s answers must be exactly 1/s, and every C_col
// entry in a column chosen by c users exactly 1/c; a torn triple (forms
// from different generations) breaks one of the counts.
func assertNormalizedTripleConsistent(t *testing.T, m *ResponseMatrix) {
	t.Helper()
	c, crow, ccol := m.Normalized()
	if crow.Rows() != c.Rows() || ccol.Rows() != c.Rows() || crow.NNZ() != c.NNZ() || ccol.NNZ() != c.NNZ() {
		t.Error("normalized forms disagree with the encoding's shape")
		return
	}
	colCount := make([]float64, c.Cols())
	for r := 0; r < c.Rows(); r++ {
		cols, _ := c.RowNNZ(r)
		for _, j := range cols {
			colCount[j]++
		}
	}
	for r := 0; r < c.Rows(); r++ {
		cCols, _ := c.RowNNZ(r)
		rCols, rVals := crow.RowNNZ(r)
		lCols, lVals := ccol.RowNNZ(r)
		if len(rCols) != len(cCols) || len(lCols) != len(cCols) {
			t.Errorf("row %d: normalized row lengths diverge from the encoding", r)
			return
		}
		inv := 1 / float64(len(cCols))
		for i, j := range cCols {
			if rCols[i] != j || lCols[i] != j {
				t.Errorf("row %d: normalized structure diverges from the encoding", r)
				return
			}
			if math.Float64bits(rVals[i]) != math.Float64bits(inv) {
				t.Errorf("row %d: C_row entry %v, want %v", r, rVals[i], inv)
				return
			}
			if want := 1 / colCount[j]; math.Float64bits(lVals[i]) != math.Float64bits(want) {
				t.Errorf("row %d col %d: C_col entry %v, want %v", r, j, lVals[i], want)
				return
			}
		}
	}
}

// TestUpdateCacheConcurrentStress hammers one engine with concurrent
// Observe, Rank, InferLabels and View traffic over the generation-keyed
// matrix memos its solve inputs come from. Run under -race it is the memo
// protocol's concurrency proof; the view checker additionally asserts
// every snapshot observes a fully consistent (C, C_row, C_col) triple,
// never a partially refreshed one.
func TestUpdateCacheConcurrentStress(t *testing.T) {
	const iters = 60
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, 80, 30, 5), WithRankOptions(WithSeed(2), WithMaxIter(200)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	run(func(i int) error { // writer
		return eng.Observe(i%eng.Users(), i%eng.Items(), i%3)
	})
	run(func(i int) error { // second writer, bursts
		return eng.ObserveBatch([]Observation{
			{User: (i * 7) % eng.Users(), Item: i % eng.Items(), Option: Unanswered},
			{User: (i*7 + 1) % eng.Users(), Item: i % eng.Items(), Option: i % 3},
		})
	})
	for k := 0; k < 2; k++ { // rankers
		run(func(i int) error {
			_, err := eng.Rank(ctx)
			return err
		})
	}
	run(func(i int) error { // label inference shares the cache machinery
		_, err := eng.InferLabels(ctx)
		return err
	})
	viewerDone := make(chan struct{})
	wg.Add(1)
	go func() { // viewer: consistency of COW snapshots under writes
		defer wg.Done()
		defer close(viewerDone)
		for i := 0; i < iters; i++ {
			m, _ := eng.View()
			assertNormalizedTripleConsistent(t, m)
		}
	}()
	wg.Wait()
	<-viewerDone

	// After the dust settles, the engine still ranks to finite scores on
	// the one memo built at the start.
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatal("stress left non-finite scores behind")
		}
	}
	m, _ := eng.View()
	full, delta := m.NormRebuilds()
	if full != 1 {
		t.Fatalf("stress traffic triggered %d full normalization rebuilds, want 1 (delta=%d)", full, delta)
	}
}
