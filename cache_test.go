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
				WithRankOptions(WithSeed(3)))
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
				opts := []Option{WithSeed(3)}
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

// TestWarmRerankAvoidsFullNormalizationRebuild pins the solve input the
// engine draws every solve from: no solve builds a normalized copy of it
// (the kernels apply the row and column scales themselves), and concurrent
// cache misses on one generation share the snapshot's page patterns — the
// written page's pattern is published once and every other page keeps the
// pattern built before the write. The warm sequential case is
// TestObserveRankAvoidsFullCSRRebuild.
func TestWarmRerankAvoidsFullNormalizationRebuild(t *testing.T) {
	ctx := context.Background()

	// Every rank of one generation reads the same snapshot — however many
	// of them miss the result cache at once, they share one solve of it:
	// the written page's pattern is built and published once, and the
	// untouched page is never rebuilt.
	t.Run("concurrent-misses", func(t *testing.T) {
		const rankers = 8
		eng, err := NewEngine(engineWorkload(t, 120, 60, 9), WithRankOptions(WithSeed(4)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
		old, _ := eng.View()
		oldPages := old.Patterns(nil)
		if err := eng.Observe(7, 3, 0); err != nil { // page 0 of 2
			t.Fatal(err)
		}
		view, gen := eng.View()
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
		if g := eng.Generation(); g != gen {
			t.Fatalf("generation moved from %d to %d without a write", gen, g)
		}
		pages, again := view.Patterns(nil), view.Patterns(nil)
		if pages[0] == oldPages[0] || pages[0] != again[0] {
			t.Fatal("the written page's pattern was not rebuilt once and kept")
		}
		if pages[1] != oldPages[1] {
			t.Fatalf("%d concurrent ranks rebuilt the pattern of an unwritten page", rankers)
		}
		assertPatternsMatchBinary(t, view)
		met := eng.Metrics()
		if met.NormFullRebuilds != 0 || met.NormSpliceRebuilds != 0 {
			t.Fatalf("solves built normalized copies (full=%d delta=%d), want none",
				met.NormFullRebuilds, met.NormSpliceRebuilds)
		}
		t.Logf("%d concurrent ranks: %d cache misses", rankers, met.CacheMisses-missesBefore)
	})
}

// TestObserveRankAvoidsFullCSRRebuild is the paged-storage acceptance
// criterion: after the engine's first solve, single-user Observes followed
// by Ranks rebuild only the written page's one-hot pattern — every other
// page serves the pattern built by the first solve — under an outstanding
// copy-on-write snapshot, which keeps its own patterns untouched.
func TestObserveRankAvoidsFullCSRRebuild(t *testing.T) {
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, 120, 60, 9), WithRankOptions(WithSeed(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	view, _ := eng.View() // outstanding snapshot: the next write copies on write
	first := view.Patterns(nil)
	for i := 0; i < 3; i++ {
		if err := eng.Observe(7+i, 3, 0); err != nil { // page 0 of 2
			t.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := eng.View()
	if m == view {
		t.Fatal("snapshot was not detached by the writes")
	}
	pages := m.Patterns(nil)
	if pages[0] == first[0] {
		t.Fatal("the written page kept its stale pattern")
	}
	if pages[1] != first[1] {
		t.Fatal("single-user writes rebuilt the pattern of an unwritten page")
	}
	assertPatternsMatchBinary(t, m)
	// The outstanding snapshot still serves its original patterns.
	for p, c := range view.Patterns(nil) {
		if c != first[p] {
			t.Fatalf("snapshot's page %d pattern was replaced", p)
		}
	}
	assertPatternsMatchBinary(t, view)
}

// assertPatternsMatchBinary checks that m's page patterns, stacked in
// page order, are exactly its freshly assembled one-hot matrix.
func assertPatternsMatchBinary(t *testing.T, m *ResponseMatrix) {
	t.Helper()
	c := m.Binary()
	row := 0
	for p, page := range m.Patterns(nil) {
		for r := 0; r < page.Rows(); r++ {
			gotCols, gotVals := page.RowNNZ(r)
			wantCols, wantVals := c.RowNNZ(row)
			if len(gotCols) != len(wantCols) {
				t.Fatalf("page %d row %d: %d entries, want %d", p, r, len(gotCols), len(wantCols))
			}
			for j := range wantCols {
				if gotCols[j] != wantCols[j] || gotVals[j] != wantVals[j] {
					t.Fatalf("page %d row %d differs from the assembled encoding", p, r)
				}
			}
			row++
		}
	}
	if row != c.Rows() {
		t.Fatalf("pages hold %d rows, matrix has %d", row, c.Rows())
	}
}

// assertNormalizedTripleConsistent checks that the (C, C_row, C_col) triple
// a snapshot's Normalized returns is internally consistent — the "never a
// torn encoding" assertion of the race suite. For the one-hot encoding,
// every C_row entry of a row with s answers must be exactly 1/s, and every
// C_col entry in a column chosen by c users exactly 1/c; forms built from
// encodings of different generations break one of the counts.
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
// Observe, Rank, InferLabels and View traffic over the paged copy-on-write
// storage its solve inputs come from. Run under -race it is the page
// protocol's concurrency proof; the view checker additionally asserts
// every snapshot observes a fully consistent (C, C_row, C_col) triple,
// never a partially written one.
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
		_, _, err := eng.InferLabels(ctx)
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

	// After the dust settles, the engine still ranks to finite scores, on
	// page patterns that encode its final matrix exactly.
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
	assertPatternsMatchBinary(t, m)
}
