package hitsndiffs

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// tenantWorkloads builds n independent tenant matrices of slightly varying
// shapes.
func tenantWorkloads(t testing.TB, n int, seed int64) []*ResponseMatrix {
	t.Helper()
	out := make([]*ResponseMatrix, n)
	for i := range out {
		out[i] = engineWorkload(t, 40+5*(i%3), 30, seed+int64(i))
	}
	return out
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

// TestRankBatchMatchesIndividualSolves: the batched path must be bitwise
// identical (serial kernels) to ranking every tenant alone with the same
// method and options.
func TestRankBatchMatchesIndividualSolves(t *testing.T) {
	ctx := context.Background()
	tenants := tenantWorkloads(t, 5, 11)
	base := []Option{WithSeed(2), WithParallelism(1)}
	eng, err := NewEngine(NewResponseMatrix(2, 1, 2), WithRankOptions(base...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RankBatch(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tenants) {
		t.Fatalf("got %d results for %d tenants", len(got), len(tenants))
	}
	for i, m := range tenants {
		want, err := HND(base...).Rank(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if !scoresEqualBits(got[i].Scores, want.Scores) {
			t.Fatalf("tenant %d: batched scores differ from solo solve", i)
		}
	}
}

// TestRankBatchCachePerTenantVersion: unchanged tenants are served from the
// per-tenant cache; a written tenant — and only it — re-solves, warm-started.
func TestRankBatchCachePerTenantVersion(t *testing.T) {
	ctx := context.Background()
	tenants := tenantWorkloads(t, 4, 23)
	eng, err := NewEngine(NewResponseMatrix(2, 1, 2), WithRankOptions(WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.RankBatch(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if eng.batchSolves != 4 {
		t.Fatalf("cold batch solved %d tenants, want 4", eng.batchSolves)
	}

	again, err := eng.RankBatch(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if eng.batchSolves != 4 {
		t.Fatalf("unchanged batch re-solved (%d total solves, want 4)", eng.batchSolves)
	}
	for i := range tenants {
		if !scoresEqualBits(first[i].Scores, again[i].Scores) {
			t.Fatalf("tenant %d: cached result differs", i)
		}
	}

	// Write one tenant: exactly one re-solve, warm-started (fewer
	// iterations than its cold solve).
	tenants[2].SetAnswer(0, 0, 0)
	third, err := eng.RankBatch(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if eng.batchSolves != 5 {
		t.Fatalf("single-tenant write re-solved %d tenants, want 1", eng.batchSolves-4)
	}
	if third[2].Iterations >= first[2].Iterations {
		t.Fatalf("re-solve not warm-started: %d iterations vs cold %d",
			third[2].Iterations, first[2].Iterations)
	}
	// Result slices are caller-owned: scribbling on one must not corrupt
	// the cache.
	third[0].Scores[0] = 1e9
	fourth, err := eng.RankBatch(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if fourth[0].Scores[0] == 1e9 {
		t.Fatal("cache shares score slices with callers")
	}
}

// TestRankBatchDuplicateAndFallback covers duplicate tenant pointers and
// the sequential fallback for methods without a batched form.
func TestRankBatchDuplicateAndFallback(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 30, 20, 5)
	eng, err := NewEngine(NewResponseMatrix(2, 1, 2),
		WithMethod("HITS"), WithRankOptions(WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RankBatch(ctx, []*ResponseMatrix{m, m})
	if err != nil {
		t.Fatal(err)
	}
	if eng.batchSolves != 1 {
		t.Fatalf("duplicate tenant solved %d times, want 1", eng.batchSolves)
	}
	if !scoresEqualBits(res[0].Scores, res[1].Scores) {
		t.Fatal("duplicate tenants disagree")
	}
	want, err := New("HITS", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	wres, err := want.Rank(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !scoresEqualBits(res[0].Scores, wres.Scores) {
		t.Fatal("fallback batched result differs from direct HITS solve")
	}
}

// TestRankBatchErrorNamesCallerIndex: a failing tenant must be named by
// its position in the caller's slice, not its position among the stale
// tenants actually solved — for HnD-power and for any other method.
func TestRankBatchErrorNamesCallerIndex(t *testing.T) {
	ctx := context.Background()
	good := engineWorkload(t, 20, 10, 1)
	bad := NewResponseMatrix(1, 3, 2) // one user: no method can rank it
	for _, method := range []string{"HnD-power", "HITS"} {
		eng, err := NewEngine(NewResponseMatrix(2, 1, 2), WithMethod(method), WithRankOptions(WithSeed(1)))
		if err != nil {
			t.Fatal(err)
		}
		// Cache the good tenant so the failing call's stale set holds only
		// the bad one (stale index 0, caller index 2).
		if _, err := eng.RankBatch(ctx, []*ResponseMatrix{good}); err != nil {
			t.Fatal(err)
		}
		_, err = eng.RankBatch(ctx, []*ResponseMatrix{good, good, bad})
		if err == nil || !strings.Contains(err.Error(), "RankBatch tenant 2") {
			t.Fatalf("%s: want error naming tenant 2, got %v", method, err)
		}
	}
}

// TestRankBatchDegenerateTenants ranks a two-user tenant and an annihilated
// tenant (every user answered identically, so U_diff has no signal) next
// to a healthy one: each must equal its solo solve bitwise.
func TestRankBatchDegenerateTenants(t *testing.T) {
	ctx := context.Background()
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
	tenants := []*ResponseMatrix{two, flat, engineWorkload(t, 30, 20, 7)}
	base := []Option{WithSeed(1), WithParallelism(1)}
	eng, err := NewEngine(NewResponseMatrix(2, 1, 2), WithRankOptions(base...))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RankBatch(ctx, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range tenants {
		want, err := HND(base...).Rank(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if !scoresEqualBits(got[i].Scores, want.Scores) || got[i].Iterations != want.Iterations {
			t.Fatalf("tenant %d: batched %+v, solo %+v", i, got[i], want)
		}
	}
	for _, s := range got[1].Scores {
		if s != 0 {
			t.Fatalf("annihilated tenant scored %v, want all zero", got[1].Scores)
		}
	}
}

// TestRankBatchHonorsContext: a canceled context fails the call with an
// error that still matches context.Canceled and names the tenant, and
// caches nothing — the next live call solves every tenant.
func TestRankBatchHonorsContext(t *testing.T) {
	tenants := tenantWorkloads(t, 2, 5)
	eng, err := NewEngine(NewResponseMatrix(2, 1, 2), WithRankOptions(WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.RankBatch(ctx, tenants)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "RankBatch tenant 0") {
		t.Fatalf("want context.Canceled naming tenant 0, got %v", err)
	}
	if _, err := eng.RankBatch(context.Background(), tenants); err != nil {
		t.Fatal(err)
	}
	if eng.batchSolves != 2 {
		t.Fatalf("live call after cancellation solved %d tenants, want 2", eng.batchSolves)
	}
}

// TestRankBatchEmptyBatch: no tenants, no results, no error.
func TestRankBatchEmptyBatch(t *testing.T) {
	eng, err := NewEngine(NewResponseMatrix(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RankBatch(context.Background(), nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch: got %v, %v", res, err)
	}
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

// TestShardedRankAllBatchedMatchesFanOut: RankAll must return exactly what
// each shard's engine returns when ranked on its own (serial kernels,
// fixed seed), shard by shard, a foreign write must leave the other
// shards' cached results untouched, and a failure must name its shard.
func TestShardedRankAllBatchedMatchesFanOut(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 200, 40, 31)
	mk := func() *ShardedEngine {
		eng, err := NewShardedEngine(m, WithShards(4),
			WithRankOptions(WithSeed(5), WithParallelism(1)))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := mk(), mk()
	// A failure names the first failing shard in index order.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := a.RankAll(canceled); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "RankAll shard 0") {
		t.Fatalf("want context.Canceled naming shard 0, got %v", err)
	}
	all, err := a.RankAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != b.Shards() {
		t.Fatal("shard count mismatch")
	}
	for i := range all {
		alone, err := b.engines[i].Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !scoresEqualBits(all[i].Scores, alone.Scores) {
			t.Fatalf("shard %d: RankAll differs from the shard ranked alone", i)
		}
		if all[i].Iterations != alone.Iterations {
			t.Fatalf("shard %d: iteration counts differ", i)
		}
	}

	// After a single-user write, only the owning shard re-solves; the other
	// shards answer from their caches.
	if err := a.Observe(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	sh := a.ShardFor(0)
	versions := make([]uint64, a.Shards())
	misses := make([]uint64, a.Shards())
	for i, e := range a.engines {
		versions[i] = e.Version()
		misses[i] = e.Metrics().CacheMisses
	}
	again, err := a.RankAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if i != sh && !scoresEqualBits(again[i].Scores, all[i].Scores) {
			t.Fatalf("unwritten shard %d changed scores after foreign write", i)
		}
		if a.engines[i].Version() != versions[i] {
			t.Fatalf("RankAll bumped shard %d's version", i)
		}
		want := misses[i]
		if i == sh {
			want++
		}
		if got := a.engines[i].Metrics().CacheMisses; got != want {
			t.Fatalf("shard %d: %d cache misses after a write to shard %d, want %d", i, got, sh, want)
		}
	}
}

// TestMultiTenantPathsMatchEngineRankParallel pins the in-place solves at
// WithParallelism(4) on tenants above the parallel kernels' nnz cutoff:
// RankBatch, RankAll and RefreshEngines must return bitwise what each
// tenant's own Engine.Rank returns — cold, then warm after a write. A
// packed solve would fail this, because one block-diagonal matrix splits
// into different kernel chunks than each tenant alone.
func TestMultiTenantPathsMatchEngineRankParallel(t *testing.T) {
	ctx := context.Background()
	opts := WithRankOptions(WithSeed(7), WithParallelism(4))
	newEngines := func(ms []*ResponseMatrix) []*Engine {
		out := make([]*Engine, len(ms))
		for i, m := range ms {
			if nnz := m.Binary().NNZ(); nnz <= 8192 {
				t.Fatalf("tenant %d has %d non-zeros, want above the 8192 parallel cutoff", i, nnz)
			}
			eng, err := NewEngine(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = eng
		}
		return out
	}
	// run calls path cold, then again after write applied the same
	// observation to each tenant on the path's side and to its engine in
	// alone, comparing every result with alone[i].Rank.
	run := func(name string, alone []*Engine, write func(i int, o Observation) error, path func() ([]Result, error)) {
		t.Helper()
		for round := 0; round < 2; round++ {
			if round > 0 {
				for i, e := range alone {
					o := Observation{User: 3 + i, Item: 5, Option: i % 2}
					if err := write(i, o); err != nil {
						t.Fatal(err)
					}
					if err := e.Observe(o.User, o.Item, o.Option); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := path()
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range alone {
				want, err := e.Rank(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !scoresEqualBits(got[i].Scores, want.Scores) || got[i].Iterations != want.Iterations {
					t.Fatalf("%s round %d: tenant %d differs from its engine ranked alone", name, round, i)
				}
			}
		}
	}

	tenants := make([]*ResponseMatrix, 4)
	owned := make([]*ResponseMatrix, len(tenants))
	for i := range tenants {
		tenants[i] = engineWorkload(t, 400, 60, 70+int64(i))
		owned[i] = tenants[i].Clone()
	}
	batcher, err := NewEngine(NewResponseMatrix(2, 1, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	run("RankBatch", newEngines(tenants),
		func(i int, o Observation) error { owned[i].SetAnswer(o.User, o.Item, o.Option); return nil },
		func() ([]Result, error) { return batcher.RankBatch(ctx, owned) })

	refreshed := newEngines(tenants)
	run("RefreshEngines", newEngines(tenants),
		func(i int, o Observation) error { return refreshed[i].Observe(o.User, o.Item, o.Option) },
		func() ([]Result, error) { return RefreshEngines(ctx, refreshed) })

	se, err := NewShardedEngine(engineWorkload(t, 1600, 60, 77), WithShards(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	views, _ := se.View()
	run("RankAll", newEngines(views),
		func(sh int, o Observation) error { return se.Observe(se.UsersOf(sh)[o.User], o.Item, o.Option) },
		func() ([]Result, error) { return se.RankAll(ctx) })
}
