package hitsndiffs

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hitsndiffs/internal/irt"
)

// shardTestMatrix generates a mid-size noisy workload for router tests.
func shardTestMatrix(t testing.TB, users, items int) *ResponseMatrix {
	t.Helper()
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = users, items, 11
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Responses
}

// TestShardedEngineDegenerate checks the zero/one-shard configurations
// collapse to plain Engine behaviour: same scores, bitwise, before and
// after a write.
func TestShardedEngineDegenerate(t *testing.T) {
	m := shardTestMatrix(t, 60, 30)
	ctx := context.Background()
	for _, shards := range []int{0, 1} {
		plain, err := NewEngine(m, WithRankOptions(WithSeed(3)))
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewShardedEngine(m, WithShards(shards), WithRankOptions(WithSeed(3)))
		if err != nil {
			t.Fatal(err)
		}
		if got := sharded.Shards(); got != 1 {
			t.Fatalf("WithShards(%d): Shards() = %d, want 1", shards, got)
		}
		for round := 0; round < 2; round++ {
			want, err := plain.Rank(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Rank(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("score length %d vs %d", len(got.Scores), len(want.Scores))
			}
			for i := range got.Scores {
				if got.Scores[i] != want.Scores[i] {
					t.Fatalf("WithShards(%d) round %d: score[%d] = %g, plain engine %g",
						shards, round, i, got.Scores[i], want.Scores[i])
				}
			}
			if err := plain.Observe(0, 0, 1); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Observe(0, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedObserveRouting writes through the router and checks, via the
// per-shard views, that every answer landed on the owning shard at the
// mapped local row — i.e. the reassembled global matrix matches a reference
// matrix mutated identically.
func TestShardedObserveRouting(t *testing.T) {
	ref := shardTestMatrix(t, 100, 20).Clone()
	eng, err := NewShardedEngine(ref, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", eng.Shards())
	}

	rng := rand.New(rand.NewSource(9))
	var batch []Observation
	for i := 0; i < 200; i++ {
		o := Observation{
			User:   rng.Intn(ref.Users()),
			Item:   rng.Intn(ref.Items()),
			Option: rng.Intn(ref.OptionCount(0)),
		}
		batch = append(batch, o)
	}
	// Apply half through single Observes, half through one fanned-out batch.
	for _, o := range batch[:100] {
		if err := eng.Observe(o.User, o.Item, o.Option); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.ObserveBatch(batch[100:]); err != nil {
		t.Fatal(err)
	}
	for _, o := range batch {
		ref.SetAnswer(o.User, o.Item, o.Option)
	}

	views, _ := eng.View()
	for u := 0; u < ref.Users(); u++ {
		sh := eng.ShardFor(u)
		local := -1
		for l, g := range shardGlobals(eng, sh) {
			if g == u {
				local = l
				break
			}
		}
		if local < 0 {
			t.Fatalf("user %d missing from shard %d", u, sh)
		}
		if gotSh, gotLocal := eng.LocalFor(u); gotSh != sh || gotLocal != local {
			t.Fatalf("user %d: LocalFor = (%d,%d), independent reconstruction (%d,%d)", u, gotSh, gotLocal, sh, local)
		}
		if globals := eng.UsersOf(sh); globals[local] != u {
			t.Fatalf("user %d: UsersOf(%d)[%d] = %d", u, sh, local, globals[local])
		}
		for i := 0; i < ref.Items(); i++ {
			if got, want := views[sh].Answer(local, i), ref.Answer(u, i); got != want {
				t.Fatalf("user %d item %d: shard %d row %d holds %d, want %d", u, i, sh, local, got, want)
			}
		}
	}
}

// shardGlobals recovers a shard's global user list from the router's
// deterministic assignment (ShardFor preserves global order within a
// shard).
func shardGlobals(eng *ShardedEngine, sh int) []int {
	var globals []int
	for u := 0; u < eng.Users(); u++ {
		if eng.ShardFor(u) == sh {
			globals = append(globals, u)
		}
	}
	return globals
}

// TestShardedRankDeterministicMerge checks the merged ranking is a pure
// function of the responses: two independently constructed routers produce
// bitwise-identical merged scores, repeated ranks are stable, every score
// lands in [0,1], and the merged order restricted to one shard's users
// matches that shard's own ranking (normalization is monotone).
func TestShardedRankDeterministicMerge(t *testing.T) {
	m := shardTestMatrix(t, 120, 25)
	ctx := context.Background()
	build := func() *ShardedEngine {
		eng, err := NewShardedEngine(m, WithShards(4), WithRankOptions(WithSeed(5)))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	a, b := build(), build()
	ra, err := a.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Scores {
		if ra.Scores[i] != rb.Scores[i] {
			t.Fatalf("independent routers disagree at user %d: %g vs %g", i, ra.Scores[i], rb.Scores[i])
		}
		if ra.Scores[i] < 0 || ra.Scores[i] > 1 {
			t.Fatalf("merged score[%d] = %g outside [0,1]", i, ra.Scores[i])
		}
	}
	again, err := a.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Scores {
		if again.Scores[i] != ra.Scores[i] {
			t.Fatalf("repeated Rank drifted at user %d", i)
		}
	}

	// Per-shard order preservation under the monotone merge.
	all, err := a.RankAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for sh, res := range all {
		globals := shardGlobals(a, sh)
		if len(globals) != len(res.Scores) {
			t.Fatalf("shard %d: %d users vs %d scores", sh, len(globals), len(res.Scores))
		}
		for x := 0; x < len(globals); x++ {
			for y := x + 1; y < len(globals); y++ {
				local := res.Scores[x] - res.Scores[y]
				global := ra.Scores[globals[x]] - ra.Scores[globals[y]]
				if (local > 0 && global < 0) || (local < 0 && global > 0) {
					t.Fatalf("shard %d: merge inverted users %d and %d", sh, globals[x], globals[y])
				}
			}
		}
	}
}

// TestShardedObserveBatchAtomic checks a batch with one bad observation is
// rejected before any shard is touched.
func TestShardedObserveBatchAtomic(t *testing.T) {
	m := shardTestMatrix(t, 40, 10)
	eng, err := NewShardedEngine(m, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Generation()
	views, _ := eng.View()
	batch := []Observation{
		{User: 1, Item: 1, Option: 0},
		{User: 2, Item: 2, Option: 0},
		{User: 39, Item: 9, Option: 9999}, // invalid option
	}
	if err := eng.ObserveBatch(batch); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if eng.Generation() != before {
		t.Fatalf("generation moved from %d to %d on rejected batch", before, eng.Generation())
	}
	after, _ := eng.View()
	for sh := range views {
		for u := 0; u < views[sh].Users(); u++ {
			for i := 0; i < views[sh].Items(); i++ {
				if views[sh].Answer(u, i) != after[sh].Answer(u, i) {
					t.Fatalf("shard %d mutated by rejected batch", sh)
				}
			}
		}
	}
	if err := eng.ObserveBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestShardedObserveBatchFenceAtomic pins FenceShard's contract for
// batches that span shards: one fenced shard fails the whole batch with
// ErrFenced before ANYTHING is applied ANYWHERE. Without that, a client
// retrying the 429 would double-apply the unfenced half of the batch,
// and a redirect replay would fork the non-moved shards on the target.
func TestShardedObserveBatchFenceAtomic(t *testing.T) {
	m := shardTestMatrix(t, 40, 10)
	eng, err := NewShardedEngine(m, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const fencedShard = 1
	// One observation per shard, so the batch straddles the fence.
	batch := make([]Observation, 0, eng.Shards())
	seen := make(map[int]bool)
	for u := 0; u < eng.Users() && len(batch) < eng.Shards(); u++ {
		if sh := eng.ShardFor(u); !seen[sh] {
			seen[sh] = true
			batch = append(batch, Observation{User: u, Item: 0, Option: 1})
		}
	}
	if len(batch) < 2 || !seen[fencedShard] {
		t.Fatalf("test matrix yielded touched shards %v, need ≥ 2 including shard %d", seen, fencedShard)
	}
	if err := eng.FenceShard(fencedShard, true); err != nil {
		t.Fatal(err)
	}
	before := eng.Generation()
	gens := make([]uint64, eng.Shards())
	for sh := range gens {
		gens[sh], _ = eng.ShardGeneration(sh)
	}
	if err := eng.ObserveBatch(batch); !errors.Is(err, ErrFenced) {
		t.Fatalf("mixed batch over a fenced shard: %v, want ErrFenced", err)
	}
	if got := eng.Generation(); got != before {
		t.Fatalf("generation moved from %d to %d: batch partially applied", before, got)
	}
	for sh := range gens {
		if g, _ := eng.ShardGeneration(sh); g != gens[sh] {
			t.Fatalf("shard %d advanced from generation %d to %d under a rejected batch", sh, gens[sh], g)
		}
	}
	// Unfenced, the identical batch lands whole.
	if err := eng.FenceShard(fencedShard, false); err != nil {
		t.Fatal(err)
	}
	if err := eng.ObserveBatch(batch); err != nil {
		t.Fatalf("batch after unfence: %v", err)
	}
	if got := eng.Generation(); got != before+uint64(len(batch)) {
		t.Fatalf("generation %d after unfenced batch, want %d (one tick per observation)", got, before+uint64(len(batch)))
	}
}

// TestShardedTinyShards covers hash-imbalance degeneracy: with more shards
// than signal, sparse shards must report flat 0.5 scores instead of
// failing the fan-out.
func TestShardedTinyShards(t *testing.T) {
	m := NewResponseMatrix(3, 4, 2)
	for i := 0; i < 4; i++ {
		m.SetAnswer(0, i, 0)
	}
	m.SetAnswer(1, 0, 0)
	m.SetAnswer(1, 1, 1)
	eng, err := NewShardedEngine(m, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() > 3 {
		t.Fatalf("Shards() = %d, want ≤ users", eng.Shards())
	}
	res, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("got %d scores", len(res.Scores))
	}
	for i, s := range res.Scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %g outside [0,1]", i, s)
		}
	}
}

// TestShardedConcurrentObserveRank drives concurrent writers, readers and
// a per-shard RankAll fan-out through the router; under -race this is the
// router's data-race proof.
func TestShardedConcurrentObserveRank(t *testing.T) {
	m := shardTestMatrix(t, 80, 15)
	eng, err := NewShardedEngine(m, WithShards(4), WithRankOptions(WithSeed(2), WithMaxIter(500)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers, readers, rounds = 3, 3, 25
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				if rng.Intn(2) == 0 {
					if err := eng.Observe(rng.Intn(eng.Users()), rng.Intn(eng.Items()), 0); err != nil {
						errc <- err
						return
					}
				} else {
					batch := []Observation{
						{User: rng.Intn(eng.Users()), Item: rng.Intn(eng.Items()), Option: 1},
						{User: rng.Intn(eng.Users()), Item: rng.Intn(eng.Items()), Option: 0},
					}
					if err := eng.ObserveBatch(batch); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := eng.Rank(ctx); err != nil {
					errc <- err
					return
				}
				eng.View()
				eng.Generation()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := eng.RankAll(ctx); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestShardedRankAllBatchedMatchesFanOut: RankAll must return exactly what
// each shard's engine returns when ranked on its own (fixed seed), shard by
// shard, a foreign write must leave the other
// shards' cached results untouched, and a failure must name its shard.
func TestShardedRankAllBatchedMatchesFanOut(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 200, 40, 31)
	mk := func() *ShardedEngine {
		eng, err := NewShardedEngine(m, WithShards(4),
			WithRankOptions(WithSeed(5)))
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
	gens := make([]uint64, a.Shards())
	misses := make([]uint64, a.Shards())
	for i, e := range a.engines {
		gens[i] = e.Generation()
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
		if a.engines[i].Generation() != gens[i] {
			t.Fatalf("RankAll moved shard %d's generation", i)
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

// TestMultiTenantPathsMatchEngineRankParallel pins the in-place shard
// solves, which RankAll runs concurrently: it must return bitwise what each
// shard's matrix returns when ranked by its own Engine — cold, then warm
// after a write to every shard.
func TestMultiTenantPathsMatchEngineRankParallel(t *testing.T) {
	ctx := context.Background()
	opts := WithRankOptions(WithSeed(7))
	se, err := NewShardedEngine(engineWorkload(t, 1600, 60, 77), WithShards(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	views, _ := se.View()
	alone := make([]*Engine, len(views))
	for sh, m := range views {
		if alone[sh], err = NewEngine(m, opts); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		if round > 0 {
			for sh, e := range alone {
				o := Observation{User: 3 + sh, Item: 5, Option: sh % 2}
				if err := se.Observe(se.UsersOf(sh)[o.User], o.Item, o.Option); err != nil {
					t.Fatal(err)
				}
				if err := e.Observe(o.User, o.Item, o.Option); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := se.RankAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for sh, e := range alone {
			want, err := e.Rank(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !scoresEqualBits(got[sh].Scores, want.Scores) || got[sh].Iterations != want.Iterations {
				t.Fatalf("round %d: shard %d differs from its engine ranked alone", round, sh)
			}
		}
	}
}
