package hitsndiffs

import (
	"context"
	"math"
	"sync"
	"testing"
)

// updateBackedMethods returns the registry methods that receive the cached
// Update machinery — the surface the certified fast path sits behind.
func updateBackedMethods(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range MethodNames() {
		if info, _ := Describe(name); info.UpdateBacked {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		t.Fatal("no update-backed methods registered")
	}
	return out
}

// certifiedStep ranks both engines and asserts bitwise-equal results —
// scores, iteration counts, orientation flips and generations. Certification
// replays the solver's exact floating-point sequence and acceptance test, so
// a certified hit must be indistinguishable from the solve it replaced.
func certifiedStep(t *testing.T, ctx context.Context, phase string, on, off *Engine) {
	t.Helper()
	ores, oerr := on.Rank(ctx)
	fres, ferr := off.Rank(ctx)
	if (oerr == nil) != (ferr == nil) {
		t.Fatalf("%s: certified err %v vs uncertified err %v", phase, oerr, ferr)
	}
	if oerr != nil {
		if oerr.Error() != ferr.Error() {
			t.Fatalf("%s: errors differ: %v vs %v", phase, oerr, ferr)
		}
		return
	}
	if !scoresEqualBits(ores.Scores, fres.Scores) {
		t.Fatalf("%s: certified scores diverge from the full-solve scores", phase)
	}
	if ores.Iterations != fres.Iterations || ores.Flipped != fres.Flipped {
		t.Fatalf("%s: solve metadata diverged (it %d vs %d, flip %v vs %v)",
			phase, ores.Iterations, fres.Iterations, ores.Flipped, fres.Flipped)
	}
	if ores.Generation != fres.Generation {
		t.Fatalf("%s: generations diverged (%d vs %d)", phase, ores.Generation, fres.Generation)
	}
}

// TestCertifiedGoldenEquivalence is the golden suite of the certification
// protocol: for every update-backed registry method, Engine.Rank results
// must be bitwise identical with the certified fast path on (the default)
// vs. the WithCertifiedUpdates(false) escape hatch, across cold start,
// single warm writes, a retraction, an idempotent rewrite (a guaranteed
// certified hit: the matrix is unchanged, so the warm scores are exactly
// converged) and a burst. The flag-off engine takes exactly the pre-
// certification solve path, so the equivalence also pins that enabling
// certification changed no served score anywhere.
func TestCertifiedGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, method := range updateBackedMethods(t) {
		method := method
		t.Run(method, func(t *testing.T) {
			m := goldenWorkload(t, method)
			mkEngine := func(certified bool) *Engine {
				eng, err := NewEngine(m, WithMethod(method),
					WithRankOptions(WithSeed(3), WithParallelism(1)),
					WithCertifiedUpdates(certified))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			on, off := mkEngine(true), mkEngine(false)

			certifiedStep(t, ctx, "cold", on, off)
			writes := []Observation{
				{User: 3, Item: 2, Option: 1},
				{User: 7, Item: 5, Option: Unanswered}, // retraction (may empty a row)
				{User: 3, Item: 2, Option: 1},          // idempotent rewrite: guaranteed certified hit
			}
			for i, o := range writes {
				if err := on.Observe(o.User, o.Item, o.Option); err != nil {
					t.Fatal(err)
				}
				if err := off.Observe(o.User, o.Item, o.Option); err != nil {
					t.Fatal(err)
				}
				certifiedStep(t, ctx, []string{"warm-write", "warm-retract", "idempotent-rewrite"}[i], on, off)
			}
			burst := []Observation{{User: 1, Item: 1, Option: 0}, {User: 9, Item: 4, Option: 1}, {User: 12, Item: 0, Option: 1}}
			if err := on.ObserveBatch(burst); err != nil {
				t.Fatal(err)
			}
			if err := off.ObserveBatch(burst); err != nil {
				t.Fatal(err)
			}
			certifiedStep(t, ctx, "warm-burst", on, off)

			om, fm := on.Metrics(), off.Metrics()
			if fm.CertifiedHits != 0 || fm.CertifiedFallbacks != 0 {
				t.Fatalf("escape hatch attempted certification (%d hits, %d fallbacks)",
					fm.CertifiedHits, fm.CertifiedFallbacks)
			}
			if method == hndPowerMethod {
				// The idempotent rewrite leaves the matrix bit-identical, so
				// the warm scores are exactly converged and the first
				// certification step must accept.
				if om.CertifiedHits == 0 {
					t.Fatal("idempotent rewrite did not produce a certified hit")
				}
				if om.CertifiedHits > om.CacheMisses {
					t.Fatalf("certified hits (%d) exceed cache misses (%d)", om.CertifiedHits, om.CacheMisses)
				}
			} else if om.CertifiedHits != 0 || om.CertifiedFallbacks != 0 {
				t.Fatalf("method %s attempted certification (%d hits, %d fallbacks)",
					method, om.CertifiedHits, om.CertifiedFallbacks)
			}
		})
	}
}

// TestCertifiedShardedGoldenEquivalence extends the golden suite to the
// 4-shard router: merged Rank results must be bitwise identical with
// certification on vs. off across cold start, single writes, a retraction,
// an idempotent rewrite and a cross-shard burst. Each shard is solved
// alone, and a certified hit is bitwise the solo solve, so the two
// configurations can never diverge.
func TestCertifiedShardedGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 80, 40, 13)
	mkEngine := func(certified bool) *ShardedEngine {
		eng, err := NewShardedEngine(m, WithShards(4),
			WithRankOptions(WithSeed(3), WithParallelism(1)),
			WithCertifiedUpdates(certified))
		if err != nil {
			t.Fatal(err)
		}
		if eng.Shards() != 4 {
			t.Fatalf("got %d shards, want 4", eng.Shards())
		}
		return eng
	}
	on, off := mkEngine(true), mkEngine(false)

	step := func(phase string) {
		t.Helper()
		ores, err := on.Rank(ctx)
		if err != nil {
			t.Fatalf("%s: certified: %v", phase, err)
		}
		fres, err := off.Rank(ctx)
		if err != nil {
			t.Fatalf("%s: uncertified: %v", phase, err)
		}
		if !scoresEqualBits(ores.Scores, fres.Scores) {
			t.Fatalf("%s: certified merged scores diverge from the full-solve merge", phase)
		}
	}

	step("cold")
	phases := []struct {
		name string
		obs  []Observation
	}{
		{"warm-write", []Observation{{User: 5, Item: 3, Option: 1}}},
		{"warm-retract", []Observation{{User: 11, Item: 7, Option: Unanswered}}},
		{"idempotent-rewrite", []Observation{{User: 5, Item: 3, Option: 1}}},
		// Burst touching every shard: users 0..7 hash across all four.
		{"cross-shard-burst", []Observation{
			{User: 0, Item: 1, Option: 0}, {User: 1, Item: 2, Option: 1},
			{User: 2, Item: 3, Option: 0}, {User: 3, Item: 4, Option: 1},
			{User: 4, Item: 5, Option: 0}, {User: 5, Item: 6, Option: 1},
			{User: 6, Item: 7, Option: 0}, {User: 7, Item: 8, Option: 1},
		}},
	}
	for _, p := range phases {
		if err := on.ObserveBatch(p.obs); err != nil {
			t.Fatal(err)
		}
		if err := off.ObserveBatch(p.obs); err != nil {
			t.Fatal(err)
		}
		step(p.name)
	}

	om, fm := on.Metrics(), off.Metrics()
	if om.CertifiedHits == 0 {
		t.Fatal("no shard produced a certified hit (idempotent rewrite guarantees one)")
	}
	if fm.CertifiedHits != 0 || fm.CertifiedFallbacks != 0 {
		t.Fatalf("escape-hatch cluster attempted certification (%d hits, %d fallbacks)",
			fm.CertifiedHits, fm.CertifiedFallbacks)
	}
}

// TestCertifiedOffMatchesDirectSolver pins the escape hatch to the
// pre-certification contract: a WithCertifiedUpdates(false) engine must
// reproduce, bit for bit, the plain registry solver run over the same
// snapshots with the same warm-start sequence — the behavior shipped before
// the certified path existed (scratch pooling changes no floating-point
// operation).
func TestCertifiedOffMatchesDirectSolver(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 45, 30, 11)
	eng, err := NewEngine(m, WithCertifiedUpdates(false),
		WithRankOptions(WithSeed(3), WithParallelism(1)))
	if err != nil {
		t.Fatal(err)
	}
	var prev []float64
	step := func(phase string) {
		t.Helper()
		res, err := eng.Rank(ctx)
		if err != nil {
			t.Fatalf("%s: engine: %v", phase, err)
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
			t.Fatalf("%s: escape-hatch engine diverges from the direct solver", phase)
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

// TestCertifiedFallbackExactlyOnce pins the counter protocol: a guaranteed
// certified hit bumps CertifiedHits (and nothing else beyond the cache
// miss), a rejected certificate bumps CertifiedFallbacks exactly once and
// runs exactly one full solve (one cache miss — the certification attempt
// and its fallback share the miss), and a repeated Rank at the same version
// is a pure cache hit that attempts nothing.
func TestCertifiedFallbackExactlyOnce(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 60, 40, 7)
	eng, err := NewEngine(m, WithRankOptions(WithSeed(2), WithParallelism(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil { // cold start: no warm iterate, no attempt
		t.Fatal(err)
	}
	base := eng.Metrics()
	if base.CertifiedHits != 0 || base.CertifiedFallbacks != 0 {
		t.Fatalf("cold start attempted certification (%d hits, %d fallbacks)",
			base.CertifiedHits, base.CertifiedFallbacks)
	}

	// Idempotent rewrite: the matrix is unchanged, the warm scores are
	// exactly converged, the first certification step must accept.
	item := 0
	if err := eng.Observe(0, item, m.Answer(0, item)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	hit := eng.Metrics()
	if d := hit.CertifiedHits - base.CertifiedHits; d != 1 {
		t.Fatalf("certified hits moved by %d, want 1", d)
	}
	if hit.CertifiedFallbacks != base.CertifiedFallbacks {
		t.Fatalf("certified hit also bumped fallbacks (%d -> %d)", base.CertifiedFallbacks, hit.CertifiedFallbacks)
	}
	if d := hit.CacheMisses - base.CacheMisses; d != 1 {
		t.Fatalf("certified hit took %d cache misses, want 1", d)
	}

	// A burst rewriting a swath of answers perturbs the operator far past
	// what two power steps can re-converge: the certificate must reject and
	// fall back to exactly one full solve.
	var burst []Observation
	for u := 0; u < 30; u++ {
		it := u % eng.Items()
		k := m.OptionCount(it)
		burst = append(burst, Observation{User: u, Item: it, Option: (m.Answer(u, it) + 1 + k) % k})
	}
	if err := eng.ObserveBatch(burst); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	fb := eng.Metrics()
	if d := fb.CertifiedFallbacks - hit.CertifiedFallbacks; d != 1 {
		t.Fatalf("rejected certificate fell back %d times, want exactly 1", d)
	}
	if fb.CertifiedHits != hit.CertifiedHits {
		t.Fatalf("rejected certificate also counted a hit (%d -> %d)", hit.CertifiedHits, fb.CertifiedHits)
	}
	if d := fb.CacheMisses - hit.CacheMisses; d != 1 {
		t.Fatalf("fallback took %d cache misses, want 1 (attempt and solve share the miss)", d)
	}

	// Same version again: pure cache hit, no new attempt in either counter.
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	again := eng.Metrics()
	if again.CertifiedHits != fb.CertifiedHits || again.CertifiedFallbacks != fb.CertifiedFallbacks {
		t.Fatal("cache hit attempted certification")
	}
	if d := again.CacheHits - fb.CacheHits; d != 1 {
		t.Fatalf("repeat rank took %d cache hits, want 1", d)
	}
}

// TestCertifiedHitCachePurity pins that a certified hit behaves exactly
// like a solve toward every piece of shared state: it installs into the
// version-keyed cache (the next Rank is a hit serving the same bits), it
// never mutates an outstanding copy-on-write snapshot, and the returned
// scores are caller-owned.
func TestCertifiedHitCachePurity(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 60, 40, 7)
	eng, err := NewEngine(m, WithRankOptions(WithSeed(2), WithParallelism(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	before, _ := eng.View() // outstanding snapshot across the write
	fullBefore, deltaBefore := before.NormRebuilds()

	item := 3
	if err := eng.Observe(1, item, m.Answer(1, item)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().CertifiedHits == 0 {
		t.Fatal("idempotent rewrite did not produce a certified hit")
	}

	// The outstanding snapshot is untouched: its normalized triple is still
	// consistent and its memo counters did not move.
	assertNormalizedTripleConsistent(t, before)
	if full, delta := before.NormRebuilds(); full != fullBefore || delta != deltaBefore {
		t.Fatalf("certified hit moved the snapshot's memo counters (%d/%d -> %d/%d)",
			fullBefore, deltaBefore, full, delta)
	}

	// The hit installed into the version-keyed cache: the next Rank is a
	// pure hit serving the same bits.
	misses := eng.Metrics().CacheMisses
	cached, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Metrics().CacheMisses != misses {
		t.Fatal("rank after a certified hit missed the cache")
	}
	if !scoresEqualBits(res.Scores, cached.Scores) {
		t.Fatal("cached scores diverge from the certified result")
	}

	// Returned scores are caller-owned: scribbling on them must not bleed
	// into later serves.
	cached.Scores[0] = math.Inf(1)
	reread, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(reread.Scores[0], 1) {
		t.Fatal("served scores alias a caller's result slice")
	}

	// Label inference over the certified ranking works and caches.
	if _, err := eng.InferLabels(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCertifiedConcurrentStress hammers one certification-enabled engine
// with concurrent Observe, Rank, RankBatch, InferLabels and View traffic.
// The writers mix real writes (fallbacks) with idempotent rewrites
// (certified hits), so both certification outcomes race the cache and
// copy-on-write protocols; run under -race this is the certified path's
// concurrency proof.
func TestCertifiedConcurrentStress(t *testing.T) {
	const iters = 50
	ctx := context.Background()
	seedM := engineWorkload(t, 80, 30, 5)
	eng, err := NewEngine(seedM, WithRankOptions(WithSeed(2), WithMaxIter(200), WithParallelism(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	tenants := tenantWorkloads(t, 3, 31)
	if _, err := eng.RankBatch(ctx, tenants); err != nil {
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
	run(func(i int) error { // real writes: certification mostly falls back
		return eng.Observe(i%eng.Users(), i%eng.Items(), i%3)
	})
	run(func(i int) error { // idempotent rewrites: guaranteed certified hits
		u, it := (i*3)%eng.Users(), (i*5)%eng.Items()
		return eng.Observe(u, it, seedM.Answer(u, it))
	})
	for k := 0; k < 2; k++ { // rankers race the certifier's cache installs
		run(func(i int) error {
			_, err := eng.Rank(ctx)
			return err
		})
	}
	run(func(i int) error { // label inference shares the cache machinery
		_, err := eng.InferLabels(ctx)
		return err
	})
	run(func(i int) error { // batcher exercises the pooled-scratch solves
		tenants[i%len(tenants)].SetAnswer(i%tenants[0].Users(), i%tenants[0].Items(), i%3)
		_, err := eng.RankBatch(ctx, tenants)
		return err
	})
	wg.Add(1)
	go func() { // viewer: COW snapshots stay consistent under certified hits
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m, _ := eng.View()
			assertNormalizedTripleConsistent(t, m)
		}
	}()
	wg.Wait()

	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatal("stress left non-finite scores behind")
		}
	}
	mm := eng.Metrics()
	if mm.CertifiedHits+mm.CertifiedFallbacks > mm.CacheMisses {
		t.Fatalf("certification attempts (%d+%d) exceed cache misses (%d)",
			mm.CertifiedHits, mm.CertifiedFallbacks, mm.CacheMisses)
	}
}

// TestCertifiedShardedConcurrentStress interleaves writes, cluster ranks,
// per-shard RankAll fan-outs and views over a 4-shard router with
// certification on — the sharded leg of the -race coverage.
func TestCertifiedShardedConcurrentStress(t *testing.T) {
	const iters = 40
	ctx := context.Background()
	seedM := engineWorkload(t, 80, 30, 9)
	eng, err := NewShardedEngine(seedM, WithShards(4),
		WithRankOptions(WithSeed(2), WithMaxIter(200), WithParallelism(1)))
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
	run(func(i int) error { // real writes across shards
		return eng.Observe(i%eng.Users(), i%eng.Items(), i%3)
	})
	run(func(i int) error { // idempotent rewrites: certified hits per shard
		u, it := (i*3)%eng.Users(), (i*5)%eng.Items()
		return eng.Observe(u, it, seedM.Answer(u, it))
	})
	run(func(i int) error {
		_, err := eng.Rank(ctx)
		return err
	})
	run(func(i int) error {
		_, err := eng.RankAll(ctx)
		return err
	})
	run(func(i int) error {
		ms, _ := eng.View()
		for _, m := range ms {
			if m == nil {
				t.Error("nil shard view")
			}
		}
		return nil
	})
	wg.Wait()

	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatal("stress left non-finite merged scores behind")
		}
	}
}

// TestCertifiedRefreshEnginesEquivalence pins the bulk refresh path: a
// fleet of engines refreshed together must produce bitwise-identical
// results with certification on vs. off, and an idempotently rewritten
// engine must be served through a certified hit instead of a full warm
// solve.
func TestCertifiedRefreshEnginesEquivalence(t *testing.T) {
	ctx := context.Background()
	mk := func(certified bool) []*Engine {
		engines := make([]*Engine, 3)
		for i := range engines {
			eng, err := NewEngine(engineWorkload(t, 50, 30, 40+int64(i)),
				WithRankOptions(WithSeed(3), WithParallelism(1)),
				WithCertifiedUpdates(certified))
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
		}
		return engines
	}
	on, off := mk(true), mk(false)
	step := func(phase string) {
		t.Helper()
		ores, err := RefreshEngines(ctx, on)
		if err != nil {
			t.Fatalf("%s: certified: %v", phase, err)
		}
		fres, err := RefreshEngines(ctx, off)
		if err != nil {
			t.Fatalf("%s: uncertified: %v", phase, err)
		}
		for i := range on {
			if !scoresEqualBits(ores[i].Scores, fres[i].Scores) {
				t.Fatalf("%s: engine %d diverges between certified and uncertified refresh", phase, i)
			}
		}
	}
	step("cold")
	// Engine 0: real write (likely fallback); engine 1: idempotent rewrite
	// (guaranteed certified hit); engine 2: untouched (cache hit).
	if err := on[0].Observe(4, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := off[0].Observe(4, 2, 1); err != nil {
		t.Fatal(err)
	}
	snap1, _ := on[1].View()
	if err := on[1].Observe(5, 3, snap1.Answer(5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := off[1].Observe(5, 3, snap1.Answer(5, 3)); err != nil {
		t.Fatal(err)
	}
	step("mixed")
	if hits := on[1].Metrics().CertifiedHits; hits != 1 {
		t.Fatalf("idempotently rewritten engine got %d certified hits, want 1", hits)
	}
	if hits := off[1].Metrics().CertifiedHits; hits != 0 {
		t.Fatalf("escape-hatch engine got %d certified hits, want 0", hits)
	}
}
