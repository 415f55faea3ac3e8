package hitsndiffs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// obsOp is one recorded observation for generation-replay: the staleness
// property tests rebuild the matrix "as of generation g" by replaying the
// first g of these onto a fresh matrix.
type obsOp struct{ user, item, option int }

// replayMatrix reconstructs the matrix state at generation g from an op
// log that starts at an empty matrix.
func replayMatrix(users, items, options int, log []obsOp, g uint64) *ResponseMatrix {
	m := NewResponseMatrix(users, items, options)
	for _, op := range log[:g] {
		m.SetAnswer(op.user, op.item, op.option)
	}
	return m
}

// seedGrid makes every user answer every item through the engine,
// recording the ops, so the matrix is dense and connected from the start.
func seedGrid(t *testing.T, eng *Engine, users, items, options int, log *[]obsOp) {
	t.Helper()
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			h := (u + i) % options
			if err := eng.Observe(u, i, h); err != nil {
				t.Fatalf("seed Observe(%d,%d,%d): %v", u, i, h, err)
			}
			*log = append(*log, obsOp{u, i, h})
		}
	}
}

// bitwiseEqual reports exact float64 equality across two score vectors.
func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStaleServesBitwiseEqualColdSolve is the from-scratch equality leg:
// an engine under a staleness bound interleaves writes and ranks, and
// every served result — stale or exact — must be bitwise equal to a
// from-scratch solve of the matrix reconstructed at the served generation.
// The reference is warm-started the way the engine was: from the scores
// of the solve before the one that produced the served result (a random
// start for the first). That and a fixed seed make it reproduce the
// engine's solve exactly.
func TestStaleServesBitwiseEqualColdSolve(t *testing.T) {
	const users, items, options, bound = 18, 8, 3, 5
	ctx := context.Background()
	eng, err := NewEngine(NewResponseMatrix(users, items, options),
		WithMaxStaleness(bound), WithRankOptions(WithSeed(11)))
	if err != nil {
		t.Fatal(err)
	}
	var log []obsOp
	seedGrid(t, eng, users, items, options, &log)

	// warmAt maps each solved generation to the warm start its solve used;
	// last holds the most recent solve's scores, the next one's warm start.
	warmAt := make(map[uint64][]float64)
	var last []float64
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 120; step++ {
		if rng.Float64() < 0.6 {
			op := obsOp{rng.Intn(users), rng.Intn(items), rng.Intn(options)}
			if err := eng.Observe(op.user, op.item, op.option); err != nil {
				t.Fatal(err)
			}
			log = append(log, op)
			continue
		}
		genBefore := eng.Generation()
		misses := eng.Metrics().CacheMisses
		res, err := eng.Rank(ctx)
		if err != nil {
			t.Fatalf("step %d: Rank: %v", step, err)
		}
		if eng.Metrics().CacheMisses != misses {
			warmAt[res.Generation] = last
			last = append([]float64(nil), res.Scores...)
		}
		if res.Staleness > bound {
			t.Fatalf("step %d: staleness %d exceeds bound %d", step, res.Staleness, bound)
		}
		if genBefore > res.Generation && genBefore-res.Generation > bound {
			t.Fatalf("step %d: served generation %d lags pre-rank frontier %d by more than %d",
				step, res.Generation, genBefore, bound)
		}
		warm, ok := warmAt[res.Generation]
		if !ok {
			t.Fatalf("step %d: served generation %d was never solved", step, res.Generation)
		}
		refOpts := []Option{WithSeed(11)}
		if warm != nil {
			refOpts = append(refOpts, WithWarmStart(warm))
		}
		asOf := replayMatrix(users, items, options, log, res.Generation)
		ref, err := HND(refOpts...).Rank(ctx, asOf)
		if err != nil {
			t.Fatalf("step %d: reference solve at generation %d: %v", step, res.Generation, err)
		}
		if !bitwiseEqual(res.Scores, ref.Scores) {
			t.Fatalf("step %d: scores at generation %d (staleness %d) differ from from-scratch solve",
				step, res.Generation, res.Staleness)
		}
	}
	if got := eng.Metrics().StaleServes; got == 0 {
		t.Fatal("workload never exercised a stale serve — the property checked nothing")
	}
}

// TestStaleServesReturnLastSolvedScores is the warm record-and-compare
// leg: with warm starts on (so from-scratch replay would diverge), every
// stale serve must return bitwise the scores that were solved at that
// generation earlier in the run.
func TestStaleServesReturnLastSolvedScores(t *testing.T) {
	const users, items, options, bound = 18, 8, 3, 4
	ctx := context.Background()
	eng, err := NewEngine(NewResponseMatrix(users, items, options),
		WithMaxStaleness(bound), WithRankOptions(WithSeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	var log []obsOp
	seedGrid(t, eng, users, items, options, &log)

	solvedAt := make(map[uint64][]float64)
	rng := rand.New(rand.NewSource(43))
	for step := 0; step < 150; step++ {
		if rng.Float64() < 0.55 {
			if err := eng.Observe(rng.Intn(users), rng.Intn(items), rng.Intn(options)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		res, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Staleness > bound {
			t.Fatalf("step %d: staleness %d exceeds bound %d", step, res.Staleness, bound)
		}
		if res.Staleness == 0 {
			solvedAt[res.Generation] = append([]float64(nil), res.Scores...)
			continue
		}
		want, ok := solvedAt[res.Generation]
		if !ok {
			t.Fatalf("step %d: stale serve at generation %d never solved", step, res.Generation)
		}
		if !bitwiseEqual(res.Scores, want) {
			t.Fatalf("step %d: stale serve at generation %d differs from the solve recorded there", step, res.Generation)
		}
	}
	if eng.Metrics().StaleServes == 0 {
		t.Fatal("workload never exercised a stale serve")
	}
}

// TestMaxStalenessZeroMatchesDefault is the golden equivalence leg: for
// every registered method, an engine with an explicit WithMaxStaleness(0)
// must behave bitwise identically to one without the option across an
// interleaved observe/rank sequence.
func TestMaxStalenessZeroMatchesDefault(t *testing.T) {
	const users, items, options = 12, 6, 2 // binary so BinaryOnly methods join
	ctx := context.Background()
	for _, method := range MethodNames() {
		t.Run(method, func(t *testing.T) {
			mk := func(extra ...EngineOption) *Engine {
				opts := append([]EngineOption{
					WithMethod(method),
					WithRankOptions(WithSeed(17), WithMaxIter(500)),
				}, extra...)
				eng, err := NewEngine(NewResponseMatrix(users, items, options), opts...)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			plain, zero := mk(), mk(WithMaxStaleness(0))
			rng := rand.New(rand.NewSource(19))
			var ops []obsOp
			for u := 0; u < users; u++ {
				for i := 0; i < items; i++ {
					ops = append(ops, obsOp{u, i, (u + i) % options})
				}
			}
			for step := 0; step < 30; step++ {
				ops = append(ops, obsOp{rng.Intn(users), rng.Intn(items), rng.Intn(options)})
			}
			ranked := false
			for k, op := range ops {
				for _, e := range []*Engine{plain, zero} {
					if err := e.Observe(op.user, op.item, op.option); err != nil {
						t.Fatal(err)
					}
				}
				if k%17 != 16 && k != len(ops)-1 {
					continue
				}
				a, errA := plain.Rank(ctx)
				b, errB := zero.Rank(ctx)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("op %d: error divergence: %v vs %v", k, errA, errB)
				}
				if errA != nil {
					continue // both reject identically (e.g. too-sparse early matrix)
				}
				ranked = true
				if !bitwiseEqual(a.Scores, b.Scores) {
					t.Fatalf("op %d: scores diverge with explicit WithMaxStaleness(0)", k)
				}
				if a.Generation != b.Generation || b.Staleness != 0 {
					t.Fatalf("op %d: tags diverge: gen %d/%d staleness %d", k, a.Generation, b.Generation, b.Staleness)
				}
			}
			if !ranked {
				t.Fatal("sequence never produced a successful rank")
			}
		})
	}
}

// TestBoundExceededForcesExactSolve checks the bound is a bound: once
// writes outrun it, the next rank solves fresh instead of serving the old
// cache.
func TestBoundExceededForcesExactSolve(t *testing.T) {
	const bound = 3
	ctx := context.Background()
	m := engineWorkload(t, 30, 12, 7)
	eng, err := NewEngine(m, WithMaxStaleness(bound), WithRankOptions(WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= bound; k++ { // bound+1 writes: one past the limit
		if err := eng.Observe(k%30, k%12, k%3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Staleness != 0 || res.Generation != eng.Generation() {
		t.Fatalf("rank beyond the bound served stale: generation %d staleness %d, frontier %d",
			res.Generation, res.Staleness, eng.Generation())
	}
}

// TestRefreshIgnoresBound checks Refresh is the watermark-pushing path:
// it re-solves to the frontier even while Rank happily serves stale, and
// the next Rank is fresh again.
func TestRefreshIgnoresBound(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 30, 12, 9)
	eng, err := NewEngine(m, WithMaxStaleness(10), WithRankOptions(WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := eng.Observe(k, k%12, k%3); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Staleness != 4 {
		t.Fatalf("rank within bound: staleness %d, want 4", stale.Staleness)
	}
	ref, err := eng.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Staleness != 0 || ref.Generation != eng.Generation() {
		t.Fatalf("Refresh served stale: generation %d staleness %d", ref.Generation, ref.Staleness)
	}
	after, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Staleness != 0 || !bitwiseEqual(after.Scores, ref.Scores) {
		t.Fatalf("rank after Refresh not the refreshed result (staleness %d)", after.Staleness)
	}
	if got := eng.Metrics().ServedGeneration; got != eng.Generation() {
		t.Fatalf("served watermark %d, want frontier %d", got, eng.Generation())
	}
}

// TestInferLabelsAlwaysExact checks label inference never rides the
// staleness bound: the labels and the ranking they derive from reflect
// the current matrix even when a stale cached ranking is available.
func TestInferLabelsAlwaysExact(t *testing.T) {
	ctx := context.Background()
	m := engineWorkload(t, 30, 12, 13)
	eng, err := NewEngine(m, WithMaxStaleness(10), WithRankOptions(WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := eng.Observe(k, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if res, _ := eng.Rank(ctx); res.Staleness == 0 {
		t.Fatal("setup failed: rank should be serving stale here")
	}
	if _, _, err := eng.InferLabels(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Staleness != 0 || res.Generation != eng.Generation() {
		t.Fatalf("rank after InferLabels stale: generation %d staleness %d, frontier %d",
			res.Generation, res.Staleness, eng.Generation())
	}
}

// TestShardedStalenessBound checks the router-level bound: the merged
// cache serves within the bound (tagged with the cluster generation sum),
// writes past it force a fresh merge, Refresh pushes the watermark, and
// the shard engines themselves never serve stale.
func TestShardedStalenessBound(t *testing.T) {
	const bound = 5
	ctx := context.Background()
	se, err := NewShardedEngine(engineWorkload(t, 48, 12, 61),
		WithShards(3), WithMaxStaleness(bound), WithRankOptions(WithSeed(9)))
	if err != nil {
		t.Fatal(err)
	}
	base, err := se.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if base.Staleness != 0 || base.Generation != se.Generation() {
		t.Fatalf("first rank: generation %d staleness %d, frontier %d", base.Generation, base.Staleness, se.Generation())
	}

	for k := 0; k < bound-1; k++ {
		if err := se.Observe(k, k%12, k%3); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := se.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Staleness != uint64(bound-1) || !bitwiseEqual(stale.Scores, base.Scores) {
		t.Fatalf("within-bound rank: staleness %d (want %d), scores equal=%v",
			stale.Staleness, bound-1, bitwiseEqual(stale.Scores, base.Scores))
	}
	for _, sm := range se.ShardMetrics() {
		if sm.MaxStaleness != 0 || sm.StaleServes != 0 {
			t.Fatalf("shard engine has staleness enabled: %+v", sm)
		}
	}
	agg := se.Metrics()
	if agg.StaleServes == 0 || agg.MaxStaleness != bound {
		t.Fatalf("router metrics: stale serves %d, bound %d", agg.StaleServes, agg.MaxStaleness)
	}

	ref, err := se.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Staleness != 0 || ref.Generation != se.Generation() {
		t.Fatalf("Refresh: generation %d staleness %d, frontier %d", ref.Generation, ref.Staleness, se.Generation())
	}
	after, err := se.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Staleness != 0 || !bitwiseEqual(after.Scores, ref.Scores) {
		t.Fatal("rank after Refresh not the refreshed merge")
	}

	for k := 0; k <= bound; k++ { // now exceed the bound
		if err := se.Observe(k+8, k%12, k%3); err != nil {
			t.Fatal(err)
		}
	}
	exact, err := se.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Staleness != 0 || exact.Generation != se.Generation() {
		t.Fatalf("rank past the bound served stale: staleness %d", exact.Staleness)
	}
}

// TestStalenessInvariantUnderConcurrency is the race leg: writers, rank
// readers, view readers and a refresher interleave freely on one bounded
// engine, and every observation of the system must satisfy the staleness
// invariant — a result's generation never lags the frontier read before
// the call by more than the bound.
func TestStalenessInvariantUnderConcurrency(t *testing.T) {
	const users, items, options, bound = 24, 10, 3, 6
	ctx := context.Background()
	eng, err := NewEngine(engineWorkload(t, users, items, 71),
		WithMaxStaleness(bound), WithRankOptions(WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 16)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	for w := 0; w < 2; w++ { // writers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(w)))
			for k := 0; k < 300; k++ {
				if err := eng.Observe(rng.Intn(users), rng.Intn(items), rng.Intn(options)); err != nil {
					report("writer: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ { // rank readers holding the invariant
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 150; k++ {
				genBefore := eng.Generation()
				res, err := eng.Rank(ctx)
				if err != nil {
					report("rank: %v", err)
					return
				}
				if res.Staleness > bound {
					report("staleness %d exceeds bound %d", res.Staleness, bound)
					return
				}
				if genBefore > res.Generation && genBefore-res.Generation > bound {
					report("served generation %d lags frontier %d beyond bound", res.Generation, genBefore)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // view reader
		defer wg.Done()
		for k := 0; k < 200; k++ {
			v, _ := eng.View()
			_ = v.Generation()
		}
	}()
	wg.Add(1)
	go func() { // refresher: always exact
		defer wg.Done()
		for k := 0; k < 40; k++ {
			res, err := eng.Refresh(ctx)
			if err != nil {
				report("refresh: %v", err)
				return
			}
			if res.Staleness != 0 {
				report("Refresh returned staleness %d", res.Staleness)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
