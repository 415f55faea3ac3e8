package hitsndiffs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedMethod is HnD-power behind a gate a test can hold shut, so a solve
// can be kept in flight while the test writes, adopts or cancels around
// it. With no gate shut it solves exactly as HnD-power.
const gatedMethod = "test-gated"

// solveGate holds every gated solve: each sends on entered, then waits
// until open is called or its context ends.
type solveGate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *solveGate) open() { g.once.Do(func() { close(g.release) }) }

var (
	activeGate   atomic.Pointer[solveGate]
	registerGate sync.Once
)

type gatedRanker struct{ inner Ranker }

func (gatedRanker) Name() string { return gatedMethod }

func (g gatedRanker) Rank(ctx context.Context, m *ResponseMatrix) (Result, error) {
	if gt := activeGate.Load(); gt != nil {
		gt.entered <- struct{}{}
		select {
		case <-gt.release:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
	}
	return g.inner.Rank(ctx, m)
}

// holdSolves shuts the gated method's gate for the rest of the test.
func holdSolves(t *testing.T) *solveGate {
	t.Helper()
	registerGate.Do(func() {
		err := Register(MethodInfo{Name: gatedMethod, Summary: "HnD-power behind a test gate", Iterative: true},
			func(opts ...Option) Ranker {
				r, err := New("HnD-power", opts...)
				if err != nil {
					panic(err)
				}
				return gatedRanker{inner: r}
			})
		if err != nil {
			t.Fatal(err)
		}
	})
	gt := &solveGate{entered: make(chan struct{}, 64), release: make(chan struct{})}
	activeGate.Store(gt)
	t.Cleanup(func() {
		gt.open()
		activeGate.Store(nil)
	})
	return gt
}

// reanswered returns a fresh matrix in which user u answers as m's user
// perm[u] (every user in order when perm is nil), written one cell at a
// time, so its generation is users × items whatever the answers.
func reanswered(m *ResponseMatrix, perm []int) *ResponseMatrix {
	options := make([]int, m.Items())
	for i := range options {
		options[i] = m.OptionCount(i)
	}
	out := NewResponseMatrix(m.Users(), m.Items(), options...)
	for u := 0; u < m.Users(); u++ {
		src := u
		if perm != nil {
			src = perm[u]
		}
		for i := 0; i < m.Items(); i++ {
			out.SetAnswer(u, i, m.Answer(src, i))
		}
	}
	return out
}

// TestEngineWaiterCancellationLeavesFlightRunning: a caller whose context
// ends while it waits on another call's solve returns ctx.Err() at once,
// and the solve runs on to fill the cache.
func TestEngineWaiterCancellationLeavesFlightRunning(t *testing.T) {
	ctx := context.Background()
	gt := holdSolves(t)
	eng, err := NewEngine(engineWorkload(t, 60, 20, 5), WithMethod(gatedMethod), WithRankOptions(WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res Result
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		res, err := eng.Rank(ctx)
		leader <- outcome{res, err}
	}()
	<-gt.entered // the leader's solve is in flight

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	waited := make(chan error, 2)
	go func() {
		_, err := eng.Refresh(canceled)
		waited <- err
		_, _, err = eng.InferLabels(canceled)
		waited <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-waited:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled waiter %d: err = %v, want context.Canceled", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a canceled waiter is still waiting on the flight")
		}
	}
	if misses := eng.Metrics().CacheMisses; misses != 1 {
		t.Fatalf("canceled waiters started %d solves, want only the leader's", misses)
	}

	gt.open()
	got := <-leader
	if got.err != nil || got.res.Coalesced {
		t.Fatalf("leader after its waiters gave up: err %v coalesced %v", got.err, got.res.Coalesced)
	}
	again, err := eng.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.CacheMisses != 1 || m.CacheHits != 1 || !scoresEqualBits(again.Scores, got.res.Scores) {
		t.Fatalf("the flight did not fill the cache: %d misses %d hits", m.CacheMisses, m.CacheHits)
	}
}

// TestEngineLeaderCancellationSparesWaiters: when the caller that started
// a solve gives up, the calls waiting on it do not fail — they solve
// again, once between them, and get the scores a fresh solve gives.
func TestEngineLeaderCancellationSparesWaiters(t *testing.T) {
	ctx := context.Background()
	gt := holdSolves(t)
	m := engineWorkload(t, 60, 20, 5)
	eng, err := NewEngine(m, WithMethod(gatedMethod), WithRankOptions(WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(ctx)
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.Rank(leaderCtx)
		leaderErr <- err
	}()
	<-gt.entered // the leader's solve is in flight

	const waiters = 3
	results := make([]Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 2 {
				_, _, errs[i] = eng.InferLabels(ctx)
				return
			}
			results[i], errs[i] = eng.Rank(ctx)
		}(i)
	}
	// Give the waiters time to join the leader's flight. Were they late,
	// they would start the second solve themselves: every assertion below
	// holds either way.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader: err = %v, want context.Canceled", err)
	}
	waitersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(waitersDone)
	}()
	select {
	case <-gt.entered: // one waiter re-solves
	case <-waitersDone: // the waiters gave up with their leader: reported below
	}
	gt.open()
	<-waitersDone
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d failed with its leader: %v", i, err)
		}
	}
	if misses := eng.Metrics().CacheMisses; misses != 2 {
		t.Fatalf("%d solves, want the canceled one and one retry", misses)
	}
	r, err := New("HnD-power", WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Rank(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !scoresEqualBits(results[i].Scores, want.Scores) {
			t.Fatalf("waiter %d: scores differ from a fresh solve", i)
		}
	}
}

// TestInferLabelsReportsSolvedGeneration: labels whose solve a write
// overtakes carry the generation the solve read, not the one the engine
// reached meanwhile.
func TestInferLabelsReportsSolvedGeneration(t *testing.T) {
	ctx := context.Background()
	gt := holdSolves(t)
	m := engineWorkload(t, 60, 20, 5)
	eng, err := NewEngine(m, WithMethod(gatedMethod), WithRankOptions(WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()
	type outcome struct {
		labels []int
		gen    uint64
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		labels, gen, err := eng.InferLabels(ctx)
		done <- outcome{labels, gen, err}
	}()
	<-gt.entered // the labels' solve is in flight
	if err := eng.Observe(0, 0, (m.Answer(0, 0)+1)%m.OptionCount(0)); err != nil {
		t.Fatal(err)
	}
	gt.open()
	got := <-done
	r, err := New("HnD-power", WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Rank(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := InferLabels(m, res.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if got.err != nil || got.gen != gen || !equalInts(got.labels, want) {
		t.Fatalf("labels overtaken by a write: generation %d err %v, want the labels of generation %d", got.gen, got.err, gen)
	}
	if _, next, err := eng.InferLabels(ctx); err != nil || next != gen+1 {
		t.Fatalf("labels after the write: generation %d err %v, want %d", next, err, gen+1)
	}
}

// TestAdoptEqualGenerationServesAdoptedMatrix: Adopt of a matrix with the
// generation of the one it replaces but other answers must not keep
// serving the old cache — the scores, the labels, and a solve that was
// in flight across the adopt.
func TestAdoptEqualGenerationServesAdoptedMatrix(t *testing.T) {
	ctx := context.Background()
	a := reanswered(engineWorkload(t, 60, 20, 7), nil)
	b := reanswered(engineWorkload(t, 60, 20, 8), nil)
	gen := a.Generation()
	if b.Generation() != gen {
		t.Fatalf("generations %d and %d, want equal", gen, b.Generation())
	}
	ref, err := NewEngine(b, WithRankOptions(WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, _, err := ref.InferLabels(ctx)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("cached", func(t *testing.T) {
		eng, err := NewEngine(a, WithRankOptions(WithSeed(2)))
		if err != nil {
			t.Fatal(err)
		}
		oldLabels, _, err := eng.InferLabels(ctx) // caches scores and labels at gen
		if err != nil {
			t.Fatal(err)
		}
		if equalInts(oldLabels, wantLabels) {
			t.Fatal("the two workloads infer the same labels; the test cannot tell them apart")
		}
		if err := eng.Adopt(b); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Generation != gen || !scoresEqualBits(got.Scores, want.Scores) {
			t.Fatalf("rank after Adopt at generation %d does not serve the adopted matrix", got.Generation)
		}
		labels, labelGen, err := eng.InferLabels(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if labelGen != gen || !equalInts(labels, wantLabels) {
			t.Fatalf("labels after Adopt at generation %d: %v, want %v", labelGen, labels, wantLabels)
		}
	})

	t.Run("straddling-solve", func(t *testing.T) {
		gt := holdSolves(t)
		eng, err := NewEngine(a, WithMethod(gatedMethod), WithRankOptions(WithSeed(2)))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := eng.Rank(ctx)
			done <- err
		}()
		<-gt.entered // a solve of a is in flight
		if err := eng.Adopt(b); err != nil {
			t.Fatal(err)
		}
		gt.open()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		got, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if misses := eng.Metrics().CacheMisses; misses != 2 {
			t.Fatalf("rank after Adopt: %d solves in all, want 2 (the straddling solve must not install)", misses)
		}
		if got.Generation != gen {
			t.Fatalf("rank after Adopt at generation %d, want %d", got.Generation, gen)
		}
		// The straddling solve read the replaced matrix, so it must not
		// seed this solve: the adopted matrix's first solve starts cold,
		// bitwise the rank a fresh engine gives it.
		if !scoresEqualBits(got.Scores, want.Scores) {
			t.Fatalf("rank after Adopt is not the adopted matrix's cold solve (Spearman %.6f)", Spearman(got.Scores, want.Scores))
		}
	})
}

// TestAdoptShardEqualGenerationServesAdoptedMatrix: AdoptShard of a shard
// matrix with the shard's generation but other answers must drop the
// router's merged cache and the shard's too-sparse verdict, and a merge
// whose fan-out straddles the adopt must not install.
func TestAdoptShardEqualGenerationServesAdoptedMatrix(t *testing.T) {
	ctx := context.Background()
	w := shardTestMatrix(t, 60, 12)
	opts := []EngineOption{WithShards(4), WithRankOptions(WithSeed(5))}
	ref, err := NewShardedEngine(w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Rank(ctx)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("cached", func(t *testing.T) {
		// Shard 1's users answer nothing at first: too sparse to rank.
		silent := w.Clone()
		for _, u := range ref.UsersOf(1) {
			for i := 0; i < silent.Items(); i++ {
				silent.SetAnswer(u, i, Unanswered)
			}
		}
		se, err := NewShardedEngine(silent, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// A shard's generation counts the answers it was built with, so
		// the silent shard starts behind the matrix it adopts: idempotent
		// retracts of an unanswered cell bring it level, answering nothing.
		adopted := w.Subset(se.UsersOf(1))
		rewrites := make([]Observation, adopted.Generation())
		for i := range rewrites {
			rewrites[i] = Observation{User: se.UsersOf(1)[0], Item: 0, Option: Unanswered}
		}
		if err := se.ObserveBatch(rewrites); err != nil {
			t.Fatal(err)
		}
		if _, err := se.Rank(ctx); err != nil {
			t.Fatal(err)
		}
		if g, _ := se.ShardGeneration(1); g != adopted.Generation() {
			t.Fatalf("shard generation %d, adopted %d: want equal", g, adopted.Generation())
		}
		if err := se.AdoptShard(1, adopted); err != nil {
			t.Fatal(err)
		}
		got, err := se.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Generation != want.Generation || !scoresEqualBits(got.Scores, want.Scores) {
			t.Fatal("rank after AdoptShard serves the merge from before the adopt")
		}
	})

	t.Run("straddling-merge", func(t *testing.T) {
		gt := holdSolves(t)
		se, err := NewShardedEngine(w, append([]EngineOption{WithMethod(gatedMethod)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		view, _, err := se.ShardView(1)
		if err != nil {
			t.Fatal(err)
		}
		reverse := make([]int, view.Users())
		for u := range reverse {
			reverse[u] = len(reverse) - 1 - u
		}
		adopted := reanswered(view, reverse)
		done := make(chan error, 1)
		go func() {
			_, err := se.Rank(ctx)
			done <- err
		}()
		for sh := 0; sh < se.Shards(); sh++ {
			<-gt.entered // every shard solve of the merge is in flight
		}
		if err := se.AdoptShard(1, adopted); err != nil {
			t.Fatal(err)
		}
		gt.open()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		hits := se.Metrics().CacheHits
		shardMisses := se.ShardMetrics()[1].CacheMisses
		got, err := se.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Not a router hit: the three unwritten shards answer from their
		// caches and the adopted one solves.
		if d := se.Metrics().CacheHits - hits; d != uint64(se.Shards()-1) {
			t.Fatalf("rank after a straddled merge: %d cache hits, want %d shard hits and no merged hit", d, se.Shards()-1)
		}
		if d := se.ShardMetrics()[1].CacheMisses - shardMisses; d != 1 {
			t.Fatalf("adopted shard solved %d times, want 1", d)
		}
		refAdopted, err := NewShardedEngine(w, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := refAdopted.AdoptShard(1, adopted); err != nil {
			t.Fatal(err)
		}
		wantAdopted, err := refAdopted.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Generation != wantAdopted.Generation {
			t.Fatalf("merged generation %d, want %d", got.Generation, wantAdopted.Generation)
		}
		if rho := Spearman(got.Scores, wantAdopted.Scores); rho < 0.999 {
			t.Fatalf("rank after AdoptShard: Spearman %.4f against the adopted cluster's", rho)
		}
	})
}

func equalInts(a, b []int) bool {
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
