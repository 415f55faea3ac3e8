package hitsndiffs_test

import (
	"context"
	"fmt"

	"hitsndiffs"
)

// The paper's Figure 1: four users answer three multiple-choice questions;
// responses are consistent with the ability order u0 > u1 > u2 > u3.
func ExampleHND() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0}, // u0: best option everywhere
		{0, 0, 2},
		{0, 1, 2},
		{1, 2, 2}, // u3: weakest
	}, 3)
	res, err := hitsndiffs.HND().Rank(context.Background(), m)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Order())
	// Output: [0 1 2 3]
}

func ExampleIsConsistent() {
	consistent := hitsndiffs.FromChoices([][]int{
		{0, 0},
		{0, 1},
		{1, 1},
	}, 2)
	fmt.Println(hitsndiffs.IsConsistent(consistent))

	// u0 best on item 0 but worst on item 1, u2 the reverse: no single
	// ability ordering explains both columns of each option.
	inconsistent := hitsndiffs.FromChoices([][]int{
		{0, 1, 1},
		{1, 0, 1},
		{1, 1, 0},
	}, 2)
	fmt.Println(hitsndiffs.IsConsistent(inconsistent))
	// Output:
	// true
	// false
}

func ExampleSpearman() {
	truth := []float64{3, 2, 1}
	estimate := []float64{30, 20, 10} // same order, different scale
	fmt.Printf("%.1f\n", hitsndiffs.Spearman(truth, estimate))
	// Output: 1.0
}

func ExampleInferLabels() {
	// Two reliable users agree on option 0 of both items; one weak user
	// dissents. Weighted by the HND ranking, the inferred truths follow
	// the reliable pair.
	m := hitsndiffs.FromChoices([][]int{
		{0, 0},
		{0, 0},
		{1, 1},
	}, 2)
	res, err := hitsndiffs.HND().Rank(context.Background(), m)
	if err != nil {
		panic(err)
	}
	labels, err := hitsndiffs.InferLabels(m, res.Scores)
	if err != nil {
		panic(err)
	}
	fmt.Println(labels)
	// Output: [0 0]
}

// Resolve a method by registry name with options.
func ExampleNew() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0},
		{0, 0, 2},
		{0, 1, 2},
		{1, 2, 2},
	}, 3)
	r, err := hitsndiffs.New("HnD-power", hitsndiffs.WithTol(1e-6), hitsndiffs.WithSeed(1))
	if err != nil {
		panic(err)
	}
	res, err := r.Rank(context.Background(), m)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Order())
	// Output: [0 1 2 3]
}

// Take an O(1) copy-on-write snapshot: the view stays frozen at its
// version while writers move the engine on.
func ExampleEngine_View() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0},
		{0, 0, 2},
		{0, 1, 2},
		{1, 2, 2},
	}, 3)
	eng, err := hitsndiffs.NewEngine(m)
	if err != nil {
		panic(err)
	}

	view, version := eng.View() // O(1): no copy until someone writes

	// The engine clones before applying the next write, so the view is
	// immutable — it still sees user 3's original answer afterwards.
	if err := eng.Observe(3, 0, 0); err != nil {
		panic(err)
	}
	fmt.Println("view:", view.Answer(3, 0), "at version", version)

	current, now := eng.View()
	fmt.Println("live:", current.Answer(3, 0), "at version", now)
	// Output:
	// view: 1 at version 0
	// live: 0 at version 1
}

// Cap the kernel fan-out of one method. Row-parallel products are bitwise
// identical for every worker count, so the ranking never depends on the
// parallelism knob.
func ExampleWithParallelism() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0},
		{0, 0, 2},
		{0, 1, 2},
		{1, 2, 2},
	}, 3)
	serial, err := hitsndiffs.New("HnD-power", hitsndiffs.WithSeed(1), hitsndiffs.WithParallelism(1))
	if err != nil {
		panic(err)
	}
	wide, err := hitsndiffs.New("HnD-power", hitsndiffs.WithSeed(1), hitsndiffs.WithParallelism(4))
	if err != nil {
		panic(err)
	}
	a, err := serial.Rank(context.Background(), m)
	if err != nil {
		panic(err)
	}
	b, err := wide.Rank(context.Background(), m)
	if err != nil {
		panic(err)
	}
	fmt.Println(a.Order(), b.Order())
	// Output: [0 1 2 3] [0 1 2 3]
}

// Scale horizontally: hash users across independent engine shards, absorb a
// write burst with one fanned-out batch, and read one merged ranking.
func ExampleShardedEngine() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0}, // user 0: best option everywhere
		{0, 0, 1},
		{0, 1, 1},
		{0, 1, 2},
		{1, 1, 2},
		{1, 2, 2}, // user 5: weakest
	}, 3)
	eng, err := hitsndiffs.NewShardedEngine(m,
		hitsndiffs.WithShards(2),
		hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(1)),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("shards:", eng.Shards(), "users:", eng.Users())

	// One batch, validated up front, split by owning shard, applied with
	// one lock acquisition and one version bump per touched shard.
	err = eng.ObserveBatch([]hitsndiffs.Observation{
		{User: 4, Item: 0, Option: 0},
		{User: 5, Item: 0, Option: 0},
	})
	if err != nil {
		panic(err)
	}

	// Shards rank concurrently; per-shard scores are min-max normalized
	// and merged deterministically.
	res, err := eng.Rank(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("ranked", len(res.Scores), "users, converged:", res.Converged)
	// Output:
	// shards: 2 users: 6
	// ranked 6 users, converged: true
}

// Read the raw per-shard rankings: stale shards are re-solved
// concurrently, warm shards answer from their caches, and scores come
// back in shard-local indexing.
func ExampleShardedEngine_RankAll() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0}, // user 0: best option everywhere
		{0, 0, 1},
		{0, 1, 1},
		{0, 1, 2},
		{1, 1, 2},
		{1, 2, 2}, // user 5: weakest
	}, 3)
	eng, err := hitsndiffs.NewShardedEngine(m,
		hitsndiffs.WithShards(2),
		hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(1)),
	)
	if err != nil {
		panic(err)
	}
	results, err := eng.RankAll(context.Background())
	if err != nil {
		panic(err)
	}
	for sh, res := range results {
		// UsersOf translates the shard-local score indices back to global
		// user indices.
		fmt.Printf("shard %d serves users %v (%d scores, converged %v)\n",
			sh, eng.UsersOf(sh), len(res.Scores), res.Converged)
	}
	// Output:
	// shard 0 serves users [0 2 3 4 5] (5 scores, converged true)
	// shard 1 serves users [1] (1 scores, converged true)
}

// Serve a live workload: observe a new response, re-rank, infer labels.
func ExampleEngine() {
	m := hitsndiffs.FromChoices([][]int{
		{0, 0, 0},
		{0, 0, 2},
		{0, 1, 2},
		{1, 2, 2},
	}, 3)
	eng, err := hitsndiffs.NewEngine(m)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	res, err := eng.Rank(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Order(), "version", eng.Version())

	// User 3 corrects their first answer; the next Rank re-ranks
	// warm-started from the previous scores.
	if err := eng.Observe(3, 0, 0); err != nil {
		panic(err)
	}
	res, err = eng.Rank(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Order(), "version", eng.Version())
	// Output:
	// [0 1 2 3] version 0
	// [0 1 2 3] version 1
}
