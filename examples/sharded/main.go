// Sharded serving: the horizontal-scaling face of the library. One Engine
// owns one response matrix, so its write lock, copy-on-write clone line and
// solve latency are all single-matrix-bound; a ShardedEngine hashes users
// across N independent engines and routes traffic so those costs shrink to
// 1/N each.
//
// The walkthrough measures the two serving patterns the router optimizes:
//
//  1. Snapshot-interleaved writes — every Observe racing an outstanding
//     reader snapshot pays a copy-on-write clone of its shard only, not of
//     the whole matrix.
//  2. Single-user write + full re-rank — only the written user's shard
//     re-solves (warm-started); the other shards answer from their
//     generation-keyed caches.
//
// It also shows tenant-key routing with ShardForKey and the degenerate
// single-shard configuration, which behaves exactly like a plain Engine.
//
// Run with: go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hitsndiffs"
)

func main() {
	// A large cohort: big enough that whole-matrix clones and full
	// re-solves dominate single-engine serving cost.
	cfg := hitsndiffs.DefaultGeneratorConfig(hitsndiffs.ModelSamejima)
	cfg.Users = 2000
	cfg.Items = 150
	cfg.Seed = 7
	d, err := hitsndiffs.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	for _, shards := range []int{1, 4} {
		eng, err := hitsndiffs.NewShardedEngine(d.Responses,
			hitsndiffs.WithShards(shards),
			hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(1)),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %d shard(s), %d users ---\n", eng.Shards(), eng.Users())

		// Pattern 1: writes racing reader snapshots. Each View marks every
		// shard's matrix as shared, so the following Observe must clone —
		// but only the shard owning the written user.
		const writes = 200
		start := time.Now()
		for i := 0; i < writes; i++ {
			eng.View()
			if err := eng.Observe(i%eng.Users(), i%eng.Items(), 0); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("snapshot-interleaved writes: %.0f µs/write\n",
			time.Since(start).Seconds()*1e6/writes)

		// Pattern 2: steady-state re-ranks. A single-user write dirties one
		// shard; Rank re-solves just that shard and merges it with the
		// cached scores of the rest.
		if _, err := eng.Rank(ctx); err != nil { // cold start
			log.Fatal(err)
		}
		const reranks = 20
		start = time.Now()
		for i := 0; i < reranks; i++ {
			if err := eng.Observe(i%eng.Users(), i%eng.Items(), 1); err != nil {
				log.Fatal(err)
			}
			if _, err := eng.Rank(ctx); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("write+rerank: %.1f ms/op\n",
			time.Since(start).Seconds()*1e3/reranks)
	}

	// Tenant-key routing: a multi-tenant frontend can pin each tenant's
	// side state (quotas, dashboards, answer keys) to the shard family
	// with the same hash the router uses for users.
	eng, err := hitsndiffs.NewShardedEngine(d.Responses, hitsndiffs.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	for _, tenant := range []string{"acme-университет", "globex-mooc", "initech-hr"} {
		fmt.Printf("tenant %q -> shard %d\n", tenant, eng.ShardForKey(tenant))
	}
}
