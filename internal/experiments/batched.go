package experiments

import (
	"context"
	"fmt"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/irt"
)

// BatchedConfig tunes the batched multi-tenant ranking sweep.
type BatchedConfig struct {
	// MaxTenants bounds the swept tenant counts (1, 2, 4, ... ≤ MaxTenants).
	MaxTenants int
	// Seed seeds the synthetic tenant workloads and the solves.
	Seed int64
	// Quick shrinks the workload for smoke runs.
	Quick bool
}

// BatchedServing measures multi-tenant ranking latency across tenant
// counts in the steady-state serving pattern (one tenant written, every
// tenant's ranking refreshed): the cache-free loop of solo cold solves
// against Engine.RankBatch, whose refresh serves the unwritten tenants
// from the per-tenant version cache and re-solves the written one
// warm-started. It is the experiments-harness twin of
// BenchmarkBatchedRank.
func BatchedServing(ctx context.Context, cfg BatchedConfig) (*Table, error) {
	users, items, refreshes := 120, 60, 12
	if cfg.Quick {
		users, items, refreshes = 60, 40, 6
	}

	const seqCol, batchCol, speedupCol = "sequential ms/op", "batched ms/op", "speedup"
	t := NewTable("batched-serving",
		fmt.Sprintf("multi-tenant write+refresh latency, %dx%d per tenant", users, items),
		"tenants", "latency", []string{seqCol, batchCol, speedupCol})

	max := cfg.MaxTenants
	if max < 1 {
		max = 1
	}
	for n := 1; n <= max; n *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tenants := make([]*hitsndiffs.ResponseMatrix, n)
		for i := range tenants {
			gen := irt.DefaultConfig(irt.ModelSamejima)
			gen.Users, gen.Items, gen.Seed = users, items, cfg.Seed+int64(i)
			gen.DiscriminationMax = 2
			d, err := irt.Generate(gen)
			if err != nil {
				return nil, err
			}
			tenants[i] = d.Responses
		}
		write := func(m *hitsndiffs.ResponseMatrix, i int) {
			item := i % m.Items()
			m.SetAnswer(i%m.Users(), item, i%m.OptionCount(item))
		}

		start := time.Now()
		for i := 0; i < refreshes; i++ {
			write(tenants[i%n], i)
			for _, m := range tenants {
				if _, err := hitsndiffs.HND(hitsndiffs.WithSeed(cfg.Seed)).Rank(ctx, m); err != nil {
					return nil, err
				}
			}
		}
		seqMS := time.Since(start).Seconds() * 1e3 / float64(refreshes)

		eng, err := hitsndiffs.NewEngine(hitsndiffs.NewResponseMatrix(2, 1, 2),
			hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		if _, err := eng.RankBatch(ctx, tenants); err != nil { // common cold start
			return nil, err
		}
		start = time.Now()
		for i := 0; i < refreshes; i++ {
			write(tenants[i%n], i)
			if _, err := eng.RankBatch(ctx, tenants); err != nil {
				return nil, err
			}
		}
		batchMS := time.Since(start).Seconds() * 1e3 / float64(refreshes)

		t.AddRow(float64(n), map[string]float64{
			seqCol:     seqMS,
			batchCol:   batchMS,
			speedupCol: seqMS / batchMS,
		})
	}
	return t, nil
}
