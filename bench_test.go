// Benchmarks: one target per paper table/figure (the workload each figure
// times or sweeps), plus the ablation benches called out in DESIGN.md.
// Regenerate the actual figure rows with:  go run ./cmd/experiments all
package hitsndiffs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hitsndiffs/internal/core"
	"hitsndiffs/internal/dataset"
	"hitsndiffs/internal/eigen"
	"hitsndiffs/internal/grmest"
	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
	"hitsndiffs/internal/truth"
)

// genOrDie generates a default-shaped dataset for a model.
func genOrDie(b *testing.B, model irt.ModelKind, mutate func(*irt.Config)) *irt.Dataset {
	b.Helper()
	cfg := irt.DefaultConfig(model)
	cfg.Seed = 7
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchMethods runs each ranker as a sub-benchmark on the same matrix.
func benchMethods(b *testing.B, m *response.Matrix, methods []core.Ranker) {
	b.Helper()
	for _, r := range methods {
		r := r
		b.Run(r.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Rank(context.Background(), m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func figure4Methods(correct []int) []core.Ranker {
	return []core.Ranker{
		core.HNDPower{},
		core.ABHPower{},
		truth.HITS{},
		truth.TruthFinder{},
		truth.Investment{},
		truth.PooledInvestment{},
		truth.TrueAnswer{Correct: correct},
	}
}

// BenchmarkFig4aVaryQuestionsGRM times the Figure 4a point (GRM, default
// m=n=100) for every competitor.
func BenchmarkFig4aVaryQuestionsGRM(b *testing.B) {
	d := genOrDie(b, irt.ModelGRM, nil)
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4bVaryQuestionsBock times the Figure 4b point (Bock).
func BenchmarkFig4bVaryQuestionsBock(b *testing.B) {
	d := genOrDie(b, irt.ModelBock, nil)
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4cVaryQuestionsSamejima times the Figure 4c point (Samejima).
func BenchmarkFig4cVaryQuestionsSamejima(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, nil)
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4dVaryUsers times the Figure 4d workload at its largest
// swept size that stays benchmark-friendly (m=800).
func BenchmarkFig4dVaryUsers(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Users = 800 })
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4eVaryOptions times the Figure 4e workload at k=6.
func BenchmarkFig4eVaryOptions(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Options = 6 })
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4fVaryDifficulty times the hardest difficulty window of
// Figure 4f.
func BenchmarkFig4fVaryDifficulty(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) {
		c.DifficultyLow, c.DifficultyHigh = 0.5, 1.5
	})
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4gVaryAnswerProb times the sparsest Figure 4g workload
// (p=0.6).
func BenchmarkFig4gVaryAnswerProb(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.AnswerProb = 0.6 })
	benchMethods(b, d.Responses, figure4Methods(d.Correct))
}

// BenchmarkFig4hC1P times the consistent-data workload of Figure 4h for
// the three methods that can solve it exactly.
func BenchmarkFig4hC1P(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelGRM)
	cfg.Seed = 7
	d, err := irt.GenerateC1P(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchMethods(b, d.Responses, []core.Ranker{
		core.HNDPower{},
		core.ABHPower{},
		BL(),
	})
}

// BenchmarkFig5aScaleUsers times the Figure 5a scaling workloads: the
// power implementations across growing user counts (n fixed at 100).
func BenchmarkFig5aScaleUsers(b *testing.B) {
	for _, m := range []int{100, 1000, 5000} {
		d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Users = m })
		for _, r := range []core.Ranker{core.HNDPower{}, core.HNDDeflation{}, core.ABHPower{}} {
			r := r
			b.Run(fmt.Sprintf("%s/m=%d", r.Name(), m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Rank(context.Background(), d.Responses); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5bScaleQuestions times the Figure 5b scaling workloads
// (m fixed at 100, n growing).
func BenchmarkFig5bScaleQuestions(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Items = n })
		for _, r := range []core.Ranker{core.HNDPower{}, core.ABHPower{}} {
			r := r
			b.Run(fmt.Sprintf("%s/n=%d", r.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Rank(context.Background(), d.Responses); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHNDPowerInnerLoop isolates one iteration of the HND power loop
// — the O(mn) body every Figure 5 data point repeats thousands of times.
// With an owned Workspace it must report 0 allocs/op: every buffer is
// preallocated and reused.
func BenchmarkHNDPowerInnerLoop(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Users = 1000 })
	ws := core.NewUpdate(d.Responses).NewWorkspace()
	users := d.Responses.Users()
	sdiff := mat.Ones(users - 1)
	sdiff.Normalize()
	s := mat.NewVector(users)
	us := mat.NewVector(users)
	next := mat.NewVector(users - 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.CumSumShift(s, sdiff)
		ws.ApplyU(us, s)
		mat.Diff(next, us)
		next.Normalize()
		_ = mat.FlipInvariantDist(next, sdiff)
		copy(sdiff, next)
	}
}

// BenchmarkApplyU times one U·s apply — the transpose scatter and the row
// pass every power step runs — on servebench write-rank's shape: GRM
// 2000×100×3 at answer probability 0.5 with 56% of the answers loaded,
// about 56k non-zeros in 32 pages. It reports ns per non-zero next to
// ns/op (one apply reads every non-zero twice) and must report 0
// allocs/op.
func BenchmarkApplyU(b *testing.B) {
	d := genOrDie(b, irt.ModelGRM, func(c *irt.Config) { c.Users, c.AnswerProb = 2000, 0.5 })
	m := d.Responses
	rng := rand.New(rand.NewSource(1))
	for u := 0; u < m.Users(); u++ {
		for i := 0; i < m.Items(); i++ {
			if m.Answer(u, i) != response.Unanswered && rng.Float64() >= 0.56 {
				m.SetAnswer(u, i, response.Unanswered)
			}
		}
	}
	upd := core.NewUpdate(m)
	nnz := 0
	for _, p := range upd.Pages {
		nnz += p.NNZ()
	}
	ws := upd.NewWorkspace()
	sdiff := mat.Ones(m.Users() - 1)
	sdiff.Normalize()
	s := mat.CumSumShift(mat.NewVector(m.Users()), sdiff)
	us := mat.NewVector(m.Users())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ApplyU(us, s)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/nnz")
}

// BenchmarkFig5GRMEstimator times the GRM-estimator curve of Figure 5 at a
// small size (it is orders of magnitude slower than the spectral methods).
func BenchmarkFig5GRMEstimator(b *testing.B) {
	d := genOrDie(b, irt.ModelGRM, func(c *irt.Config) { c.Users, c.Items = 50, 50 })
	est := grmest.Estimator{Opts: grmest.Options{EMIterations: 10}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Rank(context.Background(), d.Responses); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Stability times one stability measurement of Figure 6: the
// two difference eigenvectors on the Section IV-D workload.
func BenchmarkFig6Stability(b *testing.B) {
	d := genOrDie(b, irt.ModelGRM, nil)
	b.Run("HnD-diffvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.DiffEigenvector(context.Background(), d.Responses, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ABH-diffvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ABHDiffEigenvector(context.Background(), d.Responses, core.Options{}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7RealWorld times HND on each simulated real-world dataset of
// Figures 7/11.
func BenchmarkFig7RealWorld(b *testing.B) {
	for _, spec := range dataset.RealWorldSpecs {
		d, err := dataset.SimulatedRealWorld(spec, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (core.HNDPower{}).Rank(context.Background(), d.Responses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Discrimination times the extreme discrimination workloads
// of Figures 9i–9k.
func BenchmarkFig9Discrimination(b *testing.B) {
	for _, amax := range []float64{2.5, 40} {
		d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.DiscriminationMax = amax })
		b.Run(fmt.Sprintf("amax=%g", amax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (core.HNDPower{}).Rank(context.Background(), d.Responses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12AmericanExperience times the simulated DeMars workload of
// Figure 12 (class-sized cohort).
func BenchmarkFig12AmericanExperience(b *testing.B) {
	d := dataset.AmericanExperience(100, 3)
	benchMethods(b, d.Responses, []core.Ranker{
		core.HNDPower{},
		core.ABHPower{},
		truth.HITS{},
		truth.PooledInvestment{},
	})
}

// BenchmarkFig13HalfMoon times the half-moon workload of Figure 13.
func BenchmarkFig13HalfMoon(b *testing.B) {
	d, _ := dataset.HalfMoon(100, 100, 5)
	benchMethods(b, d.Responses, []core.Ranker{
		core.HNDPower{},
		core.ABHPower{},
		truth.HITS{},
	})
}

// BenchmarkFig14aBeta times ABH-power across the β multipliers of Figure
// 14a — iterations (and hence time) grow with β.
func BenchmarkFig14aBeta(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, nil)
	base := core.NewUpdate(d.Responses).DiagCCT().NormInf()
	for _, mult := range []float64{1, 4, 10} {
		mult := mult
		b.Run(fmt.Sprintf("beta=%gx", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (core.ABHPower{Beta: base * mult}).Rank(context.Background(), d.Responses); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14bIterations times the three power-style implementations of
// Figure 14b head-to-head on one workload.
func BenchmarkFig14bIterations(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Items = 1000 })
	benchMethods(b, d.Responses, []core.Ranker{
		core.ABHPower{},
		core.HNDDeflation{},
		core.HNDPower{},
	})
}

// BenchmarkAblationHNDImpl compares the three HND implementations — the
// design choice analyzed in Section III-F.
func BenchmarkAblationHNDImpl(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Users = 400 })
	benchMethods(b, d.Responses, []core.Ranker{
		core.HNDPower{},
		core.HNDDeflation{},
		core.HNDDirect{},
	})
}

// BenchmarkAblationSymmetry isolates the cost of the decile entropy
// symmetry-breaking heuristic.
func BenchmarkAblationSymmetry(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, nil)
	b.Run("with-orientation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (core.HNDPower{}).Rank(context.Background(), d.Responses); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-spectral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (core.HNDPower{Opts: core.Options{SkipOrientation: true}}).Rank(context.Background(), d.Responses); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSparse compares the sparse (CSR, matrix-free) update
// against materializing U densely and multiplying — the paper's
// O(mnt) vs O(m²n) argument in microcosm.
func BenchmarkAblationSparse(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Users = 400 })
	u, c := core.NewUpdate(d.Responses), d.Responses.Binary()
	ws := u.NewWorkspace()
	x := mat.Ones(u.Users())
	y := mat.NewVector(u.Users())
	b.Run("csr-matfree-apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ws.ApplyU(y, x)
		}
	})
	b.Run("dense-materialize-and-apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			um := u.UMatrix(c)
			um.MulVec(y, x)
		}
	})
	um := u.UMatrix(c)
	b.Run("dense-apply-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			um.MulVec(y, x)
		}
	})
}

// BenchmarkAblationEigensolvers compares the eigensolver backends on the
// same symmetric matrix.
func BenchmarkAblationEigensolvers(b *testing.B) {
	d := genOrDie(b, irt.ModelSamejima, func(c *irt.Config) { c.Users = 200 })
	l := d.Responses.Binary().Laplacian()
	b.Run("dense-tred2-tql2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eigen.SymmetricEigen(l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanczos-full-reorth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eigen.Lanczos(context.Background(), eigen.DenseOp{M: l}, eigen.LanczosOptions{MaxSteps: 60}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("power-iteration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eigen.PowerIteration(context.Background(), eigen.DenseOp{M: l}, eigen.PowerOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPQTreeReduce times Booth–Lueker reduction on consistent data —
// the paper's "fastest method when it works" claim.
func BenchmarkPQTreeReduce(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelGRM)
	cfg.Users, cfg.Items, cfg.Seed = 200, 200, 7
	d, err := irt.GenerateC1P(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BL().Rank(context.Background(), d.Responses); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarmVsCold quantifies the Engine's warm-start speedup on
// a mid-size noisy matrix: each benchmarked operation is one Observe
// followed by a full re-rank. The warm side is Engine.Rank, which resumes
// the power iteration from the previous score vector; the cold side is a
// direct New(...).Rank of the engine's snapshot, which restarts from the
// seeded random vector every time. Reported custom metrics: power
// iterations per re-rank.
func BenchmarkEngineWarmVsCold(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 500, 150, 42
	cfg.DiscriminationMax = 2 // noisy: narrow spectral gap, many iterations
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	cold, err := New("HnD-power", WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, rank func(*Engine) (Result, error)) {
		eng, err := NewEngine(d.Responses, WithRankOptions(WithSeed(1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil { // common cold start
			b.Fatal(err)
		}
		var iters int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			user := i % cfg.Users
			item := i % cfg.Items
			k := d.Responses.OptionCount(item)
			if err := eng.Observe(user, item, (d.Responses.Answer(user, item)+1+k)%k); err != nil {
				b.Fatal(err)
			}
			res, err := rank(eng)
			if err != nil {
				b.Fatal(err)
			}
			iters += res.Iterations
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iterations/rerank")
	}

	b.Run("warm", func(b *testing.B) {
		run(b, func(eng *Engine) (Result, error) { return eng.Rank(ctx) })
	})
	b.Run("cold", func(b *testing.B) {
		run(b, func(eng *Engine) (Result, error) {
			view, _ := eng.View()
			return cold.Rank(ctx, view)
		})
	})
}

// shardedBenchMatrix builds the workload the sharded-router benchmarks
// share.
func shardedBenchMatrix(b *testing.B, users, items int) *response.Matrix {
	b.Helper()
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = users, items, 42
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d.Responses
}

// BenchmarkShardedObserve measures write throughput under serving traffic —
// every write races an outstanding read snapshot, so each op pays one
// copy-on-write detach — across shard counts. Matrices are paged, so the
// detach copies the one 64-user page the write touches whatever the shard
// count, and per-op cost stays flat in N: in-process shards buy re-rank
// work (BenchmarkShardedRank), not write throughput.
func BenchmarkShardedObserve(b *testing.B) {
	m := shardedBenchMatrix(b, 2000, 200)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			eng, err := NewShardedEngine(m, WithShards(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A reader holds a snapshot of every shard (what Rank
				// does), so the next write must detach its shard first.
				eng.View()
				user := i % eng.Users()
				if err := eng.Observe(user, i%eng.Items(), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedRank measures steady-state re-rank latency across shard
// counts: each op is one single-user write followed by a full cluster Rank.
// Only the written user's shard re-solves (warm-started, 1/N of the users);
// the other shards answer from their generation-keyed caches, so re-rank
// latency drops as shards are added.
func BenchmarkShardedRank(b *testing.B) {
	m := shardedBenchMatrix(b, 1000, 100)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			eng, err := NewShardedEngine(m, WithShards(n), WithRankOptions(WithSeed(1)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Rank(ctx); err != nil { // common cold start
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				user := i % eng.Users()
				if err := eng.Observe(user, i%eng.Items(), 0); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Rank(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmRerankAllocs quantifies the steady-state serving path on
// paged copy-on-write storage.
//
//   - cache=true is one single-user Observe followed by a warm Rank (under
//     an outstanding view, as serving traffic would have it): the write
//     copies the one page it touches, and the solve rebuilds that page's
//     one-hot pattern and scales the patterns inside its kernels, so no
//     O(nnz) copy runs anywhere on the warm path. The name is kept so the
//     row compares with the committed BENCH_pr*.json records.
//   - pattern-hit isolates the page-pattern fetch every solve input starts
//     with, on an unchanged matrix into a reused slice — CI-guarded at 0
//     allocs/op.
//   - observe-under-view is View plus one Observe: the write's
//     copy-on-write clone copies the page table and the written page, not
//     the matrix. CI gates its B/op at twice one page's cells (2 × 64 users
//     × 150 items × 8 B); a clone of the whole 500×150 table is 600 KB.
func BenchmarkWarmRerankAllocs(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 500, 150, 42
	cfg.DiscriminationMax = 2
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("cache=true", func(b *testing.B) {
		eng, err := NewEngine(d.Responses, WithRankOptions(WithSeed(1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Rank(ctx); err != nil { // common cold start
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.View() // serving reader holds a snapshot across the write
			user, item := i%cfg.Users, i%cfg.Items
			k := d.Responses.OptionCount(item)
			if err := eng.Observe(user, item, i%k); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Rank(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("pattern-hit", func(b *testing.B) {
		m := d.Responses.Clone()
		want := m.Patterns(nil)
		buf := make([]*mat.CSR, 0, len(want))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := m.Patterns(buf[:0]); got[len(got)-1] != want[len(want)-1] {
				b.Fatal("rebuilt the pattern of an unchanged page")
			}
		}
	})

	b.Run("observe-under-view", func(b *testing.B) {
		eng, err := NewEngine(d.Responses)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.View() // the next write must copy on write
			user, item := i%cfg.Users, i%cfg.Items
			if err := eng.Observe(user, item, i%d.Responses.OptionCount(item)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineSnapshot quantifies the copy-on-write snapshot redesign:
// under unchanged-matrix traffic the serving paths take O(1) views instead
// of the O(mn) deep clone Rank used to pay per call. "view" vs "deep-clone"
// is the snapshot mechanism itself; "deep-clone" times Engine.Snapshot,
// which paged storage made an O(pages) copy-on-write clone (the name is
// kept so the row compares with the committed records). "rank-cached"
// and "infer-labels-cached" are the full serving paths, whose bytes/op
// must stay O(m) — independent of the matrix area.
func BenchmarkEngineSnapshot(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 2000, 300, 42
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eng, err := NewEngine(d.Responses)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Rank(ctx); err != nil {
		b.Fatal(err)
	}
	if _, _, err := eng.InferLabels(ctx); err != nil {
		b.Fatal(err)
	}

	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m, _ := eng.View(); m == nil {
				b.Fatal("nil view")
			}
		}
	})
	b.Run("deep-clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := eng.Snapshot(); m == nil {
				b.Fatal("nil snapshot")
			}
		}
	})
	b.Run("rank-cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Rank(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("infer-labels-cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.InferLabels(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmSolveKernel isolates one warm HnD-power solve the way
// Engine.Rank runs it on a cache miss — the pooled solve scratch bound and
// the previous scores as the warm start — minus the solve-input fetch: the
// Update machinery is prebuilt (core.Options.Update). The matrix was
// idempotently rewritten, so every solve converges in one power step; with
// the bound scratch it must report 0 allocs/op — the CI-guarded steady
// state of the warm re-rank.
func BenchmarkWarmSolveKernel(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 500, 150, 42
	cfg.DiscriminationMax = 2
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	solved, err := (core.HNDPower{}).Rank(ctx, d.Responses)
	if err != nil {
		b.Fatal(err)
	}
	// Idempotent rewrite: bumps the generation and records a dirty row
	// without changing any matrix value.
	d.Responses.SetAnswer(0, 0, d.Responses.Answer(0, 0))
	h := core.HNDPower{Opts: core.Options{
		WarmStart: solved.Scores,
		Update:    core.NewUpdate(d.Responses),
		Scratch:   &core.SolveScratch{},
	}}
	if _, err := h.Rank(ctx, d.Responses); err != nil { // binds the scratch
		b.Fatal(err)
	}
	iters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.Rank(ctx, d.Responses)
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
	}
	b.StopTimer()
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkStaleRank measures the read path under steady write pressure
// with and without a staleness bound: every operation writes one response
// and ranks. bound=0 is the inline baseline (each rank re-solves);
// positive bounds serve the cached scores until the bound trips, which is
// the read-tail flattening WithMaxStaleness buys — the reported
// stale-serves/op is the fraction of reads that skipped the solve.
func BenchmarkStaleRank(b *testing.B) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 500, 150, 42
	cfg.DiscriminationMax = 2 // noisy: narrow spectral gap, many iterations
	d, err := irt.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bound := range []uint64{0, 16, 256} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			eng, err := NewEngine(d.Responses, WithMaxStaleness(bound), WithRankOptions(WithSeed(1)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Rank(ctx); err != nil { // common cold start
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				user, item := i%cfg.Users, i%cfg.Items
				k := d.Responses.OptionCount(item)
				if err := eng.Observe(user, item, (d.Responses.Answer(user, item)+1+k)%k); err != nil {
					b.Fatal(err)
				}
				res, err := eng.Rank(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if res.Staleness > bound {
					b.Fatalf("staleness %d exceeds bound %d", res.Staleness, bound)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Metrics().StaleServes)/float64(b.N), "stale-serves/op")
		})
	}
}
