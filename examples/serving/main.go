// Serving: the online-workload face of the library. An Engine owns the
// response matrix of a live assessment platform; responses stream in
// through Observe while concurrent readers ask for up-to-date rankings
// and inferred answer keys.
//
// The example simulates a burst-y arrival process and shows the three
// engine economies: generation-cached reads between updates, warm-started
// re-ranks after updates (a fraction of the cold-start iterations), and
// context deadlines bounding tail latency.
//
// Run with: go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hitsndiffs"
)

func main() {
	// A cohort answering a 60-question assessment, arriving over time.
	cfg := hitsndiffs.DefaultGeneratorConfig(hitsndiffs.ModelSamejima)
	cfg.Users = 150
	cfg.Items = 60
	cfg.Options = 4
	cfg.Seed = 11
	d, err := hitsndiffs.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	full := d.Responses

	// Start the engine on the first half of the traffic.
	initial := hitsndiffs.NewResponseMatrix(cfg.Users, cfg.Items, cfg.Options)
	for u := 0; u < cfg.Users; u++ {
		for i := 0; i < cfg.Items/2; i++ {
			if h := full.Answer(u, i); h != hitsndiffs.Unanswered {
				initial.SetAnswer(u, i, h)
			}
		}
	}
	eng, err := hitsndiffs.NewEngine(initial,
		hitsndiffs.WithMethod("HnD-power"),
		hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(1)),
	)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	cold, err := eng.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold start: ranked %d users in %d iterations (generation %d)\n",
		eng.Users(), cold.Iterations, cold.Generation)

	// Reads between updates are served from the generation-keyed cache.
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if _, err := eng.Rank(ctx); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("1000 cached reads in %v\n", time.Since(start).Round(time.Microsecond))

	// The second half of the traffic arrives in bursts; each burst is one
	// ObserveBatch (one lock acquisition) and the next
	// read re-ranks warm-started from the previous scores.
	var warmIters, bursts int
	for i := cfg.Items / 2; i < cfg.Items; i += 5 {
		var batch []hitsndiffs.Observation
		for u := 0; u < cfg.Users; u++ {
			for j := i; j < i+5 && j < cfg.Items; j++ {
				if h := full.Answer(u, j); h != hitsndiffs.Unanswered {
					batch = append(batch, hitsndiffs.Observation{User: u, Item: j, Option: h})
				}
			}
		}
		if err := eng.ObserveBatch(batch); err != nil {
			log.Fatal(err)
		}
		// Bound tail latency: a deadline interrupts the solve mid-iteration
		// if it ever runs long.
		rankCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		res, err := eng.Rank(rankCtx)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		warmIters += res.Iterations
		bursts++
	}
	fmt.Printf("%d warm re-ranks averaged %.0f iterations (cold start took %d)\n",
		bursts, float64(warmIters)/float64(bursts), cold.Iterations)

	final, err := eng.Rank(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final ranking accuracy vs hidden ability: %.3f\n",
		hitsndiffs.Spearman(final.Scores, d.Abilities))

	// The same engine serves the truth-discovery direction.
	labels, _, err := eng.InferLabels(ctx)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, l := range labels {
		if l == d.Correct[i] {
			correct++
		}
	}
	fmt.Printf("inferred answer key: %d/%d items correct\n", correct, len(labels))
}
