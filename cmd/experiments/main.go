// Command experiments regenerates the paper's tables and figures. Each
// subcommand reproduces one figure (or figure family); "all" runs the whole
// evaluation. Results render as aligned ASCII tables on stdout; -csv DIR
// additionally writes one CSV per table.
//
// Usage:
//
//	experiments [-reps 3] [-seed 1] [-full] [-csv DIR] <subcommand>
//
// Subcommands:
//
//	fig4-n [grm|bock|samejima]   accuracy vs number of questions (Fig 4a–c)
//	fig4-m [model]               accuracy vs number of users (Fig 4d, 9a, 9e)
//	fig4-k [model]               accuracy vs options (Fig 4e, 9b, 9f)
//	fig4-b [model]               accuracy vs difficulty (Fig 4f, 9c, 9g)
//	fig4-p [model]               accuracy vs answer probability (Fig 4g, 9d, 9h)
//	fig4-c1p                     consistent data (Fig 4h)
//	fig9-disc [model]            accuracy vs discrimination (Fig 9i–k)
//	fig5-users                   runtime scaling in m (Fig 5a)
//	fig5-items                   runtime scaling in n (Fig 5b)
//	fig6                         HND vs ABH stability (Fig 6a–c)
//	fig7                         simulated real-world datasets (Fig 7, 11)
//	fig12                        simulated American Experience test (Fig 12)
//	fig13                        half-moon simulation (Fig 13)
//	fig14-beta                   ABH-power β sensitivity (Fig 14a)
//	fig14-iters                  iteration counts vs n (Fig 14b)
//	fig1                         item characteristic curves (Fig 1c)
//	fig8                         GRM vs Bock curves (Fig 8, appendix)
//	fig13-scatter                half-moon parameter scatter (Fig 13a)
//	ablation-orient              decile-entropy orientation ablation
//	ablation-tol                 convergence tolerance ablation
//	sharded                      sharded-engine serving latency vs shard count
//	all                          everything above
//
// The sharded sweep honors -shards as the largest shard count swept
// (powers of two up to it).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"hitsndiffs/internal/experiments"
	"hitsndiffs/internal/irt"
)

type runner struct {
	ctx    context.Context
	cfg    experiments.Config
	timing experiments.TimingConfig
	csvDir string
	shards int
}

func main() {
	reps := flag.Int("reps", 3, "repetitions averaged per data point")
	seed := flag.Int64("seed", 1, "base random seed")
	full := flag.Bool("full", false, "run full-size sweeps (slow; default is the quick variant)")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	timeout := flag.Duration("timeout", 10*time.Second, "per-run timeout for scalability sweeps")
	shards := flag.Int("shards", 8, "largest shard count the `sharded` subcommand sweeps")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <subcommand> (see -h)")
		os.Exit(2)
	}
	// Ctrl-C cancels the context; the iterative solvers notice it
	// mid-iteration and the run stops promptly instead of finishing the
	// current sweep point.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := &runner{
		ctx:    ctx,
		cfg:    experiments.Config{Reps: *reps, Seed: *seed, Quick: !*full},
		timing: experiments.TimingConfig{Runs: min(*reps, 3), Seed: *seed, Quick: !*full, Timeout: *timeout},
		csvDir: *csvDir,
		shards: *shards,
	}
	if r.csvDir != "" {
		if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	cmd := flag.Arg(0)
	model := irt.ModelSamejima
	if flag.NArg() > 1 {
		switch flag.Arg(1) {
		case "grm":
			model = irt.ModelGRM
		case "bock":
			model = irt.ModelBock
		case "samejima":
			model = irt.ModelSamejima
		default:
			fatal(fmt.Errorf("unknown model %q", flag.Arg(1)))
		}
	}

	if err := r.dispatch(cmd, model); err != nil {
		fatal(err)
	}
	// A cancelled run produces tables of NaNs (failed methods render as
	// "-"); report the interruption instead of exiting clean.
	if err := ctx.Err(); err != nil {
		fatal(fmt.Errorf("run interrupted: %w", err))
	}
}

func (r *runner) dispatch(cmd string, model irt.ModelKind) error {
	switch cmd {
	case "fig4-n":
		return r.table(experiments.Fig4VaryQuestions(r.ctx, model, r.cfg))
	case "fig4-m":
		return r.table(experiments.Fig4VaryUsers(r.ctx, model, r.cfg))
	case "fig4-k":
		return r.table(experiments.Fig4VaryOptions(r.ctx, model, r.cfg))
	case "fig4-b":
		return r.table(experiments.Fig4VaryDifficulty(r.ctx, model, r.cfg))
	case "fig4-p":
		return r.table(experiments.Fig4VaryAnswerProb(r.ctx, model, r.cfg))
	case "fig4-c1p":
		return r.table(experiments.Fig4C1P(r.ctx, r.cfg))
	case "fig9-disc":
		return r.table(experiments.Fig4VaryDiscrimination(r.ctx, model, r.cfg))
	case "fig5-users":
		return r.table(experiments.Fig5ScaleUsers(r.ctx, r.timing))
	case "fig5-items":
		return r.table(experiments.Fig5ScaleQuestions(r.ctx, r.timing))
	case "fig6":
		res, err := experiments.Fig6Stability(r.ctx, r.cfg)
		if err != nil {
			return err
		}
		if err := r.emit(res.Variance); err != nil {
			return err
		}
		if err := r.emit(res.Displacement); err != nil {
			return err
		}
		return r.emit(res.Accuracy)
	case "fig7":
		per, avg, err := experiments.Fig7RealWorld(r.ctx, r.cfg)
		if err != nil {
			return err
		}
		if err := r.emit(per); err != nil {
			return err
		}
		return r.emit(avg)
	case "fig12":
		mean, std, err := experiments.Fig12AmericanExperience(r.ctx, r.cfg)
		if err != nil {
			return err
		}
		if err := r.emit(mean); err != nil {
			return err
		}
		return r.emit(std)
	case "fig13":
		mean, std, err := experiments.Fig13HalfMoon(r.ctx, r.cfg)
		if err != nil {
			return err
		}
		if err := r.emit(mean); err != nil {
			return err
		}
		return r.emit(std)
	case "fig14-beta":
		return r.table(experiments.Fig14Beta(r.ctx, r.cfg))
	case "fig14-iters":
		return r.table(experiments.Fig14Iterations(r.ctx, r.cfg))
	case "fig1":
		return r.emit(experiments.Fig1Curves(0))
	case "fig8":
		return r.emit(experiments.Fig8Curves(0, 0))
	case "fig13-scatter":
		return r.emit(experiments.Fig13Scatter(0, r.cfg.Seed))
	case "ablation-orient":
		return r.table(experiments.AblationOrientation(r.ctx, r.cfg))
	case "ablation-tol":
		return r.table(experiments.AblationConvergenceTol(r.ctx, r.cfg))
	case "sharded":
		return r.table(experiments.ShardedServing(r.ctx, experiments.ShardedConfig{
			MaxShards: r.shards, Seed: r.cfg.Seed, Quick: r.cfg.Quick,
		}))
	case "all":
		for _, sub := range []struct {
			name  string
			model irt.ModelKind
		}{
			{"fig4-n", irt.ModelGRM}, {"fig4-n", irt.ModelBock}, {"fig4-n", irt.ModelSamejima},
			{"fig4-m", irt.ModelSamejima}, {"fig4-k", irt.ModelSamejima},
			{"fig4-b", irt.ModelSamejima}, {"fig4-p", irt.ModelSamejima},
			{"fig4-c1p", irt.ModelGRM},
			{"fig4-m", irt.ModelGRM}, {"fig4-k", irt.ModelGRM}, {"fig4-b", irt.ModelGRM}, {"fig4-p", irt.ModelGRM},
			{"fig4-m", irt.ModelBock}, {"fig4-k", irt.ModelBock}, {"fig4-b", irt.ModelBock}, {"fig4-p", irt.ModelBock},
			{"fig9-disc", irt.ModelGRM}, {"fig9-disc", irt.ModelBock}, {"fig9-disc", irt.ModelSamejima},
			{"fig5-users", 0}, {"fig5-items", 0},
			{"fig6", 0}, {"fig7", 0}, {"fig12", 0}, {"fig13", 0},
			{"fig14-beta", 0}, {"fig14-iters", 0},
			{"fig1", 0}, {"fig8", 0}, {"fig13-scatter", 0},
			{"ablation-orient", 0}, {"ablation-tol", 0},
			{"sharded", 0},
		} {
			fmt.Printf("\n===== %s %v =====\n", sub.name, sub.model)
			if err := r.dispatch(sub.name, sub.model); err != nil {
				return fmt.Errorf("%s: %w", sub.name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func (r *runner) table(t *experiments.Table, err error) error {
	if err != nil {
		return err
	}
	return r.emit(t)
}

func (r *runner) emit(t *experiments.Table) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if r.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.csvDir, t.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
