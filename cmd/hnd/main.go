// Command hnd ranks the users of a response-matrix CSV file by ability.
//
// Usage:
//
//	hnd [-method HnD-power] [-scores] [-tol 1e-5] [-maxiter 20000] [-timeout 0] [-shards 1] file.csv
//
// The input format is the one produced by datagen and
// (*ResponseMatrix).WriteCSV: a header row with each item's option count,
// then one row per user holding the chosen option index per item (empty
// cell = unanswered). Output is one line per user, best first.
//
// Methods are resolved through the hitsndiffs registry; -list prints every
// registered method with its applicability constraints. A -timeout bounds
// the solve via context deadline, and Ctrl-C cancels it mid-iteration;
// both unwind cleanly (deferred cleanup runs) and exit 124 / 130
// respectively, so callers can tell a stopped solve from a failed one.
// -shards N > 1 ranks through a ShardedEngine — the horizontal-scaling
// serving path — hashing users across N independent engines and merging
// the per-shard rankings (scores are then min-max normalized within each
// shard, and -infer is unavailable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"hitsndiffs"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the whole run so deferred cleanup (file close, signal
// unregistration, context cancel) executes before the process exits —
// main's os.Exit would skip it. The exit code distinguishes how a solve
// ended: 0 success, 1 failure, 2 usage, 124 deadline, 130 interrupted.
func realMain() int {
	method := flag.String("method", "HnD-power", "ranking method (see -list)")
	list := flag.Bool("list", false, "list available methods and exit")
	scores := flag.Bool("scores", false, "print raw scores alongside ranks")
	infer := flag.Bool("infer", false, "also infer each item's most likely correct option by score-weighted voting")
	tol := flag.Float64("tol", 1e-5, "convergence tolerance for iterative methods")
	maxIter := flag.Int("maxiter", 20000, "iteration budget for iterative methods")
	seed := flag.Int64("seed", 0, "random seed for the spectral starting vector")
	timeout := flag.Duration("timeout", 0, "abort the solve after this long (0 = no deadline)")
	shards := flag.Int("shards", 1, "hash users across this many engine shards (>1 merges per-shard rankings)")
	flag.Parse()

	if *list {
		fmt.Print(formatMethodList())
		return 0
	}
	if *infer && *shards > 1 {
		return fail(fmt.Errorf("-infer requires -shards=1: label inference needs the full matrix on one engine"))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hnd [flags] file.csv (see -h)")
		return 2
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	m, err := hitsndiffs.ReadCSV(f)
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rankOpts := []hitsndiffs.Option{
		hitsndiffs.WithTol(*tol),
		hitsndiffs.WithMaxIter(*maxIter),
		hitsndiffs.WithSeed(*seed),
	}
	if *shards > 1 {
		eng, err := hitsndiffs.NewShardedEngine(m,
			hitsndiffs.WithShards(*shards),
			hitsndiffs.WithMethod(*method),
			hitsndiffs.WithRankOptions(rankOpts...),
		)
		if err != nil {
			return fail(err)
		}
		return report(ctx, runSharded(ctx, os.Stdout, eng, *scores), *timeout)
	}

	ranker, err := hitsndiffs.New(*method, rankOpts...)
	if err != nil {
		return fail(err)
	}
	return report(ctx, run(ctx, os.Stdout, ranker, m, *scores, *infer), *timeout)
}

// report turns a solve's outcome into an exit code, telling interruption
// apart from timeout and real failure. Methods honor context cancellation
// mid-iteration, so by the time the error surfaces here the solve has
// already unwound cleanly — the job is only to say so: Ctrl-C exits 130
// (the shell's SIGINT convention), a -timeout deadline exits 124 (the
// timeout(1) convention), anything else is a plain failure.
func report(ctx context.Context, err error, timeout time.Duration) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "hnd: solve stopped cleanly at the -timeout deadline (%v)\n", timeout)
		return 124
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "hnd: interrupted — solve canceled cleanly")
		return 130
	default:
		return fail(err)
	}
}

// runSharded ranks through the sharded serving engine and renders the
// merged report to w. (-infer with shards is rejected up front in main,
// before the shard engines are built.)
func runSharded(ctx context.Context, w io.Writer, eng *hitsndiffs.ShardedEngine, scores bool) error {
	res, err := eng.Rank(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# method=%s users=%d items=%d shards=%d iterations=%d converged=%v\n",
		eng.Method(), eng.Users(), eng.Items(), eng.Shards(), res.Iterations, res.Converged)
	for pos, u := range res.Order() {
		if scores {
			fmt.Fprintf(w, "%4d  user=%d  score=%.6g  shard=%d\n", pos+1, u, res.Scores[u], eng.ShardFor(u))
		} else {
			fmt.Fprintf(w, "%4d  user=%d\n", pos+1, u)
		}
	}
	return nil
}

// run ranks m with ranker and renders the report to w.
func run(ctx context.Context, w io.Writer, ranker hitsndiffs.Ranker, m *hitsndiffs.ResponseMatrix, scores, infer bool) error {
	res, err := ranker.Rank(ctx, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# method=%s users=%d items=%d iterations=%d converged=%v\n",
		ranker.Name(), m.Users(), m.Items(), res.Iterations, res.Converged)
	for pos, u := range res.Order() {
		if scores {
			fmt.Fprintf(w, "%4d  user=%d  score=%.6g\n", pos+1, u, res.Scores[u])
		} else {
			fmt.Fprintf(w, "%4d  user=%d\n", pos+1, u)
		}
	}
	if infer {
		labels, err := hitsndiffs.InferLabels(m, res.Scores)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "# inferred correct option per item (score-weighted vote):")
		for i, l := range labels {
			fmt.Fprintf(w, "item=%d option=%d\n", i, l)
		}
	}
	return nil
}

// formatMethodList renders every registered method with its constraint
// tags and summary, one per line, in deterministic sorted order.
func formatMethodList() string {
	infos := hitsndiffs.MethodInfos()
	nameW, tagW := 0, 0
	for _, info := range infos {
		if len(info.Name) > nameW {
			nameW = len(info.Name)
		}
		if len(info.Constraints()) > tagW {
			tagW = len(info.Constraints())
		}
	}
	out := ""
	for _, info := range infos {
		out += fmt.Sprintf("%-*s  %-*s  %s\n", nameW, info.Name, tagW, info.Constraints(), info.Summary)
	}
	return out
}

// fail prints err the standard way and returns the generic failure code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "hnd:", err)
	return 1
}
