package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, perMille int
		want        bool
	}{
		{1000, 990, true}, // 990th value, 10 beyond
		{999, 990, false}, // 990th value, 9 beyond
		{2000, 990, true},
		{20, 500, true}, // 10th value, 10 beyond
		{19, 500, false},
		{0, 500, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.perMille); got != c.want {
			t.Errorf("supported(%d, %d) = %v, want %v", c.n, c.perMille, got, c.want)
		}
	}
}

func TestQuantileIsNearestRankWithFailuresLast(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	if v, ok := quantile(xs, 990); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (supported %v), want 990", v, ok)
	}
	if v, _ := quantile(xs, 500); v != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", v)
	}
	// Eleven failed requests count as +Inf and push the p99 past every
	// measured latency.
	for i := 0; i < 11; i++ {
		xs[i] = inf
	}
	if v, _ := quantile(xs, 990); !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %v, want +Inf", v)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	iv := func(a, b int) interval { return interval{time.Duration(a), time.Duration(b)} }
	parent := iv(0, 100)
	cases := []struct {
		children []interval
		want     time.Duration
	}{
		{nil, 100},
		{[]interval{iv(10, 20)}, 90},
		{[]interval{iv(10, 20), iv(15, 30)}, 80},             // overlapping children count once
		{[]interval{iv(10, 20), iv(40, 50), iv(45, 45)}, 80}, // an empty child covers nothing
		{[]interval{iv(90, 120), iv(-5, 5)}, 85},             // clipped to the parent
		{[]interval{iv(200, 300)}, 100},                      // outside the parent
		{[]interval{iv(0, 100), iv(20, 30)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v, %v) = %v, want %v", parent, c.children, got, c.want)
		}
	}
}

func TestScaleAtUsesTheLatestProbe(t *testing.T) {
	t0 := time.Unix(1000, 0)
	probes := []probeSample{
		{at: t0.Add(time.Millisecond), took: probeRef / 2},
		{at: t0.Add(5 * time.Millisecond), took: 2 * probeRef},
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 2}, // before the first probe: the first probe's scale
		{time.Millisecond, 2},
		{3 * time.Millisecond, 2},
		{5 * time.Millisecond, 0.5},
		{time.Second, 0.5},
	}
	for _, c := range cases {
		if got := scaleAt(probes, t0.Add(c.at)); got != c.want {
			t.Errorf("scaleAt(+%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := scaleAt(nil, t0); got != 1 {
		t.Errorf("scaleAt with no probe = %v, want 1", got)
	}
}

func TestOpsPerSecondLeavesProbesOutAndScales(t *testing.T) {
	// One op per slice, 100 ms apart, each slice holding one probe that
	// took twice the reference: the program's time per op is 100 ms less
	// the probe, or half of that at the reference host speed.
	t0 := time.Unix(1000, 0)
	r := &streamRun{start: t0}
	for i := 0; i < segments; i++ {
		slice := t0.Add(time.Duration(i) * 100 * time.Millisecond)
		r.probes = append(r.probes, probeSample{at: slice.Add(5 * time.Millisecond), took: 2 * probeRef})
		r.res = append(r.res, opResult{ok: true, lat: 50 * time.Millisecond, end: slice.Add(100 * time.Millisecond)})
	}
	perOp := (100*time.Millisecond - 2*probeRef).Seconds()
	for _, c := range []struct {
		scaled bool
		want   float64
	}{{false, 1 / perOp}, {true, 2 / perOp}} {
		if got := r.opsPerSecond(c.scaled); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("opsPerSecond(scaled=%v) = %v, want %v", c.scaled, got, c.want)
		}
	}
}

func TestStreamDigestFollowsTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7, 1)
		c, _ := newPlan(w, 8, 1)
		if a.digest != b.digest {
			t.Errorf("%s: one seed gave digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a.digest)
		}
		kinds := map[int]int{}
		for _, o := range a.ops {
			kinds[o.kind]++
		}
		if min(kinds[opRank], len(a.ops)-kinds[opRank]) < 1000 {
			t.Errorf("%s: %v ops per kind, want ≥ 1000 of each class for a p99", w.name, kinds)
		}
	}
}

// counts are the figures two runs of one seed must repeat exactly.
type counts struct {
	Digest                      string
	Solves, SolveIters          float64
	Rounds, Refreshes           float64
	Appends, AppendedBytes      float64
	StaleServes                 float64
	Generations                 []float64
	Accuracy                    float64
	ReplaySolves, ReplayIters   int
	ReplayShardSolves, Failures int
}

// measureCounts runs a shortened stream of one workload over HTTP and
// through the replay, and collects its counts.
func measureCounts(t *testing.T, w *workload, seed int64, ops int) counts {
	t.Helper()
	p, err := newPlan(w, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.ops = p.ops[:ops]
	p.digest = digest(p)
	work := t.TempDir()
	ls, _, err := setupRuns(p, work, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runStream(p, ls, nil)
	if err != nil {
		ls.stop()
		t.Fatal(err)
	}
	acc, fails := checkRun(p, ls, run, work)
	for _, f := range fails {
		t.Errorf("%s seed %d: check failed: %s", w.name, seed, f)
	}
	delta := func(path ...string) float64 {
		a, _ := num(run.after, path...)
		b, _ := num(run.before, path...)
		return a - b
	}
	tenantDelta := func(path ...string) float64 {
		a, _ := tenantSum(run.after, path...)
		b, _ := tenantSum(run.before, path...)
		return a - b
	}
	c := counts{
		Digest:        p.digest,
		Solves:        tenantDelta("engine", "cache_misses"),
		Rounds:        delta("refresh", "rounds"),
		Refreshes:     delta("refresh", "refreshes"),
		Appends:       tenantDelta("durability", "stats", "appends"),
		AppendedBytes: tenantDelta("durability", "stats", "appended_bytes"),
		StaleServes:   delta("stale_serves"),
		Accuracy:      acc,
		Failures:      run.failedOps() + len(fails),
	}
	// A rank response solved at a generation the tenant was not served
	// at before carries a new solve's iteration count.
	last := map[int]uint64{}
	for i, x := range run.res {
		if o := p.ops[i]; o.kind == opRank && x.ok && x.gen != last[o.tenant] {
			last[o.tenant] = x.gen
			c.SolveIters += float64(x.iters)
		}
	}
	for _, td := range p.tenants {
		g, _ := tenantNum(run.after, td.name, "engine", "generation")
		c.Generations = append(c.Generations, g)
	}

	tr := newTracer()
	if err := replay(p, tr, filepath.Join(work, "replay")); err != nil {
		t.Fatal(err)
	}
	ix := tr.index()
	for _, v := range ix.values("engine.rank_miss", valOf) {
		c.ReplaySolves++
		c.ReplayIters += int(v)
	}
	for _, v := range ix.values("sharding.solve", valOf) {
		c.ReplayShardSolves += int(v)
	}
	return c
}

// TestRunsOfOneSeedRepeatTheirCounts is the determinism self-check: the
// virtual refresh clock, the snapshot pacing and the generated stream
// leave no count to timing on the single-connection workloads. On
// read-fleet the two connections interleave freely, so solves and
// coalescing may differ; the final state and accuracy may not.
func TestRunsOfOneSeedRepeatTheirCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve tier")
	}
	short := map[string]int{"write-rank": 300, "read-fleet": 600, "ingest-durable": 400}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := measureCounts(t, w, 3, short[w.name])
			b := measureCounts(t, w, 3, short[w.name])
			if w.conns > 1 {
				a.Solves, b.Solves, a.SolveIters, b.SolveIters = 0, 0, 0, 0
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs of seed 3 differ:\n%+v\n%+v", a, b)
			}
			if a.Failures != 0 {
				t.Errorf("%d failed ops or checks", a.Failures)
			}
			if w.durable && (a.Rounds == 0 || a.Appends == 0 || a.StaleServes == 0 || a.ReplayShardSolves == 0) {
				t.Errorf("durable workload did no refresh, WAL or stale work: %+v", a)
			}
			if !w.durable && a.ReplaySolves == 0 {
				t.Errorf("replay ran no solve: %+v", a)
			}
		})
	}
}
