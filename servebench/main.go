// Command servebench is the serving benchmark. It runs the real serve tier
// (serve.New + Server.Handler) on a loopback listener in its own process,
// drives it with a seeded, closed-loop, fixed-length op stream, checks the
// served answers, and prints every metric by name with its unit, then one
// JSON result as the last line of standard output. Run it from the root of
// a checkout:
//
//	bash servebench/run.sh --workload write-rank --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// reference pass, a traced HTTP pass and an in-process replay through the
// serve tier's building blocks, and reports the per-layer metrics. NOTES.md
// says why each workload and setting was chosen.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses the flags, runs one workload and prints its report. It
// returns 0 only when every op succeeded and every output check passed;
// an error before a result exists prints no result line.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: write-rank, read-fleet or ingest-durable")
	seed := fs.Int64("seed", 1, "seed of the generated tenants and op stream")
	seconds := fs.Int("seconds", 10, "nominal run length; sizes the op stream")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for span files")
	data := fs.String("data", ".bench_build/data", "directory for data dirs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One P: with two, GC stop-the-world waits on a descheduled vCPU and
	// the tail latencies measure the hypervisor (see NOTES.md).
	runtime.GOMAXPROCS(1)
	rep, p, err := measure(*name, *seed, *seconds, *trace != 0, *dir, *data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	rep.print(stdout, p)
	if !rep.correct() {
		return 1
	}
	return 0
}

// measure builds the plan and runs the end-to-end or the traced mode,
// keeping its data in a per-process directory under data that it removes,
// and its span files under dir.
func measure(name string, seed int64, seconds int, traced bool, dir, data string) (*report, *plan, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	if seconds < 1 {
		return nil, nil, errors.New("--seconds must be at least 1")
	}
	if traced {
		// Three passes share the run's time.
		seconds = (seconds + 2) / 3
	}
	p, err := newPlan(w, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	work := filepath.Join(data, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	var rep *report
	if traced {
		rep, err = tracedRun(p, work, filepath.Join(dir, "trace"))
	} else {
		rep, err = endToEnd(p, work)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.env = envLine(work)
	return rep, p, nil
}

// setupRuns sets the workload up reps times, each from a collected heap,
// stopping all but the last server, which it returns with every set-up's
// time. A durable workload pre-writes its pristine data dir first.
func setupRuns(p *plan, work string, reps int, wrap wrapper) (*liveServer, []setupTime, error) {
	pristine := filepath.Join(work, "pristine")
	if p.w.durable {
		if err := prewrite(p, pristine); err != nil {
			return nil, nil, fmt.Errorf("pre-write: %w", err)
		}
	}
	var ls *liveServer
	var times []setupTime
	for k := 0; k < reps; k++ {
		if ls != nil {
			ls.stop()
		}
		runtime.GC()
		s, d, err := setup(p, pristine, runDir(work), wrap)
		if err != nil {
			return nil, nil, err
		}
		ls, times = s, append(times, d)
	}
	return ls, times, nil
}

func runDir(work string) string { return filepath.Join(work, "run") }

// checkRun runs the workload's output checks and stops ls.
func checkRun(p *plan, ls *liveServer, run *streamRun, work string) (float64, []string) {
	if p.w.durable {
		return checkDurable(p, ls, run, runDir(work))
	}
	acc, fails := checkExact(p, ls, run)
	ls.stop()
	return acc, fails
}

// endToEnd is one untraced run: set-ups, the measured stream, checks.
func endToEnd(p *plan, work string) (*report, error) {
	ls, setups, err := setupRuns(p, work, p.w.setupReps, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	run, err := runStream(p, ls, nil)
	if err != nil {
		ls.stop()
		return nil, err
	}
	acc, fails := checkRun(p, ls, run, work)
	rep := &report{}
	rep.endToEnd(p, setups, run, acc, fails)
	return rep, nil
}

// tracedRun is the traced mode: an untraced reference pass (the /metrics
// and runtime counters, and the ops/s the tracing overhead is measured
// against), pass 1 over HTTP with client and handler spans, and pass 2,
// the in-process replay. Spans are written under traceDir at the end.
func tracedRun(p *plan, work, traceDir string) (*report, error) {
	ls, _, err := setupRuns(p, work, 1, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ref, err := runStream(p, ls, nil)
	if err != nil {
		ls.stop()
		return nil, err
	}
	acc, fails := checkRun(p, ls, ref, work)

	http1 := newTracer()
	if ls, _, err = setupRuns(p, work, 1, http1.middleware); err != nil {
		return nil, err
	}
	runtime.GC()
	pass1, err := runStream(p, ls, http1)
	ls.stop()
	if err != nil {
		return nil, err
	}

	inproc := newTracer()
	runtime.GC()
	if err := replay(p, inproc, filepath.Join(work, "replay")); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", p.w.name, p.seed))
	if err := http1.write(stem + "-pass1.csv"); err != nil {
		return nil, err
	}
	if err := inproc.write(stem + "-pass2.csv"); err != nil {
		return nil, err
	}
	rep := &report{}
	rep.layers(p, ref, pass1, http1.index(), inproc.index())
	rep.notef("accuracy_spearman %.6f (reference pass)", acc)
	rep.notef("spans written to %s-pass{1,2}.csv", stem)
	rep.attempted = 2 * len(p.ops)
	rep.failed = ref.failedOps() + pass1.failedOps() + len(fails)
	rep.fails = fails
	return rep, nil
}

// failedOps counts ops the server did not acknowledge.
func (r *streamRun) failedOps() int {
	n := 0
	for _, x := range r.res {
		if !x.ok {
			n++
		}
	}
	return n
}

// metric is one reported value. An absent metric is one whose /metrics
// counter the server no longer exports; a textOnly metric is printed but
// left out of the JSON result, whose metrics BENCHMARK.json fixes.
type metric struct {
	name, unit string
	value      float64
	absent     bool
	textOnly   bool
}

// report is one run's output.
type report struct {
	env       string
	metrics   []metric
	notes     []string
	fails     []string
	attempted int
	failed    int
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// addIf adds a metric derived from /metrics counters, absent when any of
// them was missing.
func (r *report) addIf(name, unit string, v float64, ok bool) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, absent: !ok})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.fails) == 0 }

// endToEnd fills the end-to-end metrics of one untraced run. The timings
// are at the reference host speed (see probe.go); the raw_ metrics are the
// same figures as the wall clock read them, printed but not bounded.
func (r *report) endToEnd(p *plan, setups []setupTime, run *streamRun, accuracy float64, fails []string) {
	var rank, write, rawRank, rawWrite, stale []float64
	done := 0
	for i, x := range run.res {
		lat := ms(x.lat)
		if x.ok {
			done++
		} else {
			lat = inf
		}
		scaled := lat * scaleAt(run.probes, x.end.Add(-x.lat))
		if p.ops[i].kind == opRank {
			rank, rawRank = append(rank, scaled), append(rawRank, lat)
			if x.ok {
				stale = append(stale, float64(x.staleness))
			}
		} else {
			write, rawWrite = append(write, scaled), append(rawWrite, lat)
		}
	}
	failed := len(run.res) - done
	setupScaled, setupRaw := make([]float64, len(setups)), make([]float64, len(setups))
	for k, st := range setups {
		setupRaw[k], setupScaled[k] = st.wall.Seconds(), st.scaled
	}
	probes := make([]float64, len(run.probes))
	for k, pr := range run.probes {
		probes[k] = ms(pr.took)
	}
	r.add("setup_s", "s", median(setupScaled))
	r.add("ops_per_s", "ops/s", run.opsPerSecond(true))
	r.percentiles("rank", rank, true)
	r.percentiles("observe", write, true)
	r.add("accuracy_spearman", "1", accuracy)
	rss, processRSS := run.peakRSS(), run.processPeakRSS()
	if rss == 0 {
		rss, processRSS = peakRSSMB(), peakRSSMB()
		r.notef("the RSS could not be sampled per slice; peak_rss_mb is the process peak")
	}
	r.add("peak_rss_mb", "MB", rss)
	r.metrics = append(r.metrics,
		metric{name: "staleness_mean_gen", unit: "generations", value: mean(stale), textOnly: true},
		metric{name: "error_ratio", unit: "1", value: ratio(float64(failed+len(fails)), float64(len(run.res))), textOnly: true},
		metric{name: "raw_setup_s", unit: "s", value: median(setupRaw), textOnly: true},
		metric{name: "raw_ops_per_s", unit: "ops/s", value: run.opsPerSecond(false), textOnly: true})
	r.percentiles("raw_rank", rawRank, false)
	r.percentiles("raw_observe", rawWrite, false)
	r.metrics = append(r.metrics,
		metric{name: "process_peak_rss_mb", unit: "MB", value: processRSS, textOnly: true},
		metric{name: "probe_ms_p50", unit: "ms", value: median(probes), textOnly: true})
	r.notef("error_ratio counts %d failed or refused ops + %d failed checks over %d attempted ops; staleness over %d served ranks",
		failed, len(fails), len(run.res), len(stale))
	r.notef("samples: %d ranks, %d writes, %d probes, %d set-ups %v, stream wall %.3f s (%.1f ops/s overall)",
		len(rank), len(write), len(probes), len(setups), roundAll(setupRaw), run.wall.Seconds(), float64(done)/run.wall.Seconds())
	r.notes = append(r.notes, run.notes...)
	r.attempted = len(run.res)
	r.failed = failed + len(fails)
	r.fails = fails
}

// percentiles adds the p50 and p99 latency of one op class; a class too
// small to put ten samples beyond its p99 reports the p99 as unsupported.
// The p99 is printed but not part of the JSON result: a stall of the
// shared host lasting under a second lands in the 1% tail, and the p99s
// spread by up to 67% across seeds, beyond any usable regression bound
// (see NOTES.md). The p50 is in the JSON result when bounded.
func (r *report) percentiles(class string, lat []float64, bounded bool) {
	p50, _ := quantile(lat, 500)
	p99, ok := quantile(lat, 990)
	r.metrics = append(r.metrics,
		metric{name: class + "_p50_ms", unit: "ms", value: p50, textOnly: !bounded},
		metric{name: class + "_p99_ms", unit: "ms", value: p99, textOnly: true})
	if !ok {
		r.notef("%s_p99_ms unsupported: %d samples leave fewer than %d beyond it", class, len(lat), minBeyond)
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3fs", x)
	}
	return out
}

// print writes the human-readable report and the JSON result line.
func (r *report) print(w io.Writer, p *plan) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "servebench workload=%s seed=%d ops=%d conns=%d digest=%s\n", p.w.name, p.seed, len(p.ops), p.w.conns, p.digest)
	fmt.Fprintln(bw, r.env)
	fmt.Fprintf(bw, "why: %s\nloads: %s\nbypasses: %s\n", p.w.why, p.w.loads, p.w.skips)
	out := map[string]jsonMetric{}
	for _, m := range r.metrics {
		if m.absent {
			fmt.Fprintf(bw, "metric %-30s absent (counter missing from /metrics)\n", m.name)
			continue
		}
		fmt.Fprintf(bw, "metric %-30s %.6g %s\n", m.name, m.value, m.unit)
		if m.textOnly {
			continue
		}
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed request beyond the percentile; the run is already incorrect
		}
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(bw, "note:", n)
	}
	for _, f := range r.fails {
		fmt.Fprintln(bw, "check failed:", f)
	}
	line, _ := json.Marshal(result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: out})
	fmt.Fprintf(bw, "%s\n", line)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// envLine records what the numbers depend on besides the code.
func envLine(dataDir string) string {
	return fmt.Sprintf("env gomaxprocs=%d nproc=%d go=%s cpu=%q datadir_fs=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel(), fsType(dataDir))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// takePeakRSS returns the process's peak RSS in MB since the previous
// call, or since it started, and starts a new peak: it reads VmHWM from
// /proc/self/status and resets it through /proc/self/clear_refs. It
// returns 0 where either is unavailable.
func takePeakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	kb := 0.0
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ = strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0
	}
	return kb / 1024
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
