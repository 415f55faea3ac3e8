// Command hndload is a closed-loop load generator for hndserver: it
// creates a fleet of tenants with a zipfian size distribution, seeds each
// with a synthetic workload from the internal/irt generators, then drives
// a configurable read/write mix over HTTP from N concurrent closed-loop
// workers (each worker issues its next request only after the previous
// one completes), and reports p50/p95/p99 latency and throughput.
//
// Usage:
//
//	hndload [-addr http://127.0.0.1:8788] [-tenants 8] [-users 2000]
//	        [-minusers 32] [-items 64] [-options 3] [-zipf 1.2]
//	        [-readratio 0.9] [-concurrency 64] [-duration 10s]
//	        [-writebatch 1] [-seed 1] [-warm] [-retries 3]
//	        [-max-staleness -1]
//	        [-handoff-peer ""] [-handoff-shard 0] [-handoff-bundle ""]
//
// Tenant t's user count follows a power law users/(t+1)^zipf (floored at
// minusers) — a few big tenants, a long tail of small ones — and traffic
// picks tenants zipfian too, so the hot tenants are also the big ones.
// Reads POST /v1/rank; writes POST /v1/observe (or /v1/observebatch when
// -writebatch > 1) with uniformly random responses.
//
// Every rank response's generation/staleness tags are tracked: the bench
// output reports how many ranks were served stale (the server's
// -max-staleness fast path) and the stale-serve ratio. Passing
// -max-staleness N additionally asserts no response's staleness exceeded
// N, exiting non-zero on a violation — the serve-smoke invariant check.
//
// Backpressure responses (429 from admission control, 503 during drain)
// are retried up to -retries times, sleeping the server's Retry-After
// hint when it sends one and a capped exponential backoff otherwise,
// jittered either way so workers don't re-arrive in lockstep. Latency
// percentiles cover the final attempt only — backoff sleep is not
// service time — and retry counts appear in the bench output.
//
// With -handoff-peer the run exercises a live shard migration: hndload
// creates the same tenant fleet (empty) on the peer server, and halfway
// through the measured window migrates shard -handoff-shard of the
// largest tenant from -addr to the peer through the two servers' admin
// handoff endpoints, using -handoff-bundle as the shared bundle
// directory. Writes bounced by the fence ride the normal 429 retry
// path; writes arriving after the commit follow the source's 307
// redirect to the new owner transparently. The run fails (non-zero
// exit) if the handoff does not commit, and the summary reports the
// fenced and redirected write counts from the source's /metrics.
//
// Results are printed to stdout in `go test -bench` format so the
// existing cmd/bench2json converter archives them (scripts/serve_bench.sh
// pipes them into a JSON record); a human-readable summary
// goes to stderr. The exit status is non-zero if no request succeeded,
// which lets CI's serve-smoke job assert non-zero throughput.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/refresh"
	"hitsndiffs/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8788", "hndserver base URL")
	tenants := flag.Int("tenants", 8, "number of tenants to create")
	users := flag.Int("users", 2000, "largest tenant's user count (tenant sizes decay zipfian from it)")
	minUsers := flag.Int("minusers", 32, "smallest tenant size the zipfian decay is floored at")
	items := flag.Int("items", 64, "items per tenant")
	options := flag.Int("options", 3, "options per item")
	zipf := flag.Float64("zipf", 1.2, "zipf exponent for tenant sizes and tenant pick distribution (<=1 picks uniformly)")
	readRatio := flag.Float64("readratio", 0.9, "fraction of requests that are ranks (the rest are writes)")
	concurrency := flag.Int("concurrency", 64, "closed-loop worker count")
	duration := flag.Duration("duration", 10*time.Second, "measured load duration")
	writeBatch := flag.Int("writebatch", 1, "observations per write request (>1 uses /v1/observebatch)")
	seed := flag.Int64("seed", 1, "seed for workload synthesis and traffic choices")
	warm := flag.Bool("warm", true, "rank every tenant once before measuring (excludes cold-start solves)")
	reqTimeout := flag.Duration("reqtimeout", 30*time.Second, "per-request timeout")
	retries := flag.Int("retries", 3, "max retries per request on 429/503 backpressure (honors Retry-After, capped exponential backoff otherwise)")
	maxStale := flag.Int64("max-staleness", -1, "assert every rank's staleness stays within this bound and exit non-zero on a violation (-1 = no assertion)")
	handoffPeer := flag.String("handoff-peer", "", "second hndserver base URL: migrate one shard of the largest tenant to it mid-run (both servers durable, sharing -handoff-bundle)")
	handoffShard := flag.Int("handoff-shard", 0, "shard of the largest tenant to migrate under -handoff-peer")
	handoffBundle := flag.String("handoff-bundle", "", "bundle directory reachable by both servers (required with -handoff-peer)")
	flag.Parse()
	if err := validateFlags(loadFlags{
		tenants: *tenants, users: *users, items: *items, options: *options,
		concurrency: *concurrency, writeBatch: *writeBatch, duration: *duration,
		handoffPeer: *handoffPeer, handoffBundle: *handoffBundle,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "hndload:", err)
		flag.Usage()
		os.Exit(2)
	}

	c := &client{
		base:    *addr,
		retries: *retries,
		http: &http.Client{
			Timeout: *reqTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        *concurrency * 2,
				MaxIdleConnsPerHost: *concurrency * 2,
			},
		},
	}

	sizes := tenantSizes(*tenants, *users, *minUsers, *zipf)
	names := make([]string, *tenants)
	total := 0
	for i, n := range sizes {
		names[i] = fmt.Sprintf("t%d", i)
		total += n
	}
	fmt.Fprintf(os.Stderr, "hndload: creating %d tenants, %d users total (sizes %v)\n", *tenants, total, sizes)
	if err := c.setup(names, sizes, *items, *options, *seed, *warm); err != nil {
		fatal(err)
	}

	var peer *client
	handoffErr := make(chan error, 1)
	if *handoffPeer != "" {
		peer = &client{base: *handoffPeer, retries: *retries, http: c.http}
		// The peer hosts the same tenant fleet, empty: the import splices
		// the moving shard's state into its same-named tenant.
		for i, name := range names {
			code, _, err := peer.post("/v1/tenants", serve.CreateTenantRequest{
				Name: name, Users: sizes[i], Items: *items, Options: []int{*options},
			}, nil)
			if err != nil {
				fatal(fmt.Errorf("create %s on peer: %w", name, err))
			}
			if code != http.StatusCreated {
				fatal(fmt.Errorf("create %s on peer: HTTP %d", name, code))
			}
		}
		go func() {
			time.Sleep(*duration / 2)
			handoffErr <- runHandoff(c, peer, names[0], *handoffShard, *handoffBundle)
		}()
	}

	fmt.Fprintf(os.Stderr, "hndload: driving %d workers for %v (read ratio %.2f, write batch %d)\n",
		*concurrency, *duration, *readRatio, *writeBatch)
	before, err := c.metrics()
	if err != nil {
		fatal(err)
	}
	stats := drive(c, names, sizes, *items, *options, *zipf, *readRatio, *concurrency, *duration, *writeBatch, *seed)
	after, err := c.metrics()
	if err != nil {
		fatal(err)
	}

	report(os.Stdout, os.Stderr, stats, *duration, before, after)
	if peer != nil {
		if err := <-handoffErr; err != nil {
			fatal(fmt.Errorf("handoff: %w", err))
		}
		fmt.Fprintf(os.Stderr, "handoff: shard %d of %s moved to %s under load; %d writes fenced (429), %d redirected (307)\n",
			*handoffShard, names[0], *handoffPeer,
			after.WritesFenced-before.WritesFenced, after.WritesRedirected-before.WritesRedirected)
	}
	if stats.ok() == 0 {
		fmt.Fprintln(os.Stderr, "hndload: no request succeeded")
		os.Exit(1)
	}
	if *maxStale >= 0 && stats.maxStaleSeen > uint64(*maxStale) {
		fmt.Fprintf(os.Stderr, "hndload: staleness bound violated: a rank was served %d generations stale, bound %d\n",
			stats.maxStaleSeen, *maxStale)
		os.Exit(1)
	}
}

// loadFlags holds the flag values validateFlags checks.
type loadFlags struct {
	tenants, users, items, options int
	concurrency, writeBatch        int
	duration                       time.Duration
	handoffPeer, handoffBundle     string
}

// validateFlags rejects flag values that would otherwise fail, or be
// silently replaced, only after requests went out: drive needs at least
// one tenant to pick, one worker to run, a positive window and at least
// one observation per write; the server rejects a tenant with no users, no
// items or fewer than 2 options per item; and a handoff needs its bundle
// directory before the tenant fleet is created on either server.
func validateFlags(f loadFlags) error {
	for _, c := range []struct {
		flag     string
		got, min int
	}{
		{"-tenants", f.tenants, 1},
		{"-users", f.users, 1},
		{"-items", f.items, 1},
		{"-options", f.options, 2},
		{"-concurrency", f.concurrency, 1},
		{"-writebatch", f.writeBatch, 1},
	} {
		if c.got < c.min {
			return fmt.Errorf("%s must be at least %d, got %d", c.flag, c.min, c.got)
		}
	}
	if f.duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", f.duration)
	}
	if f.handoffPeer != "" && f.handoffBundle == "" {
		return errors.New("-handoff-peer requires -handoff-bundle")
	}
	return nil
}

// tenantSizes returns the zipfian tenant-size ladder: tenant t gets
// base/(t+1)^s users, floored at minSize.
func tenantSizes(tenants, base, minSize int, s float64) []int {
	if minSize < 2 {
		minSize = 2
	}
	sizes := make([]int, tenants)
	for t := range sizes {
		n := base
		if s > 0 {
			n = int(float64(base) / math.Pow(float64(t+1), s))
		}
		if n < minSize {
			n = minSize
		}
		sizes[t] = n
	}
	return sizes
}

// client is the minimal JSON HTTP client over the serve wire types.
type client struct {
	base    string
	retries int
	http    *http.Client
}

// Backoff bounds for backpressure retries: the exponential ladder starts
// at retryBase when the server sends no Retry-After, and no sleep —
// hinted or computed — exceeds retryCap, so a misbehaving hint cannot
// stall a closed-loop worker.
const (
	retryBase = 25 * time.Millisecond
	retryCap  = 2 * time.Second
)

// post sends a JSON body and decodes a JSON response into out (out may be
// nil to discard). It returns the HTTP status code and the server's
// Retry-After hint (0 when absent); statuses >= 400 are not errors here —
// the caller classifies them.
func (c *client) post(path string, body, out any) (int, time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	ra := parseRetryAfter(resp.Header.Get("Retry-After"))
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, ra, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, ra, nil
}

// parseRetryAfter decodes a Retry-After header: delay seconds or an HTTP
// date, 0 for anything absent or unusable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// backpressured reports whether a status invites a retry: 429 from the
// admission controller or 503 from a draining server.
func backpressured(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// backoff picks the sleep before retry number attempt (0-based): the
// server's hint when it gave one, else retryBase doubled per attempt,
// capped at retryCap, plus up to 50% jitter when rng is non-nil. The
// doubling stops at the cap, so no attempt count can overflow the ladder.
func backoff(rng *rand.Rand, attempt int, hinted time.Duration) time.Duration {
	d := hinted
	if d <= 0 {
		d = retryBase
		for i := 0; i < attempt && d < retryCap; i++ {
			d *= 2
		}
	}
	if d > retryCap {
		d = retryCap
	}
	if rng != nil {
		d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	}
	return d
}

// retryPost issues one logical request, retrying backpressure responses
// up to c.retries times with backoff. The returned latency covers only
// the final attempt — backoff sleep is not service time — and retries
// reports how many attempts were re-issued.
func (c *client) retryPost(rng *rand.Rand, path string, body, out any) (d time.Duration, code, retries int, err error) {
	for {
		start := time.Now()
		var ra time.Duration
		code, ra, err = c.post(path, body, out)
		d = time.Since(start)
		if err != nil || !backpressured(code) || retries >= c.retries {
			return d, code, retries, err
		}
		time.Sleep(backoff(rng, retries, ra))
		retries++
	}
}

// runHandoff migrates one shard of a tenant from src to dst through the
// admin handoff endpoints: export on the source (fence up), import +
// commit on the target, then verify the committed owner. Load keeps
// running throughout — that is the point.
func runHandoff(src, dst *client, tenant string, shard int, bundle string) error {
	var exp serve.HandoffResponse
	code, _, err := src.post("/v1/admin/handoff", serve.HandoffRequest{
		Tenant: tenant, Shard: shard, Action: "export", BundleDir: bundle, Target: dst.base,
	}, &exp)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("export: HTTP %d", code)
	}
	var imp serve.HandoffResponse
	code, _, err = dst.post("/v1/admin/handoff", serve.HandoffRequest{
		Tenant: tenant, Shard: shard, Action: "import", BundleDir: bundle, Owner: dst.base,
	}, &imp)
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	if code != http.StatusOK || !imp.Committed {
		return fmt.Errorf("import: HTTP %d, committed=%v", code, imp.Committed)
	}
	if imp.FencedGeneration != exp.FencedGeneration {
		return fmt.Errorf("fenced frontier moved: export %d, import %d", exp.FencedGeneration, imp.FencedGeneration)
	}
	return nil
}

// metrics fetches the server's /metrics snapshot.
func (c *client) metrics() (serve.Snapshot, error) {
	var snap serve.Snapshot
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// setup creates and seeds every tenant: tenant i is filled with an
// internal/irt synthetic workload of its size (Samejima model, paper
// defaults otherwise), applied through /v1/observebatch in chunks. With
// warm set it then ranks each tenant once, so the measured run starts
// from the steady warm-started state.
func (c *client) setup(names []string, sizes []int, items, options int, seed int64, warm bool) error {
	for i, name := range names {
		code, _, err := c.post("/v1/tenants", serve.CreateTenantRequest{
			Name: name, Users: sizes[i], Items: items, Options: []int{options},
		}, nil)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		if code != http.StatusCreated {
			return fmt.Errorf("create %s: HTTP %d", name, code)
		}
		cfg := hitsndiffs.DefaultGeneratorConfig(hitsndiffs.ModelSamejima)
		cfg.Users, cfg.Items, cfg.Options = sizes[i], items, options
		cfg.Seed = seed + int64(i)
		d, err := hitsndiffs.Generate(cfg)
		if err != nil {
			return fmt.Errorf("generate %s: %w", name, err)
		}
		var obs []serve.Observation
		for u := 0; u < sizes[i]; u++ {
			for it := 0; it < items; it++ {
				if h := d.Responses.Answer(u, it); h != hitsndiffs.Unanswered {
					obs = append(obs, serve.Observation{User: u, Item: it, Option: h})
				}
			}
		}
		const chunk = 8192
		for lo := 0; lo < len(obs); lo += chunk {
			hi := min(lo+chunk, len(obs))
			_, code, _, err := c.retryPost(nil, "/v1/observebatch", serve.ObserveBatchRequest{Tenant: name, Observations: obs[lo:hi]}, nil)
			if err != nil {
				return fmt.Errorf("seed %s: %w", name, err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("seed %s: HTTP %d", name, code)
			}
		}
		if warm {
			_, code, _, err := c.retryPost(nil, "/v1/rank", serve.RankRequest{Tenant: name}, nil)
			if err != nil {
				return fmt.Errorf("warm rank %s: %w", name, err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("warm rank %s: HTTP %d", name, code)
			}
		}
	}
	return nil
}

// opKind indexes the per-operation stats buckets.
type opKind int

// The two measured operation kinds.
const (
	opRank opKind = iota
	opWrite
	opKinds
)

// stats accumulates one run's measurements across workers.
type stats struct {
	lat      [opKinds][]time.Duration // successful-request latencies
	rejected [opKinds]int             // 429/503 rejections that survived all retries
	retried  [opKinds]int             // backpressured attempts re-issued after backoff
	failed   [opKinds]int             // transport errors and non-2xx, non-backpressure

	staleServes  int    // ranks answered behind the write frontier
	maxStaleSeen uint64 // worst staleness any rank response carried
}

// ok returns the number of successful requests across kinds.
func (st *stats) ok() int { return len(st.lat[opRank]) + len(st.lat[opWrite]) }

// merge folds o into st.
func (st *stats) merge(o *stats) {
	for k := opKind(0); k < opKinds; k++ {
		st.lat[k] = append(st.lat[k], o.lat[k]...)
		st.rejected[k] += o.rejected[k]
		st.retried[k] += o.retried[k]
		st.failed[k] += o.failed[k]
	}
	st.staleServes += o.staleServes
	if o.maxStaleSeen > st.maxStaleSeen {
		st.maxStaleSeen = o.maxStaleSeen
	}
}

// drive runs the closed loop: each of the workers repeatedly picks a
// tenant (zipfian when s > 1, uniform otherwise), flips the read/write
// coin, issues the request, and records its latency — until the deadline.
func drive(c *client, names []string, sizes []int, items, options int, s, readRatio float64,
	concurrency int, duration time.Duration, writeBatch int, seed int64) *stats {
	deadline := time.Now().Add(duration)
	perWorker := make([]*stats, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		st := &stats{}
		perWorker[w] = st
		wg.Add(1)
		go func(w int, st *stats) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 7919*int64(w+1)))
			var zf *rand.Zipf
			if s > 1 && len(names) > 1 {
				zf = rand.NewZipf(rng, s, 1, uint64(len(names)-1))
			}
			for time.Now().Before(deadline) {
				t := 0
				if zf != nil {
					t = int(zf.Uint64())
				} else if len(names) > 1 {
					t = rng.Intn(len(names))
				}
				if rng.Float64() < readRatio {
					d, code, retries, stale, err := c.rank(rng, names[t])
					st.record(opRank, d, code, retries, err)
					if err == nil && code < 300 {
						if stale > 0 {
							st.staleServes++
						}
						if stale > st.maxStaleSeen {
							st.maxStaleSeen = stale
						}
					}
				} else {
					d, code, retries, err := c.write(rng, names[t], sizes[t], items, options, writeBatch)
					st.record(opWrite, d, code, retries, err)
				}
			}
		}(w, st)
	}
	wg.Wait()
	total := &stats{}
	for _, st := range perWorker {
		total.merge(st)
	}
	return total
}

// record classifies one request outcome into the stats buckets.
func (st *stats) record(k opKind, d time.Duration, code, retries int, err error) {
	st.retried[k] += retries
	switch {
	case err != nil:
		st.failed[k]++
	case backpressured(code):
		st.rejected[k]++
	case code >= 300:
		st.failed[k]++
	default:
		st.lat[k] = append(st.lat[k], d)
	}
}

// rank times one /v1/rank call (retrying backpressure) and reports the
// staleness the response was served at (0 = exact).
func (c *client) rank(rng *rand.Rand, tenant string) (time.Duration, int, int, uint64, error) {
	var resp serve.RankResponse
	d, code, retries, err := c.retryPost(rng, "/v1/rank", serve.RankRequest{Tenant: tenant}, &resp)
	return d, code, retries, resp.Staleness, err
}

// write times one write: a single /v1/observe, or an /v1/observebatch of
// batch uniformly random responses (retrying backpressure).
func (c *client) write(rng *rand.Rand, tenant string, users, items, options, batch int) (time.Duration, int, int, error) {
	if batch <= 1 {
		return c.retryPost(rng, "/v1/observe", serve.ObserveRequest{
			Tenant: tenant, User: rng.Intn(users), Item: rng.Intn(items), Option: rng.Intn(options),
		}, nil)
	}
	obs := make([]serve.Observation, batch)
	for i := range obs {
		obs[i] = serve.Observation{User: rng.Intn(users), Item: rng.Intn(items), Option: rng.Intn(options)}
	}
	return c.retryPost(rng, "/v1/observebatch", serve.ObserveBatchRequest{Tenant: tenant, Observations: obs}, nil)
}

// percentile returns the q-quantile of sorted latencies by nearest rank:
// the smallest sample with at least a q fraction of the samples at or
// below it, so a small run's p99 is its maximum.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// report prints go-bench-format result lines to bench (one per operation
// kind plus the mixed total, each carrying p50/p95/p99 ns/op, throughput
// and the rejection/coalescing counters) and a human summary to human.
func report(bench, human io.Writer, st *stats, duration time.Duration, before, after serve.Snapshot) {
	secs := duration.Seconds()
	coalesced := after.RankCoalesced - before.RankCoalesced
	// Actual solves are the engines' cache misses; ranks that hit a
	// generation-keyed engine cache, or coalesce onto another's solve,
	// never solve.
	var solves, hits uint64
	misses := func(snap serve.Snapshot) (m, h uint64) {
		for _, t := range snap.Tenants {
			m += t.Engine.CacheMisses
			h += t.Engine.CacheHits
		}
		return m, h
	}
	mb, hb := misses(before)
	ma, ha := misses(after)
	solves, hits = ma-mb, ha-hb

	line := func(name string, lat []time.Duration, extra string) {
		if len(lat) == 0 {
			return
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Fprintf(bench, "Benchmark%s %d %d p50-ns/op %d p95-ns/op %d p99-ns/op %.1f req/s%s\n",
			name, len(lat),
			percentile(lat, 0.50).Nanoseconds(),
			percentile(lat, 0.95).Nanoseconds(),
			percentile(lat, 0.99).Nanoseconds(),
			float64(len(lat))/secs, extra)
		fmt.Fprintf(human, "%-14s %8d ok  p50 %-10v p95 %-10v p99 %-10v %.1f req/s\n",
			name, len(lat),
			percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99),
			float64(len(lat))/secs)
	}
	staleRatio := 0.0
	if n := len(st.lat[opRank]); n > 0 {
		staleRatio = float64(st.staleServes) / float64(n)
	}
	line("ServeRank", st.lat[opRank],
		fmt.Sprintf(" %d solves %d cache-hits %d coalesced %d stale-serves %.4f stale-ratio",
			solves, hits, coalesced, st.staleServes, staleRatio))
	line("ServeObserve", st.lat[opWrite],
		fmt.Sprintf(" %d rejected-429 %d retried", st.rejected[opWrite], st.retried[opWrite]))
	mixed := append(append([]time.Duration(nil), st.lat[opRank]...), st.lat[opWrite]...)
	line("ServeMixed", mixed,
		fmt.Sprintf(" %d rejected-429 %d retried %d failed",
			st.rejected[opRank]+st.rejected[opWrite], st.retried[opRank]+st.retried[opWrite],
			st.failed[opRank]+st.failed[opWrite]))
	fmt.Fprintf(human, "ranks: %d engine solves, %d engine cache hits, %d coalesced; rejected after retries: %d; retried: %d; failures: %d\n",
		solves, hits, coalesced, st.rejected[opRank]+st.rejected[opWrite],
		st.retried[opRank]+st.retried[opWrite], st.failed[opRank]+st.failed[opWrite])
	if st.staleServes > 0 || after.Refresh != nil {
		fmt.Fprintf(human, "staleness: %d ranks served stale (ratio %.4f), worst %d generations behind\n",
			st.staleServes, staleRatio, st.maxStaleSeen)
	}
	if r := after.Refresh; r != nil {
		delta := func(a, b uint64) uint64 { return a - b }
		var rb refresh.Metrics
		if before.Refresh != nil {
			rb = *before.Refresh
		}
		fmt.Fprintf(human, "refresh: %d rounds, %d refreshes, queue depth %d, %d errors\n",
			delta(r.Rounds, rb.Rounds), delta(r.Refreshes, rb.Refreshes),
			r.QueueDepth, delta(r.Errors, rb.Errors))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hndload:", err)
	os.Exit(1)
}
