// Command hndserver serves the hitsndiffs engines over HTTP JSON — the
// network face of the library. It hosts named tenants (each an
// independent response matrix behind a ShardedEngine of -shards shards,
// one by default) and exposes observe / rank / label-inference traffic
// with request coalescing, per-tenant admission control and graceful
// drain.
//
// Usage:
//
//	hndserver [-addr :8788] [-method HnD-power] [-shards 1] [-ring]
//	          [-tol 1e-5] [-maxiter 20000] [-seed 0]
//	          [-maxwrites 64] [-maxlag 0] [-maxtenants 1024]
//	          [-max-staleness 0] [-refresh-interval 25ms]
//	          [-drain-timeout 15s]
//	          [-data-dir ""] [-fsync always] [-snapshot-every 4096]
//
// Endpoints (JSON bodies; see internal/serve for the wire types):
//
//	POST /v1/tenants       create a tenant {name, users, items, options}
//	GET  /v1/tenants       list tenants
//	POST /v1/observe       record one response {tenant, user, item, option}
//	POST /v1/observebatch  record a burst {tenant, observations:[...]}
//	POST /v1/rank          rank a tenant's users {tenant}
//	POST /v1/rankbatch     rank several tenants {tenants:[...]}
//	POST /v1/inferlabels   infer correct options {tenant} (one-shard tenants only)
//	POST /v1/admin/handoff shard migration step {tenant, shard, action, ...}
//	POST /v1/admin/partition  shard ownership map {tenant}
//	GET  /metrics          serve + engine counter snapshot
//	GET  /healthz          200 "ok" serving / 503 "draining"
//
// Concurrent ranks, refreshes and label inferences of one tenant at one
// write generation share a single solve. Writes are admission-controlled:
// -maxwrites bounds in-flight writes per tenant and -maxlag bounds how many
// answers a tenant's write generation may run ahead of its last served
// rank; both reject with 429 + Retry-After.
//
// With -max-staleness N ranks serve the last solved scores while a
// tenant's matrix is at most N write generations ahead — decoupling reads
// from solves, so write bursts stop spiking read tails — while a
// background refresh scheduler re-solves stale tenants by staleness ×
// request traffic every -refresh-interval. Responses carry "generation"
// and "staleness" fields; staleness never exceeds the bound. The default
// 0 keeps every rank exact.
//
// On SIGINT/SIGTERM the server drains: /healthz flips to
// 503 (with Retry-After), new requests are rejected, in-flight solves
// finish (bounded by -drain-timeout), then the process exits 0. A second
// signal hard-stops.
//
// With -data-dir the server is durable: every write is appended to a
// per-shard write-ahead log before it commits (fsync policy per -fsync:
// always, interval[=dur], off), snapshots checkpoint the matrices every
// -snapshot-every observations, and a restarted server recovers every
// tenant at exactly its durable write generation — after kill -9, the
// recovered generation in /metrics equals the pre-crash one.
//
// Durable servers can migrate one shard of a tenant to another hndserver
// through POST /v1/admin/handoff: the source exports the shard as a
// bundle (snapshot + fenced WAL tail) into a directory both processes can
// reach, rejecting that shard's writes with 429 + Retry-After while the
// move is pending; the target imports and commits; the source then
// answers the moved shard's writes with 307 redirects to the new owner.
// A crash at any point leaves exactly one authoritative owner, and a
// restarted source recovers committed moves (still redirecting) while
// retracting uncommitted exports (serving again). -ring switches sharded
// tenants to a consistent-hash user partition, recorded per tenant in its
// durable manifest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/refresh"
	"hitsndiffs/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8788", "listen address")
	method := flag.String("method", "HnD-power", "ranking method every tenant serves (see hnd -list)")
	shards := flag.Int("shards", 1, "engine shards per tenant: its ShardedEngine hashes users across them (1 serves the whole matrix on one shard)")
	ring := flag.Bool("ring", false, "partition sharded tenants by consistent-hash ring instead of the default modular hash (recorded per tenant; affects new tenants only)")
	tol := flag.Float64("tol", 1e-5, "convergence tolerance for iterative methods")
	maxIter := flag.Int("maxiter", 20000, "iteration budget for iterative methods")
	seed := flag.Int64("seed", 0, "random seed for the spectral starting vector")
	maxWrites := flag.Int("maxwrites", 64, "max in-flight writes per tenant before 429 (0 = unbounded)")
	maxLag := flag.Int("maxlag", 0, "max write generations (answers) a tenant may run ahead of its last served rank before writes 429 (0 = unbounded)")
	maxTenants := flag.Int("maxtenants", serve.DefaultMaxTenants, "max hosted tenants")
	maxStaleness := flag.Uint64("max-staleness", 0, "max write generations a served rank may trail the matrix, refreshed in the background (0 = every rank exact)")
	refreshInterval := flag.Duration("refresh-interval", 0, "background refresh round cadence under -max-staleness (0 = default 25ms)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to wait for in-flight requests on shutdown")
	dataDir := flag.String("data-dir", "", "durability directory: per-tenant WAL + snapshots, recovered at startup (empty = in-memory only)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval[=duration], off")
	snapshotEvery := flag.Int("snapshot-every", 0, "observations between background snapshots (0 = default 4096, negative = open-time checkpoint only)")
	flag.Parse()
	policy, err := validateFlags(serverFlags{
		method: *method, fsync: *fsync,
		shards: *shards, maxWrites: *maxWrites, maxLag: *maxLag, maxTenants: *maxTenants,
		refreshInterval: *refreshInterval, drainTimeout: *drainTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hndserver:", err)
		flag.Usage()
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		Method:        *method,
		Shards:        *shards,
		RingPartition: *ring,
		RankOptions: []hitsndiffs.Option{
			hitsndiffs.WithTol(*tol),
			hitsndiffs.WithMaxIter(*maxIter),
			hitsndiffs.WithSeed(*seed),
		},
		MaxInflightWrites: *maxWrites,
		MaxLag:            *maxLag,
		MaxTenants:        *maxTenants,
		MaxStaleness:      *maxStaleness,
		RefreshInterval:   *refreshInterval,
		DataDir:           *dataDir,
		Fsync:             policy,
		SnapshotEvery:     *snapshotEvery,
	})
	if err != nil {
		log.Fatal("hndserver: ", err)
	}
	if *dataDir != "" {
		log.Printf("hndserver: durable: data-dir=%s fsync=%s", *dataDir, policy)
	}
	if *maxStaleness > 0 {
		iv := *refreshInterval
		if iv <= 0 {
			iv = refresh.DefaultInterval
		}
		log.Printf("hndserver: staleness-bounded serving: max-staleness=%d refresh-interval=%s", *maxStaleness, iv)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal("hndserver: ", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	log.Printf("hndserver: serving method=%s shards=%d on %s", *method, *shards, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal("hndserver: ", err)
	case sig := <-sigc:
		log.Printf("hndserver: %v — draining (in-flight solves finish, new requests get 503)", sig)
	}

	// Graceful drain: reject new work, let http.Server.Shutdown wait for
	// in-flight handlers (and the solves coalesced behind them). A second
	// signal — or the drain timeout — hard-stops via srv.Close, which
	// cancels the solve context mid-iteration.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case sig := <-sigc:
			log.Printf("hndserver: second %v — hard stop", sig)
			srv.Close()
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := httpSrv.Shutdown(ctx); err != nil {
		srv.Close()
		_ = httpSrv.Close()
		fmt.Fprintln(os.Stderr, "hndserver: drain incomplete:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hndserver:", err)
		os.Exit(1)
	}
	// All handlers have returned; close the serve layer so durable logs
	// fsync and release cleanly.
	srv.Close()
	log.Print("hndserver: drained cleanly")
}

// serverFlags holds the flag values validateFlags checks.
type serverFlags struct {
	method, fsync                         string
	shards, maxWrites, maxLag, maxTenants int
	refreshInterval, drainTimeout         time.Duration
}

// validateFlags rejects, before the server listens, flag values the help
// gives no meaning to: an unregistered -method, an -fsync policy
// durable.ParsePolicy cannot parse, and values the serve layer would
// otherwise replace silently — a negative bound would read as
// "unbounded", a shard or tenant cap below 1 as a default, a negative
// refresh interval as 25ms, and a non-positive drain timeout would cut off
// in-flight requests at the first signal. It returns the parsed -fsync
// policy.
func validateFlags(f serverFlags) (durable.Policy, error) {
	if _, ok := hitsndiffs.Describe(f.method); !ok {
		return durable.Policy{}, fmt.Errorf("-method: unknown method %q (known: %v)", f.method, hitsndiffs.MethodNames())
	}
	policy, err := durable.ParsePolicy(f.fsync)
	if err != nil {
		return durable.Policy{}, fmt.Errorf("-fsync: %w", err)
	}
	for _, c := range []struct {
		flag     string
		got, min int
	}{
		{"-shards", f.shards, 1},
		{"-maxwrites", f.maxWrites, 0},
		{"-maxlag", f.maxLag, 0},
		{"-maxtenants", f.maxTenants, 1},
	} {
		if c.got < c.min {
			return durable.Policy{}, fmt.Errorf("%s must be at least %d, got %d", c.flag, c.min, c.got)
		}
	}
	if f.refreshInterval < 0 {
		return durable.Policy{}, fmt.Errorf("-refresh-interval must not be negative, got %v", f.refreshInterval)
	}
	if f.drainTimeout <= 0 {
		return durable.Policy{}, fmt.Errorf("-drain-timeout must be positive, got %v", f.drainTimeout)
	}
	return policy, nil
}
