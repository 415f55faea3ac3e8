// Package serve is the network serving tier: it hosts named tenants —
// each an independent response matrix behind a hitsndiffs.Engine or
// ShardedEngine — and exposes Observe / ObserveBatch / Rank / RankBatch /
// InferLabels over stdlib net/http JSON (no dependencies beyond the
// standard library).
//
// The layer is more than a shim over the engines; it adds the three
// behaviors a process boundary needs:
//
//   - Request coalescing, which the engines do themselves: concurrent
//     ranks, background refreshes and label inferences of one tenant's
//     matrix share a single solve (hitsndiffs.Engine.Rank), and the rank
//     response's coalesced flag reports a request that rode another's
//     solve. A canceled request never fails the others sharing its solve.
//   - Admission control: per-tenant bounded in-flight writes plus an
//     optional refresh-lag bound (writes rejected with 429 while the
//     tenant's write generation runs too far ahead of its engine's served
//     generation), so a write flood turns into client backpressure instead
//     of unbounded queueing.
//   - Graceful drain: StartDrain flips the server into a mode where new
//     requests are rejected with 503 (and /healthz reports draining) while
//     in-flight solves run to completion — the handshake cmd/hndserver
//     performs on SIGTERM before http.Server.Shutdown.
//
// GET /metrics exposes the serve-layer counters together with a
// per-tenant hitsndiffs.EngineMetrics snapshot (cache hits/misses, write
// and served generations), each taken under the owning engine's locks so
// the scrape never races engine internals.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/refresh"
	"hitsndiffs/internal/response"
	"hitsndiffs/internal/testclock"
)

// maxBodyBytes bounds request bodies (observebatch bursts dominate); a
// larger batch should be split client-side.
const maxBodyBytes = 64 << 20

// DefaultMaxTenants bounds tenant creation when Config.MaxTenants is zero.
const DefaultMaxTenants = 1024

// Config configures a Server. The zero value serves the default method
// with unsharded tenants and no admission bounds.
type Config struct {
	// Method is the registered ranking method every tenant serves
	// (default "HnD-power"). Resolved at New, so a typo fails at startup.
	Method string
	// Shards > 1 backs every tenant with a ShardedEngine hashing its
	// users across that many independent engine shards.
	Shards int
	// RankOptions are the base solve options (tolerance, iteration budget,
	// seed, ...) applied to every tenant engine.
	RankOptions []hitsndiffs.Option
	// MaxInflightWrites bounds concurrent observe/observebatch requests
	// per tenant; excess writes get 429. Zero or negative = unbounded.
	MaxInflightWrites int
	// MaxLag bounds how many write generations (answers) a tenant may run
	// ahead of the highest generation a rank was served at
	// (hitsndiffs.EngineMetrics.ServedGeneration) before writes get 429 —
	// backpressure for write rates that outrun refresh. A write is
	// admitted while the lag is below the bound, however many answers it
	// carries. Zero or negative = unbounded.
	MaxLag int
	// MaxTenants bounds tenant creation (default DefaultMaxTenants).
	MaxTenants int
	// DataDir, when non-empty, makes every tenant durable: writes are
	// appended to per-shard write-ahead logs under DataDir/<tenant>/
	// before they commit, snapshots bound the logs, and New recovers
	// every tenant from disk at startup. Empty = in-memory only.
	DataDir string
	// Fsync is the WAL flush policy in effect under DataDir (the zero
	// value is durable.FsyncAlways: an acknowledged write is on stable
	// storage). Parse flag values with durable.ParsePolicy.
	Fsync durable.Policy
	// SnapshotEvery is the background snapshot cadence in observations
	// (default DefaultSnapshotEvery; negative disables background
	// snapshots, leaving only the open-time checkpoint).
	SnapshotEvery int
	// MaxStaleness > 0 lets ranks serve the last solved scores while a
	// tenant's matrix is at most that many write generations ahead
	// (hitsndiffs.WithMaxStaleness), and starts the background refresh
	// scheduler (internal/refresh) that re-solves stale tenants by
	// staleness × request traffic — so write bursts stop spiking read
	// tails. Responses carry their generation and staleness. Zero (the
	// default) keeps every rank exact and runs no scheduler.
	MaxStaleness uint64
	// RefreshInterval is the scheduler's round cadence under MaxStaleness
	// (default refresh.DefaultInterval).
	RefreshInterval time.Duration
	// RefreshClock injects the scheduler's time source; nil means the
	// system clock. Tests pass a testclock.Fake to drive refresh rounds
	// deterministically.
	RefreshClock testclock.Clock
	// RingPartition switches sharded tenants from the default modular-hash
	// user partition to the consistent-hash ring
	// (hitsndiffs.WithRingPartition), so shard counts can change without
	// remapping most users. The choice is recorded in each tenant's
	// manifest — switching the flag on an existing durable deployment does
	// not re-partition recovered tenants.
	RingPartition bool
}

// Server hosts the tenants and implements the HTTP API. Construct with
// New; the zero value is not usable. All methods are safe for concurrent
// use.
type Server struct {
	cfg Config

	// solveCtx ends every request's solve when Close cancels it (hard
	// stop); it stays alive across graceful drain.
	solveCtx    context.Context
	solveCancel context.CancelFunc

	// createMu serializes tenant creation so the durable path's
	// directory/manifest handshake never races a same-name create.
	createMu sync.Mutex

	mu      sync.RWMutex
	tenants map[string]*tenant

	// refresher is the background staleness scheduler, nil when
	// Config.MaxStaleness is zero (every rank is exact — nothing to
	// refresh).
	refresher *refresh.Scheduler

	draining atomic.Bool
	ctr      counters
}

// backend is the slice of Engine / ShardedEngine the serving tier needs;
// both satisfy it.
type backend interface {
	Observe(user, item, option int) error
	ObserveBatch(obs []hitsndiffs.Observation) error
	Rank(ctx context.Context) (hitsndiffs.Result, error)
	Refresh(ctx context.Context) (hitsndiffs.Result, error)
	Generation() uint64
	Users() int
	Items() int
	Method() string
	Metrics() hitsndiffs.EngineMetrics
}

// tenant is one hosted response matrix with its serving state.
type tenant struct {
	name    string
	shards  int
	backend backend
	// engine is the unsharded backend, nil for sharded tenants; label
	// inference needs the full matrix on one engine.
	engine *hitsndiffs.Engine
	// sharded is the sharded backend, nil for unsharded tenants; the
	// durability layer needs per-shard views and restore access.
	sharded *hitsndiffs.ShardedEngine
	// dur is the tenant's persistence state, nil without Config.DataDir.
	dur *tenantDurability
	// own is the tenant's shard-migration state (in-flight exports,
	// committed moves); its zero value means nothing is moving.
	own ownership
	adm admission
}

// lag reads the tenant's write generation and the highest generation a
// rank was served at — the pair the admission lag bound compares.
func (t *tenant) lag() (gen, served uint64) {
	m := t.backend.Metrics()
	return m.Generation, m.ServedGeneration
}

// info snapshots the tenant for list/create responses.
func (t *tenant) info() TenantInfo {
	return TenantInfo{
		Name:       t.name,
		Users:      t.backend.Users(),
		Items:      t.backend.Items(),
		Shards:     t.shards,
		Method:     t.backend.Method(),
		Generation: t.backend.Generation(),
	}
}

// New builds a Server from cfg, resolving the method against the registry
// so an unknown name fails at startup rather than at first tenant.
func New(cfg Config) (*Server, error) {
	if cfg.Method == "" {
		cfg.Method = "HnD-power"
	}
	if _, ok := hitsndiffs.Describe(cfg.Method); !ok {
		return nil, fmt.Errorf("serve: unknown method %q (known: %v)", cfg.Method, hitsndiffs.MethodNames())
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		solveCtx:    ctx,
		solveCancel: cancel,
		tenants:     make(map[string]*tenant),
	}
	if cfg.MaxStaleness > 0 {
		s.refresher = refresh.New(refresh.Config{
			Clock:    cfg.RefreshClock,
			Interval: cfg.RefreshInterval,
		})
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			s.closeRefresher()
			cancel()
			return nil, fmt.Errorf("serve: create data dir: %w", err)
		}
		if err := s.recoverTenants(); err != nil {
			s.closeRefresher()
			cancel()
			return nil, err
		}
	}
	return s, nil
}

// StartDrain begins graceful shutdown: /healthz flips to 503 "draining"
// and every subsequent /v1 request is rejected with 503, while requests
// (and coalesced solves) already in flight run to completion. Pair with
// http.Server.Shutdown, which waits for those in-flight handlers.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close hard-stops the server: it drains, stops the refresh scheduler —
// waiting out any background refresh already in flight, so the WAL flush
// below never races a solve — then cancels the solve context (aborting
// every in-flight request solve mid-iteration) and flushes and closes
// every tenant's durable logs. Prefer StartDrain + http.Server.Shutdown
// for the graceful path, then Close to release durability resources.
func (s *Server) Close() {
	s.StartDrain()
	s.closeRefresher()
	s.solveCancel()
	s.mu.RLock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	for _, t := range tenants {
		t.dur.close()
	}
}

// closeRefresher stops the refresh scheduler if one is running, blocking
// until its in-flight round finishes. Idempotent; a no-op without one.
func (s *Server) closeRefresher() {
	if s.refresher != nil {
		s.refresher.Close()
	}
}

// registerRefresh enrolls a tenant's engine with the refresh scheduler (a
// no-op when ranks are exact and no scheduler runs).
func (s *Server) registerRefresh(t *tenant) {
	if s.refresher != nil {
		s.refresher.Register(t.name, t.backend)
	}
}

// CreateTenant registers a new tenant with an empty response matrix of
// the given geometry, backed by a plain Engine (Config.Shards <= 1) or a
// ShardedEngine. It is the programmatic twin of POST /v1/tenants.
func (s *Server) CreateTenant(req CreateTenantRequest) (TenantInfo, error) {
	if req.Name == "" {
		return TenantInfo{}, &apiError{http.StatusBadRequest, "tenant name must be non-empty"}
	}
	if req.Users < 1 || req.Items < 1 {
		return TenantInfo{}, &apiError{http.StatusBadRequest,
			fmt.Sprintf("tenant needs positive users/items, got %d/%d", req.Users, req.Items)}
	}
	if len(req.Options) != 1 && len(req.Options) != req.Items {
		return TenantInfo{}, &apiError{http.StatusBadRequest,
			fmt.Sprintf("options must hold 1 or %d counts, got %d", req.Items, len(req.Options))}
	}
	for _, k := range req.Options {
		if k < 2 {
			return TenantInfo{}, &apiError{http.StatusBadRequest,
				fmt.Sprintf("every item needs at least 2 options, got %d", k)}
		}
	}
	// The matrix bound: a geometry past it would overflow or exhaust
	// memory at the first write, or could not be recovered from its
	// snapshot.
	if err := response.CheckShape(req.Users, req.Items, req.Options...); err != nil {
		return TenantInfo{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	s.mu.RLock()
	_, exists := s.tenants[req.Name]
	atCapacity := len(s.tenants) >= s.cfg.MaxTenants
	s.mu.RUnlock()
	if exists {
		return TenantInfo{}, &apiError{http.StatusConflict, fmt.Sprintf("tenant %q already exists", req.Name)}
	}
	if atCapacity {
		return TenantInfo{}, &apiError{http.StatusTooManyRequests,
			fmt.Sprintf("tenant capacity %d reached", s.cfg.MaxTenants)}
	}
	if s.cfg.DataDir != "" {
		if err := s.reserveTenantDir(req.Name); err != nil {
			return TenantInfo{}, err
		}
	}
	t, err := s.buildTenant(req, s.cfg.Shards, s.cfg.RingPartition)
	if err != nil {
		return TenantInfo{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	if s.cfg.DataDir != "" {
		man := manifest{Name: req.Name, Users: req.Users, Items: req.Items, Options: req.Options,
			Shards: t.shards, Ring: s.cfg.RingPartition}
		if err := s.attachDurability(t, man); err != nil {
			return TenantInfo{}, &apiError{http.StatusInternalServerError, err.Error()}
		}
		// The manifest publishes last: a crash anywhere earlier leaves a
		// manifest-less directory that the next create simply reuses.
		if err := writeManifest(filepath.Join(s.cfg.DataDir, req.Name), man); err != nil {
			t.dur.close()
			return TenantInfo{}, &apiError{http.StatusInternalServerError, err.Error()}
		}
	}

	s.mu.Lock()
	s.tenants[req.Name] = t
	s.mu.Unlock()
	s.registerRefresh(t)
	return t.info(), nil
}

// buildTenant constructs the engine(s) of one tenant with an empty matrix
// of the requested geometry — shared by CreateTenant and startup
// recovery, which restores durable state into the engines afterwards.
func (s *Server) buildTenant(req CreateTenantRequest, shards int, ring bool) (*tenant, error) {
	m := hitsndiffs.NewResponseMatrix(req.Users, req.Items, req.Options...)
	opts := []hitsndiffs.EngineOption{
		hitsndiffs.WithMethod(s.cfg.Method),
		hitsndiffs.WithRankOptions(s.cfg.RankOptions...),
	}
	if s.cfg.MaxStaleness > 0 {
		opts = append(opts, hitsndiffs.WithMaxStaleness(s.cfg.MaxStaleness))
	}
	t := &tenant{name: req.Name, shards: 1, adm: newAdmission(s.cfg.MaxInflightWrites, s.cfg.MaxLag)}
	if shards > 1 {
		opts = append(opts, hitsndiffs.WithShards(shards))
		if ring {
			opts = append(opts, hitsndiffs.WithRingPartition(0))
		}
		se, err := hitsndiffs.NewShardedEngine(m, opts...)
		if err != nil {
			return nil, err
		}
		t.backend, t.sharded, t.shards = se, se, se.Shards()
	} else {
		eng, err := hitsndiffs.NewEngine(m, opts...)
		if err != nil {
			return nil, err
		}
		t.backend, t.engine = eng, eng
	}
	return t, nil
}

// lookup resolves a tenant by name.
func (s *Server) lookup(name string) (*tenant, error) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &apiError{http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name)}
	}
	return t, nil
}

// observe applies a batch to one tenant under admission control and
// returns the post-write generation; path is the request path, echoed in
// the redirect Location when the batch hits a shard that has moved away.
func (s *Server) observe(t *tenant, path string, obs []hitsndiffs.Observation) (ObserveResponse, error) {
	release, err := t.adm.acquire(t.lag)
	if err != nil {
		switch {
		case errors.Is(err, errWritesSaturated):
			s.ctr.rejectedSaturated.Add(1)
		case errors.Is(err, errRefreshLagging):
			s.ctr.rejectedLagging.Add(1)
		}
		return ObserveResponse{}, &apiError{http.StatusTooManyRequests, err.Error()}
	}
	defer release()
	if err := t.backend.ObserveBatch(obs); err != nil {
		// A fenced shard is mid-migration: 429 + Retry-After while the move
		// is pending, 307 to the new owner once it committed.
		if errors.Is(err, hitsndiffs.ErrFenced) {
			return ObserveResponse{}, s.fencedError(t, path, obs)
		}
		// A write the WAL could not persist is a server fault, not a bad
		// request — the engine refused to apply it, so no state diverged.
		if de := durabilityError(err); de != nil {
			return ObserveResponse{}, de
		}
		return ObserveResponse{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	s.ctr.observations.Add(uint64(len(obs)))
	t.noteApplied(len(obs))
	return ObserveResponse{Generation: t.backend.Generation(), Applied: len(obs)}, nil
}

// solveContext derives the context a request's solve runs under: it ends
// with the request or when Close cancels in-flight solves. The engines
// coalesce concurrent solves themselves, and a request whose context ends
// leaves a shared solve running for the others.
func (s *Server) solveContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.solveCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// rankTenant is the rank path shared by /v1/rank and /v1/rankbatch.
func (s *Server) rankTenant(ctx context.Context, t *tenant) (hitsndiffs.Result, error) {
	ctx, cancel := s.solveContext(ctx)
	defer cancel()
	res, err := t.backend.Rank(ctx)
	if err != nil {
		return res, err
	}
	if res.Coalesced {
		s.ctr.rankCoalesced.Add(1)
	} else {
		s.ctr.rankLeaders.Add(1)
	}
	if res.Staleness > 0 {
		s.ctr.staleServes.Add(1)
	}
	if s.refresher != nil {
		s.refresher.NoteTraffic(t.name)
	}
	return res, nil
}

// rankResponse shapes one tenant's rank outcome for the wire.
func rankResponse(name string, res hitsndiffs.Result) RankResponse {
	return RankResponse{
		Tenant:     name,
		Generation: res.Generation,
		Staleness:  res.Staleness,
		Scores:     res.Scores,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Coalesced:  res.Coalesced,
	}
}

// Handler returns the HTTP handler serving the full API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/tenants", s.guard(s.handleCreateTenant))
	mux.HandleFunc("GET /v1/tenants", s.guard(s.handleListTenants))
	mux.HandleFunc("POST /v1/observe", s.guard(s.handleObserve))
	mux.HandleFunc("POST /v1/observebatch", s.guard(s.handleObserveBatch))
	mux.HandleFunc("POST /v1/rank", s.guard(s.handleRank))
	mux.HandleFunc("POST /v1/rankbatch", s.guard(s.handleRankBatch))
	mux.HandleFunc("POST /v1/inferlabels", s.guard(s.handleInferLabels))
	mux.HandleFunc("POST /v1/admin/handoff", s.guard(s.handleAdminHandoff))
	mux.HandleFunc("POST /v1/admin/partition", s.guard(s.handleAdminPartition))
	return mux
}

// guard wraps a /v1 handler with the request counter and the drain gate:
// once draining, new work is rejected with 503 while /healthz and /metrics
// stay readable for the orchestrator watching the drain.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.ctr.requests.Add(1)
		if s.draining.Load() {
			s.writeError(w, &apiError{http.StatusServiceUnavailable, "server is draining"})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	resp := HealthResponse{Status: "ok", Tenants: n}
	code := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	info, err := s.CreateTenant(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	resp := ListTenantsResponse{Tenants: make([]TenantInfo, len(list))}
	for i, t := range list {
		resp.Tenants[i] = t.info()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	t, err := s.lookup(req.Tenant)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.observe(t, r.URL.Path, []hitsndiffs.Observation{{User: req.User, Item: req.Item, Option: req.Option}})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var req ObserveBatchRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	t, err := s.lookup(req.Tenant)
	if err != nil {
		s.writeError(w, err)
		return
	}
	obs := make([]hitsndiffs.Observation, len(req.Observations))
	for i, o := range req.Observations {
		obs[i] = hitsndiffs.Observation{User: o.User, Item: o.Item, Option: o.Option}
	}
	resp, err := s.observe(t, r.URL.Path, obs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	t, err := s.lookup(req.Tenant)
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.rankTenant(r.Context(), t)
	if err != nil {
		s.writeError(w, solveError(err))
		return
	}
	s.writeRanks(w, []RankResponse{rankResponse("", res)}, false)
}

func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	var req RankBatchRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Tenants) == 0 {
		s.writeError(w, &apiError{http.StatusBadRequest, "rankbatch needs at least one tenant"})
		return
	}
	ts := make([]*tenant, len(req.Tenants))
	for i, name := range req.Tenants {
		t, err := s.lookup(name)
		if err != nil {
			s.writeError(w, err)
			return
		}
		ts[i] = t
	}
	results := make([]RankResponse, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			res, err := s.rankTenant(r.Context(), t)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rankResponse(t.name, res)
		}(i, t)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.writeError(w, solveError(fmt.Errorf("tenant %q: %w", req.Tenants[i], err)))
			return
		}
	}
	s.writeRanks(w, results, true)
}

func (s *Server) handleInferLabels(w http.ResponseWriter, r *http.Request) {
	var req InferLabelsRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	t, err := s.lookup(req.Tenant)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if t.engine == nil {
		s.writeError(w, &apiError{http.StatusUnprocessableEntity,
			"label inference requires an unsharded tenant (server started with -shards=1)"})
		return
	}
	ctx, cancel := s.solveContext(r.Context())
	defer cancel()
	labels, gen, err := t.engine.InferLabels(ctx)
	if err != nil {
		s.writeError(w, solveError(err))
		return
	}
	writeJSON(w, http.StatusOK, InferLabelsResponse{Generation: gen, Labels: labels})
}

// apiError pairs an HTTP status with a message; every handler failure is
// one, so writeError maps anything else to 500.
type apiError struct {
	code int
	msg  string
}

// Error implements error.
func (e *apiError) Error() string { return e.msg }

// solveError maps a solve failure to an API error: context cancellations
// become 503 (the server or client gave up, not the request's fault),
// anything else — method constraint violations, too-sparse matrices — is a
// 422 the client must fix.
func solveError(err error) error {
	var ae *apiError
	if errors.As(err, &ae) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &apiError{http.StatusServiceUnavailable, err.Error()}
	}
	return &apiError{http.StatusUnprocessableEntity, err.Error()}
}

// decode parses a JSON request body strictly: unknown fields are rejected,
// so client typos surface as 400s instead of silent zero values, and only
// whitespace may follow the value, so a second request concatenated onto
// the first is refused instead of silently dropped.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		return &apiError{http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err)}
	}
	return nil
}

// writeJSON encodes v as the response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders err as a JSON error body, counting it; 429s
// (admission backpressure) and 503s (draining, solve canceled) carry a
// Retry-After hint so well-behaved clients back off instead of
// hammering — hndload honors it with capped exponential backoff.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.ctr.errors.Add(1)
	var re *redirectError
	if errors.As(err, &re) {
		// 307 preserves the method and body, so the client replays the
		// exact write against the shard's new owner.
		w.Header().Set("Location", re.location)
		writeJSON(w, http.StatusTemporaryRedirect, ErrorResponse{Error: err.Error()})
		return
	}
	code := http.StatusInternalServerError
	var ae *apiError
	if errors.As(err, &ae) {
		code = ae.code
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}
