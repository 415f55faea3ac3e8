package hitsndiffs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hitsndiffs/internal/core"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/shard"
	"hitsndiffs/internal/truth"
)

// Engine is the online-serving entry point: it owns a mutable response
// matrix, absorbs new responses through Observe, and serves concurrent
// Rank / InferLabels calls.
//
// Three properties make it cheap to sit behind heavy traffic:
//
//   - Readers and writers share an RWMutex, and ranking never holds the
//     lock or copies the matrix: Rank takes a copy-on-write snapshot (O(1))
//     and iterates on that immutable view, so Observe is never blocked by a
//     long spectral solve and Rank never pays an O(mn) clone. An Observe
//     while a snapshot may still be read clones the matrix's page table
//     (O(pages)), and each page it then writes is copied once; a matrix no
//     reader holds — one whose solves have finished and that no View
//     handed out — is mutated in place.
//   - Results are cached keyed by the matrix write generation, which every
//     observation advances; repeated Rank calls between updates are O(m).
//     Concurrent misses on one matrix — from Rank, Refresh or InferLabels
//     alike — share a single solve, and a solve installs its result only
//     while the engine still holds the matrix it read.
//   - Re-ranks warm-start the power iteration from the previous score
//     vector, so steady-state convergence takes a fraction of the
//     cold-start iterations (see BenchmarkEngineWarmVsCold).
//
// One Engine owns one matrix; to scale a large population horizontally,
// ShardedEngine composes several Engines behind a hashing router.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	method   string
	base     []Option
	maxStale uint64 // WithMaxStaleness bound in write generations; 0 = always exact

	// scratchPool recycles core.SolveScratch buffers across HnD-power
	// solves, so a steady-state warm solve allocates only its returned score
	// slice. Scores are copied out of the scratch before it is pooled again
	// (core.Options.Scratch contract).
	scratchPool sync.Pool

	// cacheHits / cacheMisses feed Metrics: requests served from the
	// generation-keyed result cache vs solves actually started. Atomics so
	// the read path (rank's RLock section) can bump them without upgrading
	// to the write lock.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// staleServes counts results served behind the write frontier under a
	// WithMaxStaleness bound; servedGen is the watermark of the highest
	// generation the matrix was served at (CAS-max, so concurrent ranks
	// finishing out of order never move it backwards). It starts at the
	// generation the matrix was built, restored or adopted at: answers the
	// engine started with owe no rank.
	staleServes atomic.Uint64
	servedGen   atomic.Uint64

	// persist, when set, receives every validated write batch before it
	// commits (see SetDurability). Guarded by mu.
	persist WriteHook

	// fenced rejects writes with ErrFenced while a shard handoff drains
	// the WAL tail; reads keep serving the frozen state (see SetFenced).
	fenced atomic.Bool

	mu sync.RWMutex
	// m is the current matrix. It is mutated in place only while no reader
	// may hold it: shared is false and no solve is reading it. Once a View
	// has handed it out (shared true), or while solving counts solves
	// reading it, the next write clones it first (O(pages), see
	// ResponseMatrix.Clone) and the old pointer stays immutable forever —
	// the copy-on-write discipline behind O(1) snapshots. A solve stops
	// counting when it is done reading, so a matrix only the engine's own
	// solves have read is written in place again afterwards.
	m          *ResponseMatrix
	shared     atomic.Bool
	solving    atomic.Int64
	lastScores []float64 // the latest solve's scores, read-only
	cached     *engineCache
	// lineage counts Adopt and Restore calls. A solve seeds the warm start
	// only if no Adopt or Restore has replaced the matrix it read since it
	// began; a write clone of that matrix still descends from it.
	lineage uint64
	// restoreGen is the matrix generation at construction or at the last
	// Restore: Restore refuses an engine whose matrix has moved past it.
	restoreGen uint64

	// flight is the solve in progress, if any. It is set under mu
	// read-locked with flightMu held and cleared under mu write-locked, so
	// a reader holding mu sees it consistent with cached.
	flightMu sync.Mutex
	flight   *flight
}

// engineCache holds the result solved at res.Generation — exact while the
// matrix is still at that generation, stale (servable under a
// WithMaxStaleness bound) once writes move it on.
type engineCache struct {
	res    Result
	labels []int // nil until InferLabels fills it
}

// flight is one solve in progress. Concurrent misses on the matrix m wait
// for it instead of solving again; done closes once res and err are
// final, and after that they are read-only: every caller copies the
// scores out.
type flight struct {
	m       *ResponseMatrix
	lineage uint64
	warm    []float64
	done    chan struct{}
	res     Result
	err     error
}

// casMax raises a to at least v (monotone watermark update; concurrent
// raisers may interleave, the maximum wins).
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// EngineOption configures NewEngine.
type EngineOption func(*engineSettings)

type engineSettings struct {
	method       string
	base         []Option
	shards       int
	maxStale     uint64
	ringReplicas int
}

// defaultEngineSettings seeds the option-merge state NewEngine and
// NewShardedEngine share: HnD-power.
func defaultEngineSettings() engineSettings {
	return engineSettings{method: "HnD-power"}
}

// WithMethod selects the registered ranking method the engine serves
// (default "HnD-power").
func WithMethod(name string) EngineOption {
	return func(s *engineSettings) { s.method = name }
}

// WithRankOptions sets the base options (tolerance, iteration budget,
// seed, ...) applied to every Rank the engine runs.
func WithRankOptions(opts ...Option) EngineOption {
	return func(s *engineSettings) { s.base = append(s.base, opts...) }
}

// WithShards sets the number of independent engine shards NewShardedEngine
// hashes users across (default 1, which degenerates to a plain Engine; the
// count is capped at the number of users). Plain NewEngine ignores it.
func WithShards(n int) EngineOption {
	return func(s *engineSettings) { s.shards = n }
}

// WithRingPartition makes NewShardedEngine partition users with a
// consistent-hash ring (shard.Ring) of the given virtual-node replica
// count per shard instead of the default modular hash, so re-partitioning
// the same population at shards±1 reassigns only ~1/shards of the users —
// the property cross-process shard rebalancing relies on. Pass replicas
// <= 0 for the ring's default. The two partitions assign users
// differently, so switching an existing durable deployment between them
// is a re-shard, not a restart. Plain NewEngine ignores it.
func WithRingPartition(replicas int) EngineOption {
	return func(s *engineSettings) {
		if replicas <= 0 {
			replicas = shard.DefaultRingReplicas
		}
		s.ringReplicas = replicas
	}
}

// NewEngine builds an engine serving the given response matrix, which may
// be empty: answers can arrive later through Observe. The matrix is
// cloned copy-on-write, so the caller's copy stays independent. The
// method name is resolved against the registry immediately so a typo
// fails at construction, not at first request.
func NewEngine(m *ResponseMatrix, opts ...EngineOption) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("hitsndiffs: NewEngine needs a response matrix")
	}
	s := defaultEngineSettings()
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	if _, ok := Describe(s.method); !ok {
		return nil, fmt.Errorf("hitsndiffs: NewEngine: unknown method %q (known: %v)", s.method, MethodNames())
	}
	clone := m.Clone()
	e := &Engine{
		method:     s.method,
		base:       s.base,
		maxStale:   s.maxStale,
		m:          clone,
		restoreGen: clone.Generation(),
	}
	e.servedGen.Store(e.restoreGen)
	return e, nil
}

// Users returns the number of users the engine tracks.
func (e *Engine) Users() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.m.Users()
}

// Items returns the number of items the engine tracks.
func (e *Engine) Items() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.m.Items()
}

// Generation returns the matrix's write-generation counter — one tick per
// observation ever applied (ResponseMatrix.Generation). It is the engine's
// only write counter: results are cached under it, the WithMaxStaleness
// bound is measured in it, and it survives restarts through the durable
// log.
func (e *Engine) Generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.m.Generation()
}

// MaxStaleness returns the configured WithMaxStaleness bound in write
// generations; zero means every rank is exact.
func (e *Engine) MaxStaleness() uint64 { return e.maxStale }

// Method returns the name of the registered method the engine serves.
func (e *Engine) Method() string { return e.method }

// Snapshot returns a copy of the current response matrix that the caller
// may freely mutate: an O(pages) copy-on-write clone, whose writes and the
// engine's never reach each other (see ResponseMatrix.Clone). Serving
// paths that only read should prefer View, which is O(1).
func (e *Engine) Snapshot() *ResponseMatrix {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.m.Clone()
}

// View returns the current response matrix as a copy-on-write snapshot in
// O(1), together with its write generation. The returned matrix is
// immutable by contract: the engine clones its internal state before the
// next write, so the view stays consistent forever, but callers must not
// mutate it. It is the zero-copy read path behind Rank and InferLabels.
func (e *Engine) View() (*ResponseMatrix, uint64) {
	e.mu.RLock()
	m, gen := e.held()
	e.shared.Store(true)
	e.mu.RUnlock()
	return m, gen
}

// held returns the current matrix and its generation without marking it
// shared: the caller compares the pointer but never reads through it.
// Caller holds mu.
func (e *Engine) held() (*ResponseMatrix, uint64) { return e.m, e.m.Generation() }

// holds reports whether the engine still serves m at generation gen: no
// write, Adopt or Restore has happened since a result was taken from it.
func (e *Engine) holds(m *ResponseMatrix, gen uint64) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cur, g := e.held()
	return cur == m && g == gen
}

// answeredAtLeast reports whether at least n users currently have one or
// more recorded answers. It scans without taking a snapshot, so — unlike
// View — it never marks the matrix shared and never triggers a
// copy-on-write clone on the next write. The sharded router uses it to
// detect shards too sparse to rank. Caller holds mu.
func (e *Engine) answeredAtLeast(n int) bool {
	count := 0
	for u := 0; u < e.m.Users() && count < n; u++ {
		if e.m.AnswerCount(u) > 0 {
			count++
		}
	}
	return count >= n
}

// Observation is one (user, item, option) response for ObserveBatch.
type Observation struct {
	User, Item, Option int
}

// WriteHook is the engine's durability hook: it receives every validated
// write batch together with the matrix write generation the batch applies
// at (each observation advances the generation by one), before the
// in-memory mutation commits. A non-nil error aborts the batch with the
// matrix untouched — the WAL-before-state protocol: a write the hook
// could not make durable is never visible to readers. The hook runs under
// the engine's write lock, so implementations must not call back into the
// engine.
type WriteHook func(gen uint64, obs []Observation) error

// SetDurability installs (or, with nil, removes) the engine's write hook.
// Install it before traffic: batches observed earlier were not offered to
// the hook.
func (e *Engine) SetDurability(hook WriteHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.persist = hook
}

// ErrFenced reports a write rejected because the engine (or the shard the
// write routes to) is fenced for a handoff: the WAL tail is being shipped
// to the new owner and accepting the write would either lose it or apply
// it twice. Callers should retry after a short delay — the serving tier
// maps the error to HTTP 429 with Retry-After — or follow the redirect to
// the new owner once the move commits.
var ErrFenced = errors.New("hitsndiffs: shard fenced for handoff")

// SetFenced fences (true) or unfences (false) the engine's write path.
// While fenced, Observe and ObserveBatch fail with ErrFenced and nothing
// reaches the durability hook or the matrix; reads — Rank, View,
// InferLabels — keep serving the frozen state. Fencing is the middle
// phase of a shard handoff: the exporter fences, ships the final WAL
// tail, and either commits (the engine stays fenced, now owned elsewhere)
// or aborts (unfence resumes writes with nothing lost).
//
// SetFenced(true) acquires the engine's write lock for the store, so it
// returns only after every in-flight write has fully committed (matrix
// and WAL) — the write generation is final the moment the fence is up,
// which is what lets the exporter read the WAL tail once and know it is
// complete.
func (e *Engine) SetFenced(on bool) {
	e.mu.Lock()
	e.fenced.Store(on)
	e.mu.Unlock()
}

// Fenced reports whether the engine currently rejects writes with
// ErrFenced.
func (e *Engine) Fenced() bool { return e.fenced.Load() }

// Adopt replaces the engine's matrix with state imported from another
// process — the commit step of a shard handoff on the receiving side.
// Unlike Restore it is legal on an engine that already absorbed writes:
// the cached result and warm start are dropped, a solve still in flight on
// the old matrix no longer installs its result, and the write-generation
// counter and served watermark continue from the adopted matrix — whose
// generation may equal the old one's. Geometry must match. The matrix is
// cloned copy-on-write; the caller's copy stays independent.
func (e *Engine) Adopt(m *ResponseMatrix) error {
	if m == nil {
		return fmt.Errorf("hitsndiffs: Adopt needs a response matrix")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkGeometry("Adopt", m); err != nil {
		return err
	}
	e.install(m)
	return nil
}

// Restore replaces the engine's matrix with recovered state, preserving
// the matrix's write-generation counter (the key durability is stamped
// with), where the served watermark starts too. It refuses geometry
// mismatches and engines that already absorbed writes — recovery happens
// at startup, before traffic. The matrix is cloned copy-on-write; the
// caller's copy stays independent.
func (e *Engine) Restore(m *ResponseMatrix) error {
	if m == nil {
		return fmt.Errorf("hitsndiffs: Restore needs a response matrix")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.m.Generation() != e.restoreGen {
		return fmt.Errorf("hitsndiffs: Restore on an engine that already absorbed writes")
	}
	if err := e.checkGeometry("Restore", m); err != nil {
		return err
	}
	e.install(m)
	e.restoreGen = e.m.Generation()
	return nil
}

// checkGeometry rejects a replacement matrix whose users, items or option
// counts differ from the engine's; op (Adopt or Restore) prefixes the
// error. Caller holds mu.
func (e *Engine) checkGeometry(op string, m *ResponseMatrix) error {
	if m.Users() != e.m.Users() || m.Items() != e.m.Items() {
		return fmt.Errorf("hitsndiffs: %s matrix is %dx%d, engine serves %dx%d",
			op, m.Users(), m.Items(), e.m.Users(), e.m.Items())
	}
	for i := 0; i < e.m.Items(); i++ {
		if m.OptionCount(i) != e.m.OptionCount(i) {
			return fmt.Errorf("hitsndiffs: %s matrix item %d has %d options, engine serves %d",
				op, i, m.OptionCount(i), e.m.OptionCount(i))
		}
	}
	return nil
}

// install makes a copy-on-write clone of m the engine's matrix, with the
// served watermark at its generation, and drops everything derived from
// the matrix it replaces: the cached result, the warm start and the solve
// counts. Bumping lineage keeps a solve of the old matrix from seeding
// the next warm start. Caller holds mu.
func (e *Engine) install(m *ResponseMatrix) {
	e.m = m.Clone()
	e.servedGen.Store(e.m.Generation())
	e.shared.Store(false)
	e.solving.Store(0)
	e.cached = nil
	e.lastScores = nil
	e.lineage++
}

// validateObservation rejects an observation outside the given matrix
// geometry — the one validation rule shared by Engine and the sharded
// router, so both report identical errors for identical bad input.
func validateObservation(o Observation, users, items int, optionCount func(int) int) error {
	if o.User < 0 || o.User >= users {
		return fmt.Errorf("hitsndiffs: Observe user %d out of range [0,%d)", o.User, users)
	}
	if o.Item < 0 || o.Item >= items {
		return fmt.Errorf("hitsndiffs: Observe item %d out of range [0,%d)", o.Item, items)
	}
	if o.Option != Unanswered && (o.Option < 0 || o.Option >= optionCount(o.Item)) {
		return fmt.Errorf("hitsndiffs: Observe option %d out of range for item %d (k=%d)",
			o.Option, o.Item, optionCount(o.Item))
	}
	return nil
}

// Observe records that user picked option of item, replacing any earlier
// answer; pass Unanswered to retract one. It advances the write
// generation by one, so cached results stop being exact.
func (e *Engine) Observe(user, item, option int) error {
	return e.ObserveBatch([]Observation{{User: user, Item: item, Option: option}})
}

// ObserveBatch records several responses under one lock acquisition — the
// cheap way to absorb a burst of traffic; the write generation advances
// once per observation. The batch is validated before anything is
// applied, so an out-of-range observation leaves the matrix untouched.
func (e *Engine) ObserveBatch(obs []Observation) error {
	if len(obs) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Fenced engines reject writes before validation and before the WAL:
	// a fenced shard's log is mid-handoff, and a record appended past the
	// shipped tail would be silently lost on the new owner.
	if e.fenced.Load() {
		return ErrFenced
	}
	return e.observeBatchLocked(obs)
}

// observeBatchLocked is ObserveBatch past the lock acquisition and fence
// check. It exists for the sharded router's multi-shard dispatch, which
// locks every touched shard and verifies no fence is up before letting
// any sub-batch apply — the caller must hold e.mu and have checked
// e.fenced itself.
func (e *Engine) observeBatchLocked(obs []Observation) error {
	for _, o := range obs {
		if err := validateObservation(o, e.m.Users(), e.m.Items(), e.m.OptionCount); err != nil {
			return err
		}
	}
	// WAL-before-state: the batch must be durable (per the hook's fsync
	// policy) before any reader can observe it. A hook failure aborts the
	// batch with the matrix untouched.
	if e.persist != nil {
		if err := e.persist(e.m.Generation(), obs); err != nil {
			return fmt.Errorf("hitsndiffs: durability hook rejected write: %w", err)
		}
	}
	// Copy-on-write: if any reader may hold the current matrix, detach
	// from it once before mutating; the clone then copies each page it
	// writes. Back-to-back Observes with no reader in between keep writing
	// in place.
	if e.shared.Load() || e.solving.Load() > 0 {
		e.m = e.m.Clone()
		e.shared.Store(false)
		e.solving.Store(0)
	}
	for _, o := range obs {
		e.m.SetAnswer(o.User, o.Item, o.Option)
	}
	// The cached result is now behind the write frontier but is kept: exact
	// paths miss it, while a WithMaxStaleness bound may still serve it as
	// the last solved scores.
	return nil
}

// Rank scores the users of the current matrix with the engine's method.
// Between updates the cached result is served in O(m); after an Observe
// the solve re-runs, warm-started from the previous scores — unless a
// WithMaxStaleness bound lets the previous scores keep serving, in which
// case the result returns immediately tagged with its Generation and
// Staleness and a refresher (see Refresh) re-solves in the background.
// Concurrent misses on one matrix share a single solve; Result.Coalesced
// reports a result that rode another call's solve. Rank honors ctx
// cancellation and deadlines mid-iteration, and a caller whose ctx ends
// leaves the shared solve running for the others. The returned Result
// owns its score slice; callers may mutate it freely.
func (e *Engine) Rank(ctx context.Context) (Result, error) {
	res, _, err := e.rank(ctx, false, false)
	return res, err
}

// Refresh ranks with the staleness bound ignored: it re-solves (or
// confirms, when the cache is already exact) the current matrix, pushing
// the served watermark to the write frontier. It is the path the
// background refresh scheduler (internal/refresh) drives, and it shares
// solves with concurrent Rank and InferLabels calls; under a zero bound it
// is identical to Rank.
func (e *Engine) Refresh(ctx context.Context) (Result, error) {
	res, _, err := e.rank(ctx, false, true)
	return res, err
}

// rank is the shared solve path behind Rank, Refresh, InferLabels and the
// sharded router. It serves the cache — exact only, when exact is set —
// or else joins the solve in flight on the current matrix, starting one
// if there is none. It returns the result with caller-owned scores and,
// for an exact result, the matrix they were solved from. With
// needSnapshot set the caller may read that matrix afterwards, so it is
// marked shared before the solve ends; otherwise the pointer is for
// comparison only. No path through rank copies the matrix: snapshots are
// O(1) COW views.
func (e *Engine) rank(ctx context.Context, needSnapshot, exact bool) (Result, *ResponseMatrix, error) {
	for {
		e.mu.RLock()
		if needSnapshot {
			e.shared.Store(true)
		}
		if res, ok := e.cachedLocked(exact); ok {
			m := e.m
			e.mu.RUnlock()
			return res, m, nil
		}
		f, lead := e.joinFlight()
		e.mu.RUnlock()
		if lead {
			e.fly(ctx, f)
		} else {
			select {
			case <-f.done:
			case <-ctx.Done():
				return Result{}, nil, ctx.Err()
			}
		}
		if err := f.err; err != nil {
			// The leader's own context ended: its waiters solve again.
			if !lead && ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				continue
			}
			return Result{}, nil, err
		}
		res := f.res
		res.Scores = append(mat.Vector(nil), f.res.Scores...)
		res.Coalesced = !lead
		return res, f.m, nil
	}
}

// cachedLocked serves a copy of the cached result if it is exact or —
// unless exact is set — if the WithMaxStaleness bound still covers it.
// Caller holds mu.
func (e *Engine) cachedLocked(exact bool) (Result, bool) {
	c := e.cached
	if c == nil {
		return Result{}, false
	}
	stale := e.m.Generation() - c.res.Generation
	if stale > 0 && (exact || stale > e.maxStale) {
		return Result{}, false
	}
	res := c.res
	res.Scores = append(mat.Vector(nil), c.res.Scores...)
	res.Staleness = stale
	e.cacheHits.Add(1)
	if stale > 0 {
		e.staleServes.Add(1)
	}
	casMax(&e.servedGen, res.Generation)
	return res, true
}

// joinFlight returns the solve in flight on the current matrix, or starts
// one that the caller leads (lead true). Caller holds mu read-locked.
func (e *Engine) joinFlight() (f *flight, lead bool) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if f := e.flight; f != nil && f.m == e.m {
		return f, false
	}
	f = &flight{m: e.m, lineage: e.lineage, done: make(chan struct{})}
	if len(e.lastScores) == e.m.Users() {
		f.warm = e.lastScores // copied by WithWarmStart in solve
	}
	e.flight = f
	e.solving.Add(1) // a write while the solve reads f.m clones it first
	e.cacheMisses.Add(1)
	return f, true
}

// fly runs the flight f that the caller leads. Its scores are cached only
// while the engine still holds the matrix they were solved from: a write
// during the solve has cloned the matrix, and Adopt or Restore has
// replaced it, so the pointer alone says whether anything changed. They
// become the next warm start unless Adopt or Restore replaced the matrix:
// a write clone's solve starts from its parent's scores, an adopted
// matrix's first solve starts cold.
func (e *Engine) fly(ctx context.Context, f *flight) {
	res, err := e.solve(ctx, f.m, f.warm)
	e.mu.Lock()
	if e.flight == f {
		e.flight = nil
	}
	if e.m == f.m {
		e.solving.Add(-1) // the next write may mutate the matrix in place again
	}
	if err == nil {
		res.Generation = f.m.Generation()
		if e.lineage == f.lineage {
			e.lastScores = res.Scores
		}
		if e.m == f.m {
			e.cached = &engineCache{res: res}
		}
	}
	e.mu.Unlock()
	if err == nil {
		casMax(&e.servedGen, res.Generation)
	}
	f.res, f.err = res, err
	close(f.done)
}

// solve runs one solve of the snapshot m with the engine's method and base
// options, warm-started from warm when it is non-nil. The spectral methods
// read their solve input from m's page patterns
// (ResponseMatrix.Patterns), which concurrent solves of one snapshot share,
// and apply the row and column normalizations inside their kernels.
// HnD-power solves bind a pooled core.SolveScratch. The returned scores
// are the caller's.
func (e *Engine) solve(ctx context.Context, m *ResponseMatrix, warm []float64) (Result, error) {
	var extra []Option
	if warm != nil {
		extra = append(extra, WithWarmStart(warm))
	}
	var sc *core.SolveScratch
	if e.method == hndPowerMethod {
		sc = e.scratchGet()
		defer e.scratchPut(sc)
		extra = append(extra, withSolveScratch(sc))
	}
	opts := e.base
	if len(extra) > 0 {
		opts = append(append([]Option(nil), e.base...), extra...)
	}
	r, err := New(e.method, opts...)
	if err != nil {
		return Result{}, err
	}
	res, err := r.Rank(ctx, m)
	if err != nil {
		return Result{}, err
	}
	if sc != nil {
		// The solved scores may alias scratch memory — detach before the
		// deferred put lets the scratch serve another solve.
		res.Scores = append(mat.Vector(nil), res.Scores...)
	}
	return res, nil
}

// hndPowerMethod is the registered method whose solves bind pooled
// core.SolveScratch buffers.
const hndPowerMethod = "HnD-power"

// scratchGet borrows pooled solve buffers; scratchPut returns them. The
// buffers grow to the engine's matrix once and are reused by every
// subsequent solve on this engine.
func (e *Engine) scratchGet() *core.SolveScratch {
	if sc, ok := e.scratchPool.Get().(*core.SolveScratch); ok {
		return sc
	}
	return &core.SolveScratch{}
}

func (e *Engine) scratchPut(sc *core.SolveScratch) { e.scratchPool.Put(sc) }

// InferLabels serves the truth-discovery direction: it ranks (or reuses
// the cached ranking) and estimates each item's correct option by
// score-weighted voting over the same matrix snapshot the scores came
// from. It returns the labels with the write generation they were
// inferred at. Labels are cached alongside the ranking; like Rank, a
// solve it needs is shared with concurrent callers.
func (e *Engine) InferLabels(ctx context.Context) ([]int, uint64, error) {
	e.mu.RLock()
	if c := e.cached; c != nil && c.labels != nil && c.res.Generation == e.m.Generation() {
		out, gen := append([]int(nil), c.labels...), c.res.Generation
		e.mu.RUnlock()
		e.cacheHits.Add(1)
		return out, gen, nil
	}
	e.mu.RUnlock()

	res, snapshot, err := e.rank(ctx, true, true)
	if err != nil {
		return nil, 0, err
	}
	labels, err := truth.InferLabels(snapshot, res.Scores)
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	if c := e.cached; c != nil && e.m == snapshot && c.res.Generation == res.Generation {
		c.labels = append([]int(nil), labels...)
	}
	e.mu.Unlock()
	return labels, res.Generation, nil
}

// Metrics returns a consistent point-in-time snapshot of the engine's
// observability counters. The matrix-derived counters (generation,
// geometry) are read under the engine's read lock, so the snapshot never
// races a concurrent Observe swapping the matrix; the request counters are
// atomics and may lag a bump that is in flight, but never tear. Safe for
// concurrent use — it is the accessor the serving tier's /metrics endpoint
// scrapes per request.
func (e *Engine) Metrics() EngineMetrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return EngineMetrics{
		Generation:       e.m.Generation(),
		ServedGeneration: e.servedGen.Load(),
		StaleServes:      e.staleServes.Load(),
		MaxStaleness:     e.maxStale,
		Users:            e.m.Users(),
		Items:            e.m.Items(),
		CacheHits:        e.cacheHits.Load(),
		CacheMisses:      e.cacheMisses.Load(),
	}
}
