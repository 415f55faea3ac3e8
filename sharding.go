package hitsndiffs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/shard"
)

// ShardedEngine scales the serving Engine horizontally: it hashes users
// across N independent Engines (shards), each owning a disjoint slice of
// the response matrix, and routes traffic so the shards never contend with
// each other.
//
// Two effects make it the heavy-traffic configuration:
//
//   - Observe and ObserveBatch touch only the shard(s) owning the written
//     users, so write locks, version bumps and copy-on-write clones are
//     confined to 1/N of the matrix. Under mixed read/write traffic the
//     dominant write cost — the one-time clone after a snapshot — shrinks
//     from O(m·n) to O(m·n/N) (see BenchmarkShardedObserve).
//   - Rank fans out across shards concurrently and re-solves only shards
//     whose version changed since their last solve; a single-user write
//     therefore re-ranks 1/N of the users while the other shards answer
//     from their caches (see BenchmarkShardedRank). Each shard solve runs
//     the serial kernels on its own goroutine, so the fan-out is what puts
//     several cores to work on one Rank.
//
// The price is score granularity: user scores are only directly comparable
// within a shard, so the merged ranking min-max normalizes each shard to
// [0, 1] — the same contract as RankPerComponent. Workloads that need
// globally calibrated scores, or label inference over the full matrix,
// should use a single Engine (or one ShardedEngine per tenant and
// shard.OfString to route tenants).
//
// Construct with NewShardedEngine; the zero value is not usable. All
// methods are safe for concurrent use.
type ShardedEngine struct {
	method   string
	maxStale uint64 // WithMaxStaleness bound, enforced at the router's merged cache
	engines  []*Engine
	users    *shard.Map
	options  []int // per-item option counts, identical across shards

	// mu guards the router's two memos: sparse, the per-shard
	// too-few-users verdict keyed by shard version (recomputing it per
	// Rank would rescan matrices or take COW-poisoning snapshots), and
	// cached, the merged Rank result keyed by the cluster version.
	mu     sync.Mutex
	sparse []sparseMemo
	cached *shardedCache

	// routerHits counts Ranks served from the merged-result cache without
	// touching any shard; Metrics folds it into the aggregate CacheHits.
	// staleServes counts merged results served behind the cluster write
	// frontier under the staleness bound, and servedGen is the router's
	// served-generation watermark (sum-of-shard-generations units).
	routerHits  atomic.Uint64
	staleServes atomic.Uint64
	servedGen   atomic.Uint64
}

// shardedCache holds the merged ranking computed at one cluster version.
// Shard versions only grow, so their sum is a valid freshness key: equal
// sums imply no shard has been written in between. gen is the sum of the
// shard write generations the merge was solved at — the key router-level
// staleness is measured against.
type shardedCache struct {
	version uint64
	gen     uint64
	res     Result
}

// sparseMemo caches one shard's too-few-users verdict for a shard version.
type sparseMemo struct {
	version uint64
	valid   bool
	sparse  bool
}

// NewShardedEngine builds a sharded serving engine over the given response
// matrix. WithShards picks the shard count (default 1; capped at the user
// count); the remaining options are those of NewEngine and apply to every
// shard. Users are assigned to shards by hashing their index
// (shard.Of), so the partition is deterministic across processes.
func NewShardedEngine(m *ResponseMatrix, opts ...EngineOption) (*ShardedEngine, error) {
	if m == nil {
		return nil, fmt.Errorf("hitsndiffs: NewShardedEngine needs a response matrix")
	}
	s := defaultEngineSettings()
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	users := shardMapFor(m.Users(), s.shards)
	if s.ringReplicas > 0 {
		users = ringMapFor(m.Users(), s.shards, s.ringReplicas)
	}
	n := users.Shards()
	options := make([]int, m.Items())
	for i := range options {
		options[i] = m.OptionCount(i)
	}

	se := &ShardedEngine{
		method:   s.method,
		maxStale: s.maxStale,
		engines:  make([]*Engine, n),
		users:    users,
		options:  options,
		sparse:   make([]sparseMemo, n),
	}
	// Forward the caller's options so the shard engines see the full
	// NewEngine option surface, present and future; NewEngine ignores the
	// router-only WithShards. With several shards the staleness bound is
	// enforced once, at the router's merged-result cache — the shard
	// engines stay exact so the refresh fan-out (RankAll) always observes
	// each shard's true frontier. A single shard delegates Rank wholesale,
	// so it keeps the bound.
	shardOpts := opts
	if n > 1 && s.maxStale > 0 {
		shardOpts = append(append([]EngineOption(nil), opts...), WithMaxStaleness(0))
	}
	for sh := 0; sh < n; sh++ {
		// shardMapFor guarantees every shard owns at least one user, so
		// Subset's non-empty precondition always holds.
		sub := m.Subset(users.GlobalsOf(sh))
		eng, err := NewEngine(sub, shardOpts...)
		if err != nil {
			return nil, err
		}
		se.engines[sh] = eng
	}
	return se, nil
}

// shardMapFor builds the user partition for a requested shard count,
// deterministically lowering the count until every shard owns at least one
// user (hash imbalance can leave a shard empty when shards approach the
// user count; a 1-wide partition never can). The result is a pure function
// of (users, requested), so re-sharding the same population reproduces the
// same partition.
func shardMapFor(userCount, requested int) *shard.Map {
	n := requested
	if n > userCount {
		n = userCount
	}
	if n < 1 {
		n = 1
	}
	for ; n > 1; n-- {
		m := shard.NewMap(userCount, n)
		empty := false
		for sh := 0; sh < n; sh++ {
			if m.Size(sh) == 0 {
				empty = true
				break
			}
		}
		if !empty {
			return m
		}
	}
	return shard.NewMap(userCount, 1)
}

// ringMapFor is shardMapFor's consistent-hash twin (WithRingPartition):
// it builds the ring partition for a requested shard count, lowering the
// count until no shard is empty. Like shardMapFor the result is a pure
// function of its inputs, so every process reproduces the same partition.
func ringMapFor(userCount, requested, replicas int) *shard.Map {
	n := requested
	if n > userCount {
		n = userCount
	}
	if n < 1 {
		n = 1
	}
	for ; n > 1; n-- {
		m := shard.NewRingMap(userCount, n, replicas)
		empty := false
		for sh := 0; sh < n; sh++ {
			if m.Size(sh) == 0 {
				empty = true
				break
			}
		}
		if !empty {
			return m
		}
	}
	return shard.NewRingMap(userCount, 1, replicas)
}

// Shards returns the number of independent engine shards behind the router.
func (s *ShardedEngine) Shards() int { return len(s.engines) }

// Users returns the number of users across all shards.
func (s *ShardedEngine) Users() int { return s.users.Users() }

// Items returns the number of items every shard tracks.
func (s *ShardedEngine) Items() int { return len(s.options) }

// Method returns the name of the registered method every shard serves.
func (s *ShardedEngine) Method() string { return s.method }

// ShardFor returns the shard index serving the given global user. The
// assignment is deterministic: it depends only on the user index and the
// shard count.
func (s *ShardedEngine) ShardFor(user int) int { return s.users.ShardOf(user) }

// ShardForKey routes an arbitrary string key — typically a tenant
// identifier — to a shard index with the same hash family user routing
// uses. It lets callers pin per-tenant side state to the shard that would
// serve it.
func (s *ShardedEngine) ShardForKey(key string) int {
	return shard.OfString(key, len(s.engines))
}

// LocalFor returns the shard owning a global user together with the user's
// row index inside that shard — the index into the shard's View matrix and
// RankAll score vector. The mapping is fixed at construction.
func (s *ShardedEngine) LocalFor(user int) (shard, local int) {
	return s.users.Locate(user)
}

// UsersOf returns the global user indices a shard serves, ordered by the
// shard's local row index (local order preserves global order). The slice
// is a copy the caller may keep.
func (s *ShardedEngine) UsersOf(sh int) []int {
	return append([]int(nil), s.users.GlobalsOf(sh)...)
}

// Version returns the sum of the shard version counters: it increases with
// every successful write anywhere in the cluster, so equal Versions imply
// no shard has changed.
func (s *ShardedEngine) Version() uint64 {
	var v uint64
	for _, e := range s.engines {
		v += e.Version()
	}
	return v
}

// Generation returns the sum of the shard matrices' write-generation
// counters — the cluster analogue of Engine.Generation and the unit the
// router-level staleness bound is measured in. Shard generations only
// grow, so the sum is monotone.
func (s *ShardedEngine) Generation() uint64 {
	var g uint64
	for _, e := range s.engines {
		g += e.Generation()
	}
	return g
}

// MaxStaleness returns the configured WithMaxStaleness bound in write
// generations; zero means every rank is exact.
func (s *ShardedEngine) MaxStaleness() uint64 { return s.maxStale }

// View returns O(1) copy-on-write views of every shard's response matrix
// together with the matching shard versions, in shard order. Like
// Engine.View, the returned matrices are immutable by contract: the next
// write to a shard clones it first, so each view stays consistent forever,
// but callers must not mutate them. Use LocalFor / UsersOf to translate
// between global user indices and per-shard row indices.
func (s *ShardedEngine) View() ([]*ResponseMatrix, []uint64) {
	ms := make([]*ResponseMatrix, len(s.engines))
	vs := make([]uint64, len(s.engines))
	for i, e := range s.engines {
		ms[i], vs[i] = e.View()
	}
	return ms, vs
}

// SetShardDurability installs (or removes) the write hook of one shard's
// engine — see Engine.SetDurability. A sharded deployment persists one
// log per shard: the hook receives shard-local user indices (the row
// indexing of the shard's own matrix), so each shard's WAL replays
// against its own geometry with no cross-shard coordination.
func (s *ShardedEngine) SetShardDurability(sh int, hook WriteHook) error {
	if sh < 0 || sh >= len(s.engines) {
		return fmt.Errorf("hitsndiffs: SetShardDurability shard %d out of range [0,%d)", sh, len(s.engines))
	}
	s.engines[sh].SetDurability(hook)
	return nil
}

// RestoreShard replaces one shard engine's matrix with recovered state —
// see Engine.Restore. The matrix must match the shard's geometry
// (UsersOf(sh) rows, the cluster's items and options), which is
// deterministic across processes: the user partition depends only on
// (user count, shard count).
func (s *ShardedEngine) RestoreShard(sh int, m *ResponseMatrix) error {
	if sh < 0 || sh >= len(s.engines) {
		return fmt.Errorf("hitsndiffs: RestoreShard shard %d out of range [0,%d)", sh, len(s.engines))
	}
	return s.engines[sh].Restore(m)
}

// FenceShard fences (true) or unfences (false) one shard's write path —
// see Engine.SetFenced. While fenced, any Observe/ObserveBatch routing an
// observation to the shard fails with ErrFenced before anything is
// applied anywhere; reads keep serving the shard's frozen state.
func (s *ShardedEngine) FenceShard(sh int, on bool) error {
	if sh < 0 || sh >= len(s.engines) {
		return fmt.Errorf("hitsndiffs: FenceShard shard %d out of range [0,%d)", sh, len(s.engines))
	}
	s.engines[sh].SetFenced(on)
	return nil
}

// ShardFenced reports whether a shard currently rejects writes with
// ErrFenced. Out-of-range shards report false.
func (s *ShardedEngine) ShardFenced(sh int) bool {
	if sh < 0 || sh >= len(s.engines) {
		return false
	}
	return s.engines[sh].Fenced()
}

// ShardView returns one shard's matrix as an O(1) copy-on-write view with
// the shard's version — the single-shard form of View, used by the shard
// handoff exporter to snapshot only the moving shard.
func (s *ShardedEngine) ShardView(sh int) (*ResponseMatrix, uint64, error) {
	if sh < 0 || sh >= len(s.engines) {
		return nil, 0, fmt.Errorf("hitsndiffs: ShardView shard %d out of range [0,%d)", sh, len(s.engines))
	}
	m, v := s.engines[sh].View()
	return m, v, nil
}

// ShardGeneration returns one shard's write-generation counter (the
// per-shard analogue of Generation's cluster sum) — the frontier a shard
// handoff must prove the transferred WAL tail reaches.
func (s *ShardedEngine) ShardGeneration(sh int) (uint64, error) {
	if sh < 0 || sh >= len(s.engines) {
		return 0, fmt.Errorf("hitsndiffs: ShardGeneration shard %d out of range [0,%d)", sh, len(s.engines))
	}
	return s.engines[sh].Generation(), nil
}

// AdoptShard replaces one shard engine's matrix with state imported from
// another process — see Engine.Adopt. Unlike RestoreShard it is legal on
// a shard that already absorbed writes: the shard's version bumps, so the
// router's merged cache and sparse memo invalidate on the next read.
func (s *ShardedEngine) AdoptShard(sh int, m *ResponseMatrix) error {
	if sh < 0 || sh >= len(s.engines) {
		return fmt.Errorf("hitsndiffs: AdoptShard shard %d out of range [0,%d)", sh, len(s.engines))
	}
	return s.engines[sh].Adopt(m)
}

// validate rejects an observation no shard could apply, using the router's
// own copy of the item/option geometry (and global user indices, which the
// shard engines cannot report) so a bad batch is refused before any shard
// is touched.
func (s *ShardedEngine) validate(o Observation) error {
	return validateObservation(o, s.Users(), s.Items(), func(i int) int { return s.options[i] })
}

// Observe records that user picked option of item, replacing any earlier
// answer; pass Unanswered to retract one. Only the shard owning the user is
// locked and version-bumped — writes to different shards never contend.
func (s *ShardedEngine) Observe(user, item, option int) error {
	o := Observation{User: user, Item: item, Option: option}
	if err := s.validate(o); err != nil {
		return err
	}
	sh, local := s.users.Locate(user)
	return s.engines[sh].Observe(local, item, option)
}

// ObserveBatch splits a batch of responses by owning shard and applies the
// per-shard sub-batches concurrently, each under its shard's single lock
// acquisition and version bump. The whole batch is validated up front
// against the router's geometry, so an out-of-range observation leaves
// every shard untouched; a fence on ANY touched shard likewise fails the
// batch with ErrFenced before any sub-batch applies — every touched
// shard's write lock is held across the fence check and the applies, so
// a fence raised concurrently can never split the batch into an applied
// half and a rejected half (which a client 429-retry would then
// double-apply).
func (s *ShardedEngine) ObserveBatch(obs []Observation) error {
	if len(obs) == 0 {
		return nil
	}
	for _, o := range obs {
		if err := s.validate(o); err != nil {
			return err
		}
	}
	perShard := make([][]Observation, len(s.engines))
	for _, o := range obs {
		sh, local := s.users.Locate(o.User)
		perShard[sh] = append(perShard[sh], Observation{User: local, Item: o.Item, Option: o.Option})
	}
	var touched []int
	for sh, batch := range perShard {
		if len(batch) > 0 {
			touched = append(touched, sh)
		}
	}
	if len(touched) == 1 {
		return s.engines[touched[0]].ObserveBatch(perShard[touched[0]])
	}
	// Lock every touched shard in index order (every multi-shard batch
	// locks in the same order, so two concurrent batches cannot deadlock)
	// and check the fences under the locks: SetFenced also takes the write
	// lock, so no fence can slip between the check and the applies.
	for _, sh := range touched {
		s.engines[sh].mu.Lock()
	}
	for _, sh := range touched {
		if s.engines[sh].fenced.Load() {
			for _, u := range touched {
				s.engines[u].mu.Unlock()
			}
			return ErrFenced
		}
	}
	// Apply concurrently with the locks held; each goroutine releases its
	// shard's lock when its sub-batch lands (a sync.Mutex may be unlocked
	// by a different goroutine than locked it).
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for _, sh := range touched {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			defer s.engines[sh].mu.Unlock()
			errs[sh] = s.engines[sh].observeBatchLocked(perShard[sh])
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rank scores every user in the cluster. With one shard it is exactly
// Engine.Rank. With several, the shards rank concurrently — each serving
// from its version-keyed cache when unchanged, re-solving (warm-started)
// when written — and the per-shard scores are min-max normalized to [0, 1]
// and merged into one global score vector. Between writes the merged
// result itself is cached, so a read-heavy steady state pays one score
// copy per Rank, no fan-out; under a WithMaxStaleness bound the cached
// merge keeps serving past writes — tagged with its Generation and
// Staleness in cluster units (sums of shard write generations) — until the
// cluster moves more than the bound ahead (see Refresh). The merge is
// deterministic: it visits shards in index order and writes each user's
// score at its global index, so the result is independent of shard
// completion order. Iterations sums the shard iteration counts; Converged
// reports whether every shard converged. The returned Result owns its
// score slice; callers may mutate it freely.
func (s *ShardedEngine) Rank(ctx context.Context) (Result, error) {
	if len(s.engines) == 1 {
		return s.engines[0].Rank(ctx)
	}
	version := s.Version()
	s.mu.Lock()
	if c := s.cached; c != nil {
		if c.version == version {
			out := c.res
			out.Scores = append(mat.Vector(nil), c.res.Scores...)
			out.Generation = c.gen
			out.Staleness = 0
			s.mu.Unlock()
			s.routerHits.Add(1)
			casMax(&s.servedGen, c.gen)
			return out, nil
		}
		if s.maxStale > 0 {
			// Shard generations only grow, so the sum read here can only lag
			// the true frontier — the reported staleness never under-counts
			// relative to the instant the bound was checked.
			if gen := s.Generation(); gen-c.gen <= s.maxStale {
				out := c.res
				out.Scores = append(mat.Vector(nil), c.res.Scores...)
				out.Generation = c.gen
				out.Staleness = gen - c.gen
				s.mu.Unlock()
				s.routerHits.Add(1)
				s.staleServes.Add(1)
				casMax(&s.servedGen, c.gen)
				return out, nil
			}
		}
	}
	s.mu.Unlock()
	return s.solveMerged(ctx, version)
}

// Refresh is Rank with the staleness bound ignored: it re-solves the stale
// shards and re-merges, pushing the router's served watermark to the
// cluster write frontier — the path the background refresh scheduler
// drives. Under a zero bound it is identical to Rank.
func (s *ShardedEngine) Refresh(ctx context.Context) (Result, error) {
	if len(s.engines) == 1 {
		return s.engines[0].Refresh(ctx)
	}
	version := s.Version()
	s.mu.Lock()
	if c := s.cached; c != nil && c.version == version {
		out := c.res
		out.Scores = append(mat.Vector(nil), c.res.Scores...)
		out.Generation = c.gen
		out.Staleness = 0
		s.mu.Unlock()
		s.routerHits.Add(1)
		casMax(&s.servedGen, c.gen)
		return out, nil
	}
	s.mu.Unlock()
	return s.solveMerged(ctx, version)
}

// solveMerged is the merged-cache miss path shared by Rank and Refresh:
// rank every shard (cached or re-solved), normalize, merge, and install
// the merged result keyed by the cluster version read before the fan-out.
func (s *ShardedEngine) solveMerged(ctx context.Context, version uint64) (Result, error) {
	results, err := s.RankAll(ctx)
	if err != nil {
		return Result{}, err
	}
	merged := Result{Scores: mat.NewVector(s.Users()), Converged: true}
	for sh, res := range results {
		norm := res.Scores.MinMaxNormalized()
		for local, g := range s.users.GlobalsOf(sh) {
			merged.Scores[g] = norm[local]
		}
		merged.Iterations += res.Iterations
		merged.Converged = merged.Converged && res.Converged
		merged.Generation += res.Generation
	}
	casMax(&s.servedGen, merged.Generation)
	if s.Version() == version {
		s.mu.Lock()
		s.cached = &shardedCache{version: version, gen: merged.Generation, res: merged}
		s.mu.Unlock()
		out := merged
		out.Scores = append(mat.Vector(nil), merged.Scores...)
		return out, nil
	}
	return merged, nil
}

// RankAll ranks every shard and returns the raw per-shard results in shard
// order, scores in shard-local user indexing (translate with LocalFor /
// UsersOf). The shards rank concurrently, each through its own engine's
// exact Refresh path: a shard whose version is unchanged answers from its
// cache, and a written shard gets the same warm solve Engine.Rank runs, so
// every result is bitwise what the shard engine alone would return. Shards
// left with fewer than two answering users — possible under hash imbalance
// on tiny populations — report a flat, converged result instead of
// failing the whole call. On error, the first failing shard in index order
// wins, deterministically, and the error names it.
func (s *ShardedEngine) RankAll(ctx context.Context) ([]Result, error) {
	results := make([]Result, len(s.engines))
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for i := range s.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.rankShard(ctx, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("hitsndiffs: RankAll shard %d: %w", i, err)
		}
	}
	return results, nil
}

// rankShard ranks one shard exactly, mapping the too-few-users degenerate
// case to a flat result when the shard is only a slice of a wider
// population. (The merge maps the flat scores to 0.5 — "no signal" — for
// every user there.) It refreshes rather than ranks because a single
// shard engine keeps the WithMaxStaleness bound, and RankAll never serves
// stale shards.
func (s *ShardedEngine) rankShard(ctx context.Context, i int) (Result, error) {
	eng := s.engines[i]
	if len(s.engines) > 1 && s.shardTooSparse(i) {
		return Result{Scores: mat.NewVector(eng.Users()), Converged: true, Generation: eng.Generation()}, nil
	}
	return eng.Refresh(ctx)
}

// Metrics returns the aggregate observability snapshot of the cluster: the
// cluster version (sum of shard versions, the same freshness key Version
// and the merged-result cache use), the total user count, and every shard
// counter summed, with the router's own merged-cache hits folded into
// CacheHits. Each shard's slice of the snapshot is internally consistent
// (taken under that shard's locks); shards are visited in index order, so
// a write racing the scrape can skew the cross-shard sums by at most the
// writes in flight. Use ShardMetrics for the per-shard breakdown.
func (s *ShardedEngine) Metrics() EngineMetrics {
	agg := EngineMetrics{Users: s.Users(), Items: s.Items()}
	for _, e := range s.engines {
		agg.add(e.Metrics())
	}
	agg.CacheHits += s.routerHits.Load()
	if len(s.engines) > 1 {
		// Staleness is enforced at the router's merged cache, not in the
		// (always-exact) shard engines: report the router's watermark,
		// bound, and stale-serve count.
		agg.StaleServes += s.staleServes.Load()
		agg.ServedGeneration = s.servedGen.Load()
		agg.MaxStaleness = s.maxStale
	}
	return agg
}

// ShardMetrics returns one EngineMetrics per shard, in shard order — the
// per-shard breakdown behind the aggregate Metrics view. Each entry is
// consistent under its shard's locks.
func (s *ShardedEngine) ShardMetrics() []EngineMetrics {
	out := make([]EngineMetrics, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Metrics()
	}
	return out
}

// shardTooSparse reports whether shard i has fewer than two answering users
// — the population no spectral method can rank. The verdict is memoized per
// shard version, and the rescan path reads under the shard's lock without
// snapshotting, so steady-state Ranks over cache-hit shards neither touch
// their matrices nor poison their copy-on-write state.
func (s *ShardedEngine) shardTooSparse(i int) bool {
	version := s.engines[i].Version()
	s.mu.Lock()
	if m := s.sparse[i]; m.valid && m.version == version {
		s.mu.Unlock()
		return m.sparse
	}
	s.mu.Unlock()
	sparse := !s.engines[i].answeredAtLeast(2)
	s.mu.Lock()
	s.sparse[i] = sparseMemo{version: version, valid: true, sparse: sparse}
	s.mu.Unlock()
	return sparse
}
