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
// What the shards buy:
//
//   - Rank fans out across shards concurrently and re-solves only shards
//     whose generation changed since their last solve; a single-user write
//     therefore re-ranks 1/N of the users while the other shards answer
//     from their caches (see BenchmarkShardedRank). Each shard solve runs
//     the serial kernels on its own goroutine, so the fan-out is what puts
//     several cores to work on one Rank.
//   - Observe and ObserveBatch lock and write only the shards owning the
//     written users, and each shard is its own unit of durability and
//     handoff: one write hook, snapshot series and fence per shard. The
//     copy-on-write cost of a write does not shrink with N: matrices are
//     paged, so a write under an outstanding view copies the one 64-user
//     page it touches whatever the shard count (see
//     BenchmarkShardedObserve).
//
// With one shard (WithShards(1), or 0) the router hands construction,
// ObserveBatch, Rank, Refresh and InferLabels to its one Engine, so it
// serves exactly as a plain Engine does.
//
// The price of several shards is score granularity: user scores are only
// directly comparable within a shard, so the merged ranking min-max
// normalizes each shard to [0, 1] — the same contract as
// RankPerComponent. Workloads that need globally calibrated scores, or
// label inference over the full matrix, should use one shard (or one
// ShardedEngine per tenant and shard.OfString to route tenants).
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
	// too-few-users verdict keyed by shard generation (recomputing it per
	// Rank would rescan matrices or take COW-poisoning snapshots), and
	// cached, the merged Rank result keyed by its Generation, the sum of
	// the shard generations it was merged at. Shard generations only grow
	// between AdoptShard/RestoreShard calls, which drop both memos, so an
	// equal sum means no shard has been written.
	mu     sync.Mutex
	sparse []sparseMemo
	cached *Result

	// routerHits counts Ranks served from the merged-result cache without
	// touching any shard; Metrics folds it into the aggregate CacheHits.
	// staleServes counts merged results served behind the cluster write
	// frontier under the staleness bound, and servedGen is the router's
	// served-generation watermark (sum-of-shard-generations units),
	// starting at the cluster generation of construction and of each
	// RestoreShard/AdoptShard.
	routerHits  atomic.Uint64
	staleServes atomic.Uint64
	servedGen   atomic.Uint64
}

// sparseMemo caches one shard's too-few-users verdict for a shard
// generation.
type sparseMemo struct {
	gen    uint64
	valid  bool
	sparse bool
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
	partition := shard.NewMap
	if s.ringReplicas > 0 {
		partition = func(users, shards int) *shard.Map { return shard.NewRingMap(users, shards, s.ringReplicas) }
	}
	users := shardMapFor(m.Users(), s.shards, partition)
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
		// One shard owns every user at its global index, so it serves m
		// itself, generation included. Otherwise shardMapFor guarantees
		// every shard owns at least one user, so Subset's non-empty
		// precondition always holds.
		sub := m
		if n > 1 {
			sub = m.Subset(users.GlobalsOf(sh))
		}
		eng, err := NewEngine(sub, shardOpts...)
		if err != nil {
			return nil, err
		}
		se.engines[sh] = eng
	}
	se.servedGen.Store(se.Generation())
	return se, nil
}

// shardMapFor builds the user partition for a requested shard count with
// the given partitioner (shard.NewMap, or a shard.NewRingMap closure for
// WithRingPartition), deterministically lowering the count until every
// shard owns at least one user (hash imbalance can leave a shard empty
// when shards approach the user count; a 1-wide partition never can). The
// result is a pure function of its inputs, so re-sharding the same
// population reproduces the same partition in every process.
func shardMapFor(userCount, requested int, partition func(users, shards int) *shard.Map) *shard.Map {
	n := min(requested, userCount)
	for ; n > 1; n-- {
		m := partition(userCount, n)
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
	return partition(userCount, 1)
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

// Generation returns the sum of the shard matrices' write-generation
// counters — the cluster analogue of Engine.Generation, the key of the
// router's merged cache and the unit the router-level staleness bound is
// measured in. Shard generations only grow under writes, so the sum is
// monotone between handoffs.
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
// together with the matching shard write generations, in shard order. Like
// Engine.View, the returned matrices are immutable by contract: the next
// write to a shard clones it first, so each view stays consistent forever,
// but callers must not mutate them. Use LocalFor / UsersOf to translate
// between global user indices and per-shard row indices.
func (s *ShardedEngine) View() ([]*ResponseMatrix, []uint64) {
	ms := make([]*ResponseMatrix, len(s.engines))
	gens := make([]uint64, len(s.engines))
	for i, e := range s.engines {
		ms[i], gens[i] = e.View()
	}
	return ms, gens
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
	return s.replaceShard("RestoreShard", sh, m, (*Engine).Restore)
}

// replaceShard runs replace (Engine.Restore or Engine.Adopt) on one shard
// under the router lock and drops the merged cache and the shard's sparse
// memo: the new matrix may carry the generation of the one it replaces,
// so neither key would notice the swap. The served watermark restarts at
// the cluster generation, as it does for the replaced shard's engine.
func (s *ShardedEngine) replaceShard(name string, sh int, m *ResponseMatrix, replace func(*Engine, *ResponseMatrix) error) error {
	if sh < 0 || sh >= len(s.engines) {
		return fmt.Errorf("hitsndiffs: %s shard %d out of range [0,%d)", name, sh, len(s.engines))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := replace(s.engines[sh], m); err != nil {
		return err
	}
	s.cached = nil
	s.sparse[sh] = sparseMemo{}
	s.servedGen.Store(s.Generation())
	return nil
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
// the shard's write generation — the single-shard form of View, used by
// the shard handoff exporter to snapshot only the moving shard.
func (s *ShardedEngine) ShardView(sh int) (*ResponseMatrix, uint64, error) {
	if sh < 0 || sh >= len(s.engines) {
		return nil, 0, fmt.Errorf("hitsndiffs: ShardView shard %d out of range [0,%d)", sh, len(s.engines))
	}
	m, gen := s.engines[sh].View()
	return m, gen, nil
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
// a shard that already absorbed writes. The router's merged cache and the
// shard's sparse memo are dropped, and a merge whose fan-out straddles the
// adopt does not install.
func (s *ShardedEngine) AdoptShard(sh int, m *ResponseMatrix) error {
	return s.replaceShard("AdoptShard", sh, m, (*Engine).Adopt)
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
// locked and written — writes to different shards never contend.
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
// acquisition. The whole batch is validated up front against the router's
// geometry, so an out-of-range observation leaves every shard untouched;
// a fence on ANY touched shard likewise fails the batch with ErrFenced
// before any sub-batch applies — every touched shard's write lock is held
// across the fence check and the applies, so a fence raised concurrently
// can never split the batch into an applied half and a rejected half
// (which a client 429-retry would then double-apply). With one shard the
// batch goes to Engine.ObserveBatch unsplit.
func (s *ShardedEngine) ObserveBatch(obs []Observation) error {
	if len(s.engines) == 1 {
		return s.engines[0].ObserveBatch(obs)
	}
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
// from its generation-keyed cache when unchanged, re-solving (warm-started)
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
// reports whether every shard converged, and Coalesced whether any shard
// result rode another call's solve. The returned Result owns its score
// slice; callers may mutate it freely.
func (s *ShardedEngine) Rank(ctx context.Context) (Result, error) {
	if len(s.engines) == 1 {
		return s.engines[0].Rank(ctx)
	}
	return s.rank(ctx, s.maxStale)
}

// Refresh is Rank with the staleness bound ignored: it re-solves the stale
// shards and re-merges, pushing the router's served watermark to the
// cluster write frontier — the path the background refresh scheduler
// drives. Under a zero bound it is identical to Rank.
func (s *ShardedEngine) Refresh(ctx context.Context) (Result, error) {
	if len(s.engines) == 1 {
		return s.engines[0].Refresh(ctx)
	}
	return s.rank(ctx, 0)
}

// rank serves the merged cache while the cluster is at most maxStale
// generations past it, and re-merges otherwise. Shard generations are
// read under the router lock, so no AdoptShard can slip between the read
// and the cache it is compared with.
func (s *ShardedEngine) rank(ctx context.Context, maxStale uint64) (Result, error) {
	s.mu.Lock()
	if c := s.cached; c != nil {
		if stale := s.Generation() - c.Generation; stale <= maxStale {
			out := *c
			out.Scores = append(mat.Vector(nil), c.Scores...)
			out.Staleness = stale
			s.mu.Unlock()
			s.routerHits.Add(1)
			if stale > 0 {
				s.staleServes.Add(1)
			}
			casMax(&s.servedGen, c.Generation)
			return out, nil
		}
	}
	s.mu.Unlock()
	return s.solveMerged(ctx)
}

// solveMerged is the merged-cache miss path shared by Rank and Refresh:
// rank every shard (cached or re-solved), normalize and merge. The merge
// is cached only while every shard still holds the matrix, at the
// generation, its result was solved from — no write or AdoptShard landed
// during the fan-out.
func (s *ShardedEngine) solveMerged(ctx context.Context) (Result, error) {
	results, held, err := s.rankAll(ctx)
	if err != nil {
		return Result{}, err
	}
	merged := Result{Scores: mat.NewVector(s.Users()), Converged: true}
	coalesced := false
	for sh, res := range results {
		norm := res.Scores.MinMaxNormalized()
		for local, g := range s.users.GlobalsOf(sh) {
			merged.Scores[g] = norm[local]
		}
		merged.Iterations += res.Iterations
		merged.Converged = merged.Converged && res.Converged
		merged.Generation += res.Generation
		coalesced = coalesced || res.Coalesced
	}
	casMax(&s.servedGen, merged.Generation)
	s.mu.Lock()
	install := true
	for sh, e := range s.engines {
		install = install && e.holds(held[sh], results[sh].Generation)
	}
	if install {
		c := merged
		c.Scores = append(mat.Vector(nil), merged.Scores...)
		s.cached = &c
	}
	s.mu.Unlock()
	merged.Coalesced = coalesced
	return merged, nil
}

// RankAll ranks every shard and returns the raw per-shard results in shard
// order, scores in shard-local user indexing (translate with LocalFor /
// UsersOf). The shards rank concurrently, each through its own engine's
// exact Refresh path: a shard whose generation is unchanged answers from
// its cache, and a written shard gets the same warm solve Engine.Rank
// runs, so every result is bitwise what the shard engine alone would
// return. Shards left with fewer than two answering users — possible under
// hash imbalance on tiny populations — report a flat, converged result
// instead of failing the whole call. On error, the first failing shard in
// index order wins, deterministically, and the error names it.
func (s *ShardedEngine) RankAll(ctx context.Context) ([]Result, error) {
	results, _, err := s.rankAll(ctx)
	return results, err
}

// rankAll is RankAll that also returns, per shard, the matrix its result
// was solved from — for the merge's install check, never read.
func (s *ShardedEngine) rankAll(ctx context.Context) ([]Result, []*ResponseMatrix, error) {
	results := make([]Result, len(s.engines))
	held := make([]*ResponseMatrix, len(s.engines))
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for i := range s.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], held[i], errs[i] = s.rankShard(ctx, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("hitsndiffs: RankAll shard %d: %w", i, err)
		}
	}
	return results, held, nil
}

// rankShard ranks one shard exactly, mapping the too-few-users degenerate
// case to a flat result when the shard is only a slice of a wider
// population. (The merge maps the flat scores to 0.5 — "no signal" — for
// every user there.) It refreshes rather than ranks because a single
// shard engine keeps the WithMaxStaleness bound, and RankAll never serves
// stale shards.
func (s *ShardedEngine) rankShard(ctx context.Context, i int) (Result, *ResponseMatrix, error) {
	eng := s.engines[i]
	if len(s.engines) > 1 {
		if m, gen, sparse := s.shardTooSparse(i); sparse {
			return Result{Scores: mat.NewVector(eng.Users()), Converged: true, Generation: gen}, m, nil
		}
	}
	return eng.rank(ctx, false, true)
}

// InferLabels serves the truth-discovery direction of a one-shard engine:
// it is exactly Engine.InferLabels on the one shard, returning each item's
// estimated correct option with the write generation the labels were
// inferred at. Score-weighted voting needs scores comparable across every
// user of the matrix, which the per-shard min-max merge does not give, so
// with several shards it returns an error.
func (s *ShardedEngine) InferLabels(ctx context.Context) ([]int, uint64, error) {
	if len(s.engines) > 1 {
		return nil, 0, fmt.Errorf("hitsndiffs: InferLabels needs the full matrix on one shard, engine has %d shards", len(s.engines))
	}
	return s.engines[0].InferLabels(ctx)
}

// Metrics returns the aggregate observability snapshot of the cluster: the
// cluster generation (sum of shard generations, the key the merged-result
// cache uses), the total user count, and every shard counter summed, with
// the router's own merged-cache hits folded into CacheHits. Each shard's
// slice of the snapshot is internally consistent (taken under that
// shard's locks); shards are visited in index order, so a write racing
// the scrape can skew the cross-shard sums by at most the writes in
// flight. Use ShardMetrics for the per-shard breakdown.
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
// — the population no spectral method can rank — together with the matrix
// and generation the verdict holds for. The verdict is memoized per shard
// generation, and the rescan path reads under the shard's lock without
// snapshotting, so steady-state Ranks over cache-hit shards neither touch
// their matrices nor poison their copy-on-write state. Both locks are held
// throughout, so the verdict, the generation and the memo always agree.
func (s *ShardedEngine) shardTooSparse(i int) (*ResponseMatrix, uint64, bool) {
	e := s.engines[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	m, gen := e.held()
	if memo := s.sparse[i]; !memo.valid || memo.gen != gen {
		s.sparse[i] = sparseMemo{gen: gen, valid: true, sparse: !e.answeredAtLeast(2)}
	}
	return m, gen, s.sparse[i].sparse
}
