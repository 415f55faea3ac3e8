package hitsndiffs

import (
	"hitsndiffs/internal/core"
	"hitsndiffs/internal/grmest"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/truth"
)

// SetParallelism sets the process-wide default number of chunks the sparse
// kernels split each matrix-vector product into (the chunks execute on the
// persistent worker pool — see SetPoolSize). It applies to every method
// that does not carry an explicit WithParallelism option. Passing 0
// restores the default of tracking runtime.GOMAXPROCS. Safe for concurrent
// use; cmd/hnd and cmd/experiments expose it as -parallel.
func SetParallelism(n int) { mat.SetDefaultWorkers(n) }

// Parallelism returns the effective process-wide default worker count.
func Parallelism() int { return mat.DefaultWorkers() }

// SetPoolSize sets the number of persistent worker goroutines in the shared
// kernel pool every parallel sparse kernel — and therefore every Engine and
// every ShardedEngine shard — dispatches through, starting the pool if
// needed. Passing 0 resolves to runtime.GOMAXPROCS. Distinct from
// SetParallelism: parallelism is how many chunks one kernel call splits
// into, the pool is who executes them. Safe for concurrent use.
func SetPoolSize(n int) { mat.SetPoolSize(n) }

// PoolSize returns the current size of the shared kernel worker pool, or 0
// if it has not started yet (it starts, GOMAXPROCS-sized, on the first
// parallel kernel call).
func PoolSize() int { return mat.PoolSize() }

// Option is a functional tuning knob accepted by every method constructor
// and by New. Options a method has no use for (e.g. a tolerance on the
// closed-form BL baseline) are silently ignored, so one option list can be
// applied to any registered method.
type Option func(*settings)

// settings is the merged view of all applied options; each method family
// projects the subset it understands.
type settings struct {
	tol             float64
	maxIter         int
	seed            int64
	skipOrientation bool
	warmStart       mat.Vector
	workers         int
	update          *core.Update
	scratchUpdate   bool
	scratch         *core.SolveScratch
}

// withUpdate threads a prebuilt AVGHITS update machinery into a solve — the
// engine's per-version Update cache uses it; not part of the public option
// surface because only the engine can guarantee the machinery matches the
// matrix being ranked.
func withUpdate(u *core.Update) Option {
	return func(s *settings) { s.update = u }
}

// withScratchUpdate forces from-scratch normalized-matrix construction,
// bypassing every generation-keyed memo — the solve-side half of the
// WithUpdateCache(false) escape hatch.
func withScratchUpdate() Option {
	return func(s *settings) { s.scratchUpdate = true }
}

// withSolveScratch threads pooled solve buffers into an HnD-power solve
// (core.Options.Scratch); not public because the scratch contract — single
// solve at a time, scores copied out before the buffers are reused — is the
// engine's to uphold, not the caller's.
func withSolveScratch(sc *core.SolveScratch) Option {
	return func(s *settings) { s.scratch = sc }
}

// WithTol sets the L2 convergence threshold of iterative methods. The
// paper's default is 1e-5.
func WithTol(tol float64) Option {
	return func(s *settings) { s.tol = tol }
}

// WithMaxIter bounds the number of iterations of iterative methods
// (default 20000 for the spectral methods, 1000 for the truth-discovery
// baselines).
func WithMaxIter(n int) Option {
	return func(s *settings) { s.maxIter = n }
}

// WithSeed seeds the random initial iterate of the spectral methods,
// making runs reproducible.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithSkipOrientation disables the decile entropy symmetry breaking,
// leaving the raw spectral orientation. Used by ablation experiments.
func WithSkipOrientation() Option {
	return func(s *settings) { s.skipOrientation = true }
}

// WithWarmStart seeds the power iteration with a previous score vector
// (one entry per user) instead of a random start. Re-ranking a lightly
// perturbed matrix then converges in a fraction of the cold-start
// iterations — the mechanism behind Engine's cheap steady-state re-ranks.
// The slice is copied; methods without a compatible iterate ignore it.
func WithWarmStart(scores []float64) Option {
	clone := append([]float64(nil), scores...)
	return func(s *settings) { s.warmStart = mat.Vector(clone) }
}

// WithParallelism caps the chunks the sparse kernels of this method split
// each matrix-vector product into, executed on the shared persistent
// worker pool: 1 forces the serial kernels (bitwise-reproducible against
// any worker count for row-parallel products, and within 1e-12 for
// transpose products), 0 or omission defers to the process-wide default
// (see SetParallelism). Methods without parallel kernels ignore it.
func WithParallelism(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithMaxStaleness lets Rank and RankBatch serve the last solved scores
// while the matrix is at most n write generations
// (ResponseMatrix.Generation ticks, one per observation) ahead of the
// generation they were solved at. Served results carry their Generation
// and Staleness so callers can see how far behind they are; staleness
// never exceeds the bound. Zero (the default) keeps today's inline
// behavior: every rank reflects the latest write before returning.
//
// A positive bound decouples reads from solves — writes stop spiking read
// tails — but someone must still push the served watermark forward:
// Refresh / RefreshBatch ignore the bound and are the paths a background
// refresher (internal/refresh) drives. InferLabels always serves exact
// results: labels are inferred over the same snapshot the scores came
// from, so it never mixes a stale ranking with current responses.
// Applies to Engine, ShardedEngine and RankBatch.
func WithMaxStaleness(n uint64) EngineOption {
	return func(s *engineSettings) { s.maxStale = n }
}

// WithUpdateCache toggles the engine's generation-keyed solve-input caches
// (default on): the per-version core.Update cache that lets a warm re-rank
// reuse the previous solve's machinery, and the memoized normalized one-hot
// matrices that delta-splice after writes instead of rebuilding from
// scratch. Disabling it restores the always-rebuild construction — every
// rank re-derives C_row/C_col from scratch — as an escape hatch and as the
// reference path the cached-vs-scratch equivalence tests compare against.
// Results are bitwise identical either way; the setting only trades memory
// for per-re-rank work. Applies to Engine, ShardedEngine and RankBatch.
func WithUpdateCache(enabled bool) EngineOption {
	return func(s *engineSettings) { s.updateCache = enabled }
}

func newSettings(opts []Option) settings {
	var s settings
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// coreOptions projects the settings onto the spectral methods of
// internal/core.
func (s settings) coreOptions() core.Options {
	return core.Options{
		Tol:             s.tol,
		MaxIter:         s.maxIter,
		Seed:            s.seed,
		SkipOrientation: s.skipOrientation,
		WarmStart:       s.warmStart,
		Workers:         s.workers,
		Update:          s.update,
		ScratchUpdate:   s.scratchUpdate,
		Scratch:         s.scratch,
	}
}

// truthOptions projects the settings onto the iterative truth-discovery
// baselines.
func (s settings) truthOptions() truth.Options {
	return truth.Options{Tol: s.tol, MaxIter: s.maxIter}
}

// grmOptions projects the settings onto the GRM MML-EM estimator: the
// shared iteration budget caps the EM round count.
func (s settings) grmOptions() grmest.Options {
	return grmest.Options{Tol: s.tol, MaxIter: s.maxIter}
}
