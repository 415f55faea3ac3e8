package hitsndiffs

import (
	"hitsndiffs/internal/core"
	"hitsndiffs/internal/grmest"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/truth"
)

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
	scratch         *core.SolveScratch
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

// WithMaxStaleness lets Rank serve the last solved scores while the
// matrix is at most n write generations (ResponseMatrix.Generation ticks,
// one per observation) ahead of the generation they were solved at.
// Served results carry their Generation and Staleness so callers can see
// how far behind they are; staleness never exceeds the bound. Zero (the
// default) keeps the inline behavior: every rank reflects the latest
// write before returning.
//
// A positive bound decouples reads from solves — writes stop spiking read
// tails — but someone must still push the served watermark forward:
// Refresh ignores the bound and is the path a background refresher
// (internal/refresh) drives. InferLabels always serves exact results:
// labels are inferred over the same snapshot the scores came from, so it
// never mixes a stale ranking with current responses. Applies to Engine
// and ShardedEngine.
func WithMaxStaleness(n uint64) EngineOption {
	return func(s *engineSettings) { s.maxStale = n }
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
