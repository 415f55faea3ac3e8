// Package refresh implements the staleness-bounded background refresh
// scheduler that decouples writes from solves: serving engines configured
// with hitsndiffs.WithMaxStaleness answer reads from their last solved
// scores immediately, and the scheduler re-solves them in the background,
// so a write burst turns into amortized refresh work instead of inline
// read-tail spikes.
//
// Each scheduling round (one clock tick) computes, per registered target,
//
//	staleness = Generation() − generation last refreshed to
//	priority  = staleness × (traffic + 1)
//
// where traffic is a per-round-halved decay of NoteTraffic ticks — hot
// stale tenants refresh first, but idle stale tenants are never starved
// (the +1). Stale targets are refreshed one at a time through
// Target.Refresh, in priority order (descending, ties broken by name
// ascending). A failed or canceled refresh never advances the target's
// progress watermark.
//
// Time is injected through internal/testclock, so every scheduling test
// drives rounds deterministically with a fake clock.
package refresh

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/testclock"
)

// DefaultInterval is the scheduling round cadence when Config.Interval is
// zero.
const DefaultInterval = 25 * time.Millisecond

// Target is one refreshable serving engine. Both *hitsndiffs.Engine and
// *hitsndiffs.ShardedEngine satisfy it, and the serving tier registers
// each tenant's ShardedEngine directly: a refresh raises the engine's own
// served watermark (EngineMetrics.ServedGeneration), which is what the
// tier's write admission reads, and it shares its solve with any client
// rank of the same matrix.
type Target interface {
	// Generation returns the target's current write frontier in matrix
	// write generations — the unit staleness is measured in.
	Generation() uint64
	// Refresh re-solves the target to its write frontier, ignoring any
	// staleness bound (hitsndiffs.Engine.Refresh semantics).
	Refresh(ctx context.Context) (hitsndiffs.Result, error)
}

// Config configures a Scheduler. The zero value runs on the system clock
// at DefaultInterval with defaults throughout.
type Config struct {
	// Clock is the time source rounds tick on; nil means the system clock.
	// Tests inject a testclock.Fake and drive rounds with Advance.
	Clock testclock.Clock
	// Interval is the scheduling round cadence (default DefaultInterval).
	Interval time.Duration
	// MaxPerRound caps how many targets one round refreshes — the rest
	// stay queued (and counted in Metrics.QueueDepth) for later rounds.
	// Zero or negative = unlimited.
	MaxPerRound int
}

// Scheduler runs the background refresh loop. Construct with New; the
// zero value is not usable. All methods are safe for concurrent use.
type Scheduler struct {
	clock       testclock.Clock
	interval    time.Duration
	maxPerRound int

	// ctx is the context refreshes solve under: canceled only by Close,
	// after the in-flight round has been waited out.
	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	mu      sync.RWMutex
	targets map[string]*target

	rounds       atomic.Uint64
	refreshes    atomic.Uint64
	errCount     atomic.Uint64
	queueDepth   atomic.Int64
	lastRoundNs  atomic.Int64
	totalRoundNs atomic.Int64
}

// target is one registered Target with the scheduler's bookkeeping. The
// non-atomic fields are owned by the scheduling goroutine.
type target struct {
	name string
	t    Target

	pending atomic.Uint64 // NoteTraffic ticks since the last round

	traffic uint64 // decayed request traffic (halved per round)
	lastGen uint64 // generation last refreshed to — the progress watermark
}

// New builds a Scheduler and starts its background round loop. Callers
// must Close it to stop the loop.
func New(cfg Config) *Scheduler {
	clk := cfg.Clock
	if clk == nil {
		clk = testclock.System()
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		clock:       clk,
		interval:    interval,
		maxPerRound: cfg.MaxPerRound,
		ctx:         ctx,
		cancel:      cancel,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		targets:     make(map[string]*target),
	}
	go s.loop()
	return s
}

// Register adds (or replaces) a named target. A replaced name restarts
// its progress watermark, so the next round refreshes it.
func (s *Scheduler) Register(name string, t Target) {
	tg := &target{name: name, t: t}
	s.mu.Lock()
	s.targets[name] = tg
	s.mu.Unlock()
}

// Deregister removes a named target; unknown names are a no-op. A round
// already in flight may still refresh it once.
func (s *Scheduler) Deregister(name string) {
	s.mu.Lock()
	delete(s.targets, name)
	s.mu.Unlock()
}

// NoteTraffic records one served request against a target, feeding the
// round's staleness × traffic priority. Unknown names are a no-op.
func (s *Scheduler) NoteTraffic(name string) {
	s.mu.RLock()
	tg := s.targets[name]
	s.mu.RUnlock()
	if tg != nil {
		tg.pending.Add(1)
	}
}

// Close stops the scheduler: the round loop exits after finishing any
// round already in flight — so callers can flush durable state knowing no
// background solve is still running — and only then is the solve context
// canceled. Idempotent.
func (s *Scheduler) Close() {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.cancel()
	})
}

// loop ticks rounds until Close.
func (s *Scheduler) loop() {
	defer close(s.done)
	tk := s.clock.NewTicker(s.interval)
	defer tk.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tk.C():
			s.runRound(s.ctx)
		}
	}
}

// plan computes the current round's schedule: decay traffic, measure
// staleness, order by priority = staleness × (traffic+1) descending (name
// ascending on ties) and cap at MaxPerRound. depth is the stale-target
// count before capping.
func (s *Scheduler) plan() (order []*target, depth int) {
	s.mu.RLock()
	all := make([]*target, 0, len(s.targets))
	for _, tg := range s.targets {
		all = append(all, tg)
	}
	s.mu.RUnlock()

	type cand struct {
		tg       *target
		priority uint64
	}
	var stale []cand
	for _, tg := range all {
		tg.traffic = tg.traffic/2 + tg.pending.Swap(0)
		gen := tg.t.Generation()
		if gen <= tg.lastGen {
			continue
		}
		stale = append(stale, cand{tg: tg, priority: (gen - tg.lastGen) * (tg.traffic + 1)})
	}
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].priority != stale[j].priority {
			return stale[i].priority > stale[j].priority
		}
		return stale[i].tg.name < stale[j].tg.name
	})
	depth = len(stale)
	if s.maxPerRound > 0 && len(stale) > s.maxPerRound {
		stale = stale[:s.maxPerRound]
	}
	for _, c := range stale {
		order = append(order, c.tg)
	}
	return order, depth
}

// runRound executes one scheduling round: plan, then refresh every planned
// target in priority order.
func (s *Scheduler) runRound(ctx context.Context) {
	start := s.clock.Now()
	order, depth := s.plan()
	s.queueDepth.Store(int64(depth))
	for _, tg := range order {
		res, err := tg.t.Refresh(ctx)
		if err != nil {
			// The watermark stays put: a failed or canceled solve is retried
			// at full staleness next round, never recorded as progress.
			s.errCount.Add(1)
			continue
		}
		if res.Generation > tg.lastGen {
			tg.lastGen = res.Generation
		}
		s.refreshes.Add(1)
	}

	elapsed := s.clock.Now().Sub(start).Nanoseconds()
	s.lastRoundNs.Store(elapsed)
	s.totalRoundNs.Add(elapsed)
	s.rounds.Add(1)
}

// Metrics is a point-in-time snapshot of the scheduler's counters, shaped
// for the serving tier's /metrics endpoint.
type Metrics struct {
	// Targets is the number of registered targets.
	Targets int `json:"targets"`
	// QueueDepth is the stale-target count at the last round's plan —
	// how much refresh work was pending, before MaxPerRound capping.
	QueueDepth int64 `json:"queue_depth"`
	// Rounds counts completed scheduling rounds.
	Rounds uint64 `json:"rounds"`
	// Refreshes counts successful target refreshes.
	Refreshes uint64 `json:"refreshes"`
	// Errors counts failed refresh attempts (the targets stay queued).
	Errors uint64 `json:"errors"`
	// LastRoundNanos is the wall time of the most recent round.
	LastRoundNanos int64 `json:"last_round_ns"`
	// TotalRoundNanos is the cumulative wall time of all rounds — with
	// Rounds it gives the mean refresh-round latency.
	TotalRoundNanos int64 `json:"total_round_ns"`
}

// Metrics returns a point-in-time snapshot of the scheduler's counters.
func (s *Scheduler) Metrics() Metrics {
	s.mu.RLock()
	n := len(s.targets)
	s.mu.RUnlock()
	return Metrics{
		Targets:         n,
		QueueDepth:      s.queueDepth.Load(),
		Rounds:          s.rounds.Load(),
		Refreshes:       s.refreshes.Load(),
		Errors:          s.errCount.Load(),
		LastRoundNanos:  s.lastRoundNs.Load(),
		TotalRoundNanos: s.totalRoundNs.Load(),
	}
}
