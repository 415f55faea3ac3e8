package refresh

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/testclock"
)

// fakeTarget is a Target with a scriptable generation and refresh body.
type fakeTarget struct {
	gen     atomic.Uint64
	calls   atomic.Int32
	refresh func(ctx context.Context) (hitsndiffs.Result, error)
}

func (f *fakeTarget) Generation() uint64 { return f.gen.Load() }

func (f *fakeTarget) Refresh(ctx context.Context) (hitsndiffs.Result, error) {
	f.calls.Add(1)
	if f.refresh != nil {
		return f.refresh(ctx)
	}
	return hitsndiffs.Result{Generation: f.gen.Load()}, nil
}

// testEngine builds a small solvable engine with every user answering.
func testEngine(t *testing.T, seed int64, opts ...hitsndiffs.EngineOption) *hitsndiffs.Engine {
	t.Helper()
	opts = append([]hitsndiffs.EngineOption{
		hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(seed)),
	}, opts...)
	eng, err := hitsndiffs.NewEngine(hitsndiffs.NewResponseMatrix(5, 4, 3), opts...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for u := 0; u < 5; u++ {
		for i := 0; i < 4; i++ {
			if err := eng.Observe(u, i, (u+i+int(seed))%3); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}
	return eng
}

// newTestSched builds a scheduler on a fake clock (no rounds fire until the
// clock advances) and waits for the loop's ticker to register.
func newTestSched(t *testing.T, cfg Config) (*Scheduler, *testclock.Fake) {
	t.Helper()
	clk := testclock.NewFake()
	cfg.Clock = clk
	s := New(cfg)
	t.Cleanup(s.Close)
	clk.BlockUntilTickers(1)
	return s, clk
}

// TestPlanPriorityOrdering pins the round ordering: priority is
// staleness × (traffic + 1), descending, name-ascending on ties, and
// traffic decays by half each round.
func TestPlanPriorityOrdering(t *testing.T) {
	s, _ := newTestSched(t, Config{})

	a, b, c, d := &fakeTarget{}, &fakeTarget{}, &fakeTarget{}, &fakeTarget{}
	a.gen.Store(3) // priority 3×(0+1) = 3
	b.gen.Store(1) // priority 1×(5+1) = 6
	c.gen.Store(2) // priority 2×(2+1) = 6 — ties with b, name breaks it
	d.gen.Store(0) // not stale: skipped entirely
	s.Register("a", a)
	s.Register("b", b)
	s.Register("c", c)
	s.Register("d", d)
	for i := 0; i < 5; i++ {
		s.NoteTraffic("b")
	}
	for i := 0; i < 2; i++ {
		s.NoteTraffic("c")
	}

	order, depth := s.plan()
	if got, want := names(order), []string{"b", "c", "a"}; !equal(got, want) {
		t.Fatalf("round 1 order = %v, want %v", got, want)
	}
	if depth != 3 {
		t.Fatalf("depth = %d, want 3", depth)
	}

	// Nothing refreshed; traffic decays: b 5→2 (priority 3), c 2→1
	// (priority 4), a stays 3. Tie a/b breaks by name.
	order, _ = s.plan()
	if got, want := names(order), []string{"c", "a", "b"}; !equal(got, want) {
		t.Fatalf("round 2 order = %v, want %v", got, want)
	}
}

func names(order []*target) []string {
	var out []string
	for _, tg := range order {
		out = append(out, tg.name)
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlanMaxPerRound checks the cap keeps the highest-priority targets
// and that depth still reports the full stale backlog.
func TestPlanMaxPerRound(t *testing.T) {
	s, _ := newTestSched(t, Config{MaxPerRound: 2})
	for _, tc := range []struct {
		name string
		gen  uint64
	}{{"p1", 1}, {"p5", 5}, {"p3", 3}, {"p4", 4}, {"p2", 2}} {
		f := &fakeTarget{}
		f.gen.Store(tc.gen)
		s.Register(tc.name, f)
	}
	order, depth := s.plan()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if got, want := names(order), []string{"p5", "p4"}; !equal(got, want) {
		t.Fatalf("capped round = %v, want %v", got, want)
	}
}

// TestFailedRefreshKeepsWatermark checks a failing refresh leaves the
// progress watermark untouched (the target is retried at full staleness)
// and counts an error; a later success advances it.
func TestFailedRefreshKeepsWatermark(t *testing.T) {
	s, _ := newTestSched(t, Config{})
	boom := errors.New("boom")
	f := &fakeTarget{}
	f.gen.Store(5)
	fail := atomic.Bool{}
	fail.Store(true)
	f.refresh = func(ctx context.Context) (hitsndiffs.Result, error) {
		if fail.Load() {
			return hitsndiffs.Result{}, boom
		}
		return hitsndiffs.Result{Generation: f.gen.Load()}, nil
	}
	s.Register("f", f)
	s.mu.RLock()
	tg := s.targets["f"]
	s.mu.RUnlock()

	s.runRound(context.Background())
	if tg.lastGen != 0 {
		t.Fatalf("failed refresh advanced watermark to %d", tg.lastGen)
	}
	m := s.Metrics()
	if m.Errors != 1 || m.Refreshes != 0 {
		t.Fatalf("errors=%d refreshes=%d, want 1/0", m.Errors, m.Refreshes)
	}

	fail.Store(false)
	s.runRound(context.Background())
	if tg.lastGen != 5 {
		t.Fatalf("watermark = %d after success, want 5", tg.lastGen)
	}
	if _, depth := s.plan(); depth != 0 {
		t.Fatalf("refreshed target still planned: depth %d", depth)
	}
}

// TestCanceledContextNeverPoisonsWatermark drives a real engine through a
// round under a canceled context: the refresh fails, and neither the
// scheduler's watermark nor the engine's served generation (the one the
// serving tier's write admission reads) moves — then a live context
// refreshes it for real.
func TestCanceledContextNeverPoisonsWatermark(t *testing.T) {
	s, _ := newTestSched(t, Config{})
	eng := testEngine(t, 4)
	s.Register("x", eng)
	s.mu.RLock()
	tg := s.targets["x"]
	s.mu.RUnlock()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s.runRound(canceled)
	if tg.lastGen != 0 {
		t.Fatalf("canceled round advanced watermark to %d", tg.lastGen)
	}
	if served := eng.Metrics().ServedGeneration; served != 0 {
		t.Fatalf("canceled round advanced the engine's served generation to %d", served)
	}
	m := s.Metrics()
	if m.Errors != 1 || m.Refreshes != 0 {
		t.Fatalf("errors=%d refreshes=%d, want 1/0", m.Errors, m.Refreshes)
	}

	s.runRound(context.Background())
	if tg.lastGen != eng.Generation() {
		t.Fatalf("watermark = %d, want %d", tg.lastGen, eng.Generation())
	}
	if served := eng.Metrics().ServedGeneration; served != eng.Generation() {
		t.Fatalf("engine served generation = %d after refresh, want %d", served, eng.Generation())
	}
	res, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatalf("Rank after refresh: %v", err)
	}
	if res.Staleness != 0 {
		t.Fatalf("Rank after refresh is stale by %d", res.Staleness)
	}
}

// TestPackedRoundRefreshesEngines runs one real round over two plainly
// registered engines and checks both are refreshed, leaving their caches at
// the write frontier.
func TestPackedRoundRefreshesEngines(t *testing.T) {
	s, _ := newTestSched(t, Config{})
	engA := testEngine(t, 5, hitsndiffs.WithMaxStaleness(1000))
	engB := testEngine(t, 6, hitsndiffs.WithMaxStaleness(1000))
	s.Register("a", engA)
	s.Register("b", engB)

	s.runRound(context.Background())
	m := s.Metrics()
	if m.Refreshes != 2 || m.Errors != 0 {
		t.Fatalf("refreshes=%d errors=%d, want 2/0", m.Refreshes, m.Errors)
	}
	for name, eng := range map[string]*hitsndiffs.Engine{"a": engA, "b": engB} {
		res, err := eng.Rank(context.Background())
		if err != nil {
			t.Fatalf("%s: Rank: %v", name, err)
		}
		if res.Staleness != 0 || res.Generation != eng.Generation() {
			t.Fatalf("%s: served gen %d staleness %d, want frontier %d exact",
				name, res.Generation, res.Staleness, eng.Generation())
		}
	}
	if _, depth := s.plan(); depth != 0 {
		t.Fatalf("refreshed engines still stale: depth %d", depth)
	}
}

// TestCloseWaitsOutInflightRound checks Close blocks until a refresh
// already in flight finishes, so callers can tear down durable state
// knowing no background solve is still writing.
func TestCloseWaitsOutInflightRound(t *testing.T) {
	clk := testclock.NewFake()
	s := New(Config{Clock: clk, Interval: time.Second})
	clk.BlockUntilTickers(1)

	entered := make(chan struct{})
	release := make(chan struct{})
	f := &fakeTarget{}
	f.gen.Store(1)
	f.refresh = func(ctx context.Context) (hitsndiffs.Result, error) {
		close(entered)
		<-release
		return hitsndiffs.Result{Generation: 1}, nil
	}
	s.Register("f", f)

	clk.Advance(time.Second)
	<-entered

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a refresh was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight refresh finished")
	}
	s.Close() // idempotent
}

// TestFakeClockDrivesRounds is the end-to-end loop test: a stale real
// engine registered with a running scheduler is refreshed when — and only
// when — the fake clock crosses the interval.
func TestFakeClockDrivesRounds(t *testing.T) {
	s, clk := newTestSched(t, Config{Interval: 50 * time.Millisecond})
	eng := testEngine(t, 7, hitsndiffs.WithMaxStaleness(1000))
	s.Register("e", eng)

	if got := s.Metrics().Rounds; got != 0 {
		t.Fatalf("rounds before any tick = %d", got)
	}
	clk.Advance(50 * time.Millisecond)
	waitFor(t, func() bool {
		m := s.Metrics()
		return m.Rounds >= 1 && m.Refreshes >= 1
	})
	res, err := eng.Rank(context.Background())
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if res.Staleness != 0 {
		t.Fatalf("Rank stale by %d after scheduler refresh", res.Staleness)
	}
}

// TestRegisterDeregisterNoteTraffic checks registry edge cases: traffic
// against an unknown name is a no-op, deregistered targets leave the
// plan, and re-registering restarts the watermark.
func TestRegisterDeregisterNoteTraffic(t *testing.T) {
	s, _ := newTestSched(t, Config{})
	s.NoteTraffic("ghost") // must not panic
	f := &fakeTarget{}
	f.gen.Store(2)
	s.Register("f", f)
	if _, depth := s.plan(); depth != 1 {
		t.Fatalf("depth = %d, want 1", depth)
	}
	s.runRound(context.Background())
	if _, depth := s.plan(); depth != 0 {
		t.Fatal("refreshed target still stale")
	}
	s.Register("f", f) // replace: watermark restarts
	if _, depth := s.plan(); depth != 1 {
		t.Fatal("re-registered target not stale again")
	}
	s.Deregister("f")
	s.Deregister("f") // idempotent
	if _, depth := s.plan(); depth != 0 {
		t.Fatal("deregistered target still planned")
	}
	if got := s.Metrics().Targets; got != 0 {
		t.Fatalf("targets = %d, want 0", got)
	}
}

// TestQueueDepthMetric checks QueueDepth reports the full stale backlog
// even when MaxPerRound leaves some of it for later rounds.
func TestQueueDepthMetric(t *testing.T) {
	s, _ := newTestSched(t, Config{MaxPerRound: 1})
	for _, name := range []string{"a", "b", "c"} {
		f := &fakeTarget{}
		f.gen.Store(1)
		s.Register(name, f)
	}
	s.runRound(context.Background())
	m := s.Metrics()
	if m.QueueDepth != 3 {
		t.Fatalf("queue depth = %d, want 3", m.QueueDepth)
	}
	if m.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1 (MaxPerRound)", m.Refreshes)
	}
}

// waitFor polls cond (work runs on the scheduler goroutine after a fake
// clock advance) with a real-time deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
