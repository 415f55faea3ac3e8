package serve_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/serve"
	"hitsndiffs/internal/testclock"
)

// gridObs builds a dense users×items observation grid so a tenant is
// connected and rankable from its first solve.
func gridObs(users, items, options int) []serve.Observation {
	obs := make([]serve.Observation, 0, users*items)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			obs = append(obs, serve.Observation{User: u, Item: i, Option: (u + i) % options})
		}
	}
	return obs
}

// mustRank posts /v1/rank and returns the decoded response.
func mustRank(t *testing.T, c *testClient, tenant string) serve.RankResponse {
	t.Helper()
	var resp serve.RankResponse
	code, body := c.post("/v1/rank", serve.RankRequest{Tenant: tenant}, &resp)
	if code != http.StatusOK {
		t.Fatalf("rank %s: HTTP %d: %s", tenant, code, body)
	}
	return resp
}

// TestRankResponseGoldenJSON pins the wire shape of RankResponse —
// including the generation/staleness tags — so a client decoding today's
// fields keeps decoding tomorrow's bytes.
func TestRankResponseGoldenJSON(t *testing.T) {
	resp := serve.RankResponse{
		Tenant:     "t0",
		Generation: 41,
		Staleness:  2,
		Scores:     []float64{0.5, -0.25, 0.125},
		Iterations: 12,
		Converged:  true,
		Coalesced:  false,
	}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"tenant":"t0","generation":41,"staleness":2,` +
		`"scores":[0.5,-0.25,0.125],"iterations":12,"converged":true,"coalesced":false}`
	if string(got) != want {
		t.Fatalf("RankResponse wire shape changed:\n got %s\nwant %s", got, want)
	}
}

// TestStaleServingEndToEnd drives the full staleness story over HTTP: a
// rank after within-bound writes serves stale (tagged, counted, bound
// respected), the background scheduler — driven by a fake clock —
// refreshes the tenant, and the next rank is exact again with the
// admission watermark advanced by the scheduler rather than a client.
func TestStaleServingEndToEnd(t *testing.T) {
	const bound = 8
	clk := testclock.NewFake()
	srv, c := newTestServer(t, serve.Config{
		MaxStaleness: bound,
		RefreshClock: clk,
		RankOptions:  []hitsndiffs.Option{hitsndiffs.WithSeed(3)},
	})
	clk.BlockUntilTickers(1)
	c.mustCreate("t0", 16, 8, 3)
	c.mustObserve("t0", gridObs(16, 8, 3))

	first := mustRank(t, c, "t0")
	if first.Staleness != 0 || first.Generation != 16*8 {
		t.Fatalf("first rank: generation %d staleness %d, want %d/0", first.Generation, first.Staleness, 16*8)
	}

	c.mustObserve("t0", gridObs(2, 2, 3)) // 4 writes, within the bound
	stale := mustRank(t, c, "t0")
	if stale.Staleness != 4 || stale.Generation != first.Generation {
		t.Fatalf("within-bound rank: generation %d staleness %d, want %d/4",
			stale.Generation, stale.Staleness, first.Generation)
	}

	var snap serve.Snapshot
	if code := c.get("/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if snap.StaleServes == 0 {
		t.Fatalf("stale serve not counted: %+v", snap)
	}
	if snap.Refresh == nil {
		t.Fatal("/metrics missing refresh scheduler stats under a staleness bound")
	}
	servedBefore := tenantSnap(t, c, "t0").Engine.ServedGeneration

	// One fake-clock tick runs a scheduler round that refreshes the tenant
	// and advances the served generation — the admission watermark —
	// without any client rank.
	clk.Advance(25 * time.Millisecond)
	waitForCond(t, func() bool {
		var s serve.Snapshot
		if c.get("/metrics", &s) != http.StatusOK || s.Refresh == nil {
			return false
		}
		return s.Refresh.Refreshes >= 1
	})
	exact := mustRank(t, c, "t0")
	if exact.Staleness != 0 || exact.Generation != first.Generation+4 {
		t.Fatalf("rank after refresh: generation %d staleness %d, want %d/0",
			exact.Generation, exact.Staleness, first.Generation+4)
	}
	if served := tenantSnap(t, c, "t0").Engine.ServedGeneration; served != exact.Generation || served <= servedBefore {
		t.Fatalf("scheduler did not advance the served watermark: %d -> %d", servedBefore, served)
	}
	_ = srv
}

// tenantSnap returns one tenant's /metrics entry.
func tenantSnap(t *testing.T, c *testClient, name string) serve.TenantSnapshot {
	t.Helper()
	var snap serve.Snapshot
	if code := c.get("/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, ts := range snap.Tenants {
		if ts.Name == name {
			return ts
		}
	}
	t.Fatalf("/metrics: tenant %q missing", name)
	return serve.TenantSnapshot{}
}

// waitForCond polls cond with a real-time deadline. The refresh
// scheduler runs its rounds on its own goroutine after a fake-clock
// advance and the only observable surface here is /metrics over HTTP —
// there is no completion channel to select on without threading a
// test-only hook through serve.Config into the scheduler, so a bounded
// poll against the metric the test asserts anyway is the honest tool.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestMetricsRaceFreeUnderRefresh hammers /metrics while writers advance
// tenants and the fake clock drives refresh rounds — the scrape must stay
// consistent (run under -race in CI's race leg).
func TestMetricsRaceFreeUnderRefresh(t *testing.T) {
	clk := testclock.NewFake()
	_, c := newTestServer(t, serve.Config{
		MaxStaleness: 4,
		RefreshClock: clk,
		RankOptions:  []hitsndiffs.Option{hitsndiffs.WithSeed(5)},
	})
	clk.BlockUntilTickers(1)
	for _, name := range []string{"a", "b"} {
		c.mustCreate(name, 12, 6, 3)
		c.mustObserve(name, gridObs(12, 6, 3))
		mustRank(t, c, name)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // writers keep the tenants going stale
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a", "b"}[w]
			for k := 0; k < 40; k++ {
				c.mustObserve(name, []serve.Observation{{User: k % 12, Item: k % 6, Option: k % 3}})
			}
		}(w)
	}
	wg.Add(1)
	go func() { // the clock keeps refresh rounds firing
		defer wg.Done()
		for k := 0; k < 20; k++ {
			clk.Advance(25 * time.Millisecond)
		}
	}()
	for r := 0; r < 3; r++ { // concurrent scrapes and ranks
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				var snap serve.Snapshot
				if code := c.get("/metrics", &snap); code != http.StatusOK {
					t.Errorf("/metrics: HTTP %d", code)
					return
				}
				resp := mustRank(t, c, "a")
				if resp.Staleness > 4 {
					t.Errorf("staleness %d exceeds bound 4", resp.Staleness)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloseWaitsRefreshBeforeWALFlush checks teardown ordering under
// durability: Close must stop the scheduler (waiting out any in-flight
// background refresh) before flushing and closing the WALs, and a
// restarted server must recover the exact pre-close generation.
func TestCloseWaitsRefreshBeforeWALFlush(t *testing.T) {
	dir := t.TempDir()
	clk := testclock.NewFake()
	cfg := serve.Config{
		MaxStaleness: 4,
		RefreshClock: clk,
		DataDir:      dir,
		RankOptions:  []hitsndiffs.Option{hitsndiffs.WithSeed(7)},
	}
	srv, c := newTestServer(t, cfg)
	clk.BlockUntilTickers(1)
	c.mustCreate("t0", 12, 6, 3)
	c.mustObserve("t0", gridObs(12, 6, 3))
	mustRank(t, c, "t0")
	c.mustObserve("t0", gridObs(2, 2, 3)) // stale now
	wantGen := tenantSnap(t, c, "t0").Engine.Generation

	// Kick a refresh round and immediately close: Close must wait the
	// round out, then flush the WAL cleanly.
	clk.Advance(25 * time.Millisecond)
	srv.Close()

	if _, err := os.Stat(filepath.Join(dir, "t0")); err != nil {
		t.Fatalf("tenant dir missing after close: %v", err)
	}
	cfg.RefreshClock = testclock.NewFake()
	srv2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer srv2.Close()
	snap := srv2.Snapshot()
	if len(snap.Tenants) != 1 || snap.Tenants[0].Engine.Generation != wantGen {
		t.Fatalf("recovered generation %d, want %d", snap.Tenants[0].Engine.Generation, wantGen)
	}
	if snap.Refresh == nil {
		t.Fatal("recovered server has no refresh scheduler despite the staleness bound")
	}
}

// TestZeroBoundKeepsInlineBehavior checks MaxStaleness 0 is bit-for-bit
// today's serve tier: no scheduler in /metrics, every rank exact.
func TestZeroBoundKeepsInlineBehavior(t *testing.T) {
	_, c := newTestServer(t, serve.Config{
		RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(9)},
	})
	c.mustCreate("t0", 12, 6, 3)
	c.mustObserve("t0", gridObs(12, 6, 3))
	mustRank(t, c, "t0")
	c.mustObserve("t0", gridObs(2, 2, 3))
	resp := mustRank(t, c, "t0")
	if resp.Staleness != 0 {
		t.Fatalf("rank served stale without a bound: %d", resp.Staleness)
	}
	var snap serve.Snapshot
	if code := c.get("/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if snap.Refresh != nil {
		t.Fatal("scheduler running without a staleness bound")
	}
	if snap.StaleServes != 0 {
		t.Fatalf("stale serves counted without a bound: %d", snap.StaleServes)
	}
}
