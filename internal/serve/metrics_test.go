package serve_test

import (
	"net/http"
	"strings"
	"testing"

	"hitsndiffs/internal/refresh"
	"hitsndiffs/internal/serve"
	"hitsndiffs/internal/testclock"
)

// TestMetricsKeysStayPresent pins the /metrics paths that readers decoding
// the document untyped depend on, the servebench module among them: it
// stops with an error on a missing refresh.rounds and waits 5 s per
// expected snapshot on a missing durability.stats.snapshots. A durable
// 4-shard tenant under a staleness bound, after one batch, one rank and
// one refresh round, must report every path below as a JSON number.
func TestMetricsKeysStayPresent(t *testing.T) {
	clk := testclock.NewFake()
	cfg := durableConfig(t.TempDir())
	cfg.Shards = 4
	cfg.MaxStaleness = 8
	cfg.RefreshClock = clk
	_, c := newTestServer(t, cfg)
	clk.BlockUntilTickers(1)
	c.mustCreate("t0", 16, 8, 3)
	c.mustObserve("t0", gridObs(16, 8, 3))
	mustRank(t, c, "t0")
	clk.Advance(refresh.DefaultInterval)
	waitForCond(t, func() bool {
		var s serve.Snapshot
		return c.get("/metrics", &s) == http.StatusOK && s.Refresh != nil && s.Refresh.Rounds >= 1
	})

	var doc map[string]any
	if code := c.get("/metrics", &doc); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	tenants, ok := doc["tenants"].([]any)
	if !ok || len(tenants) != 1 {
		t.Fatalf("/metrics tenants = %v, want one entry", doc["tenants"])
	}
	for _, path := range []string{
		"rank_leaders", "rank_coalesced", "stale_serves", "observations",
		"refresh.rounds", "refresh.refreshes",
	} {
		assertNumber(t, doc, path)
	}
	for _, path := range []string{
		"engine.generation", "engine.cache_hits", "engine.cache_misses",
		"engine.norm_full_rebuilds", "engine.norm_delta_rebuilds",
		"durability.stats.appends", "durability.stats.appended_bytes",
		"durability.stats.fsyncs", "durability.stats.snapshots",
	} {
		assertNumber(t, tenants[0], path)
	}
}

// assertNumber fails unless the dotted path leads to a JSON number in doc.
func assertNumber(t *testing.T, doc any, path string) {
	t.Helper()
	v := doc
	for _, k := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			t.Errorf("/metrics %s: %v is not an object", path, v)
			return
		}
		if v, ok = m[k]; !ok {
			t.Errorf("/metrics %s: key %q missing", path, k)
			return
		}
	}
	if _, ok := v.(float64); !ok {
		t.Errorf("/metrics %s = %v, want a number", path, v)
	}
}
