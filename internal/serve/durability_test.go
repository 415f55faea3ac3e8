package serve_test

import (
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/serve"
)

// durableConfig is the base durable server config the restart tests use:
// fsync on every append, background snapshots off unless a test opts in.
func durableConfig(dir string) serve.Config {
	return serve.Config{
		DataDir:       dir,
		Fsync:         durable.Policy{Mode: durable.FsyncAlways},
		SnapshotEvery: -1,
		RankOptions:   []hitsndiffs.Option{hitsndiffs.WithSeed(11)},
	}
}

// rankScores ranks a tenant over HTTP and returns the scores.
func rankScores(t *testing.T, c *testClient, tenant string) []float64 {
	t.Helper()
	var resp serve.RankResponse
	if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: tenant}, &resp); code != http.StatusOK {
		t.Fatalf("rank %s: HTTP %d: %s", tenant, code, body)
	}
	return resp.Scores
}

// tenantDurabilityOf returns a tenant's durability slice of /metrics.
func tenantDurabilityOf(t *testing.T, c *testClient, name string) *serve.TenantDurabilitySnapshot {
	t.Helper()
	var snap serve.Snapshot
	if code := c.get("/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, ts := range snap.Tenants {
		if ts.Name == name {
			return ts.Durability
		}
	}
	t.Fatalf("/metrics: tenant %q missing", name)
	return nil
}

// durabilityBatch is a small deterministic write batch for a 20x6x3
// tenant, including a retraction.
func durabilityBatch(round int) []serve.Observation {
	obs := []serve.Observation{
		{User: (round * 3) % 20, Item: round % 6, Option: round % 3},
		{User: (round*7 + 1) % 20, Item: (round + 2) % 6, Option: (round + 1) % 3},
		{User: (round*5 + 2) % 20, Item: (round + 4) % 6, Option: (round + 2) % 3},
	}
	if round%5 == 4 {
		obs = append(obs, serve.Observation{User: round % 20, Item: round % 6, Option: hitsndiffs.Unanswered})
	}
	return obs
}

// TestDurableRecoveryAcrossRestart is the serve-layer recovery test: a
// durable server absorbs writes, shuts down, and a fresh process over the
// same data dir must list the tenant, report the pre-shutdown write
// generation in /metrics, and serve bitwise-identical rank scores —
// for an unsharded and a 4-shard deployment.
func TestDurableRecoveryAcrossRestart(t *testing.T) {
	for _, shards := range []int{1, 4} {
		name := map[int]string{1: "plain", 4: "sharded"}[shards]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.Shards = shards

			srv1, c := newTestServer(t, cfg)
			c.mustCreate("golden", 20, 6, 3)
			applied := 0
			for round := 0; round < 10; round++ {
				batch := durabilityBatch(round)
				c.mustObserve("golden", batch)
				applied += len(batch)
			}
			want := rankScores(t, c, "golden")
			dur := tenantDurabilityOf(t, c, "golden")
			if dur == nil {
				t.Fatal("durable tenant reports no durability metrics")
			}
			if dur.Stats.Generation != uint64(applied) {
				t.Fatalf("generation %d after %d observations", dur.Stats.Generation, applied)
			}
			if dur.Fsync != "always" {
				t.Fatalf("fsync policy %q, want always", dur.Fsync)
			}

			// Restart: release the first process's logs, then bring up a
			// second server over the same data dir.
			srv1.Close()
			_, c2 := newTestServer(t, cfg)
			var list serve.ListTenantsResponse
			if code := c2.get("/v1/tenants", &list); code != http.StatusOK || len(list.Tenants) != 1 || list.Tenants[0].Name != "golden" {
				t.Fatalf("tenants after restart: %d %+v", code, list)
			}
			dur2 := tenantDurabilityOf(t, c2, "golden")
			if dur2.Stats.Recovery.RecoveredGeneration != uint64(applied) {
				t.Fatalf("recovered generation %d, want %d", dur2.Stats.Recovery.RecoveredGeneration, applied)
			}
			got := rankScores(t, c2, "golden")
			if len(got) != len(want) {
				t.Fatalf("recovered scores length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("recovered score %d differs: %v vs %v", i, got[i], want[i])
				}
			}

			// The recovered tenant keeps absorbing writes at the durable
			// generation — continuity across the restart.
			c2.mustObserve("golden", durabilityBatch(10))
			dur2 = tenantDurabilityOf(t, c2, "golden")
			if wantGen := uint64(applied + len(durabilityBatch(10))); dur2.Stats.Generation != wantGen {
				t.Fatalf("generation %d after post-restart write, want %d", dur2.Stats.Generation, wantGen)
			}

			// Re-creating the recovered tenant conflicts, like any duplicate.
			if code, _ := c2.post("/v1/tenants", serve.CreateTenantRequest{Name: "golden", Users: 20, Items: 6, Options: []int{3}}, nil); code != http.StatusConflict {
				t.Fatalf("re-create recovered tenant: HTTP %d, want 409", code)
			}
		})
	}
}

// TestDurableBackgroundSnapshot drives enough writes through a tenant to
// trip the background snapshotter and waits for the checkpoint to land.
func TestDurableBackgroundSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 8
	srv, c := newTestServer(t, cfg)
	c.mustCreate("snappy", 20, 6, 3)
	for round := 0; round < 10; round++ {
		c.mustObserve("snappy", durabilityBatch(round))
	}
	// Open wrote the first checkpoint; the write volume above crossed the
	// cadence, so at least one background snapshot was launched before the
	// last observe returned — join it and assert, no polling.
	srv.WaitBackgroundSnapshots("snappy")
	dur := tenantDurabilityOf(t, c, "snappy")
	if dur.Stats.Snapshots < 2 || dur.Stats.SnapshotGeneration == 0 {
		t.Fatalf("background snapshot never landed: %+v", dur.Stats)
	}
	if dur.SnapshotErrors != 0 {
		t.Fatalf("background snapshotter reported %d errors", dur.SnapshotErrors)
	}
}

// TestDurableRejectsBadTenantDirNames pins that names unusable as
// directory names are refused in durable mode instead of escaping the
// data dir.
func TestDurableRejectsBadTenantDirNames(t *testing.T) {
	_, c := newTestServer(t, durableConfig(t.TempDir()))
	for _, name := range []string{"../escape", "a/b", ".hidden", "nul\x00byte"} {
		code, _ := c.post("/v1/tenants", serve.CreateTenantRequest{Name: name, Users: 4, Items: 2, Options: []int{2}}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("create %q: HTTP %d, want 400", name, code)
		}
	}
}

// TestDurableCrashDebrisIsReused simulates a crash between directory
// creation and manifest publication: the half-created directory must not
// block re-creating the tenant.
func TestDurableCrashDebrisIsReused(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "phoenix"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, durableConfig(dir))
	c.mustCreate("phoenix", 10, 3, 3)
	c.mustObserve("phoenix", []serve.Observation{{User: 0, Item: 0, Option: 1}})
	if dur := tenantDurabilityOf(t, c, "phoenix"); dur.Stats.Generation != 1 {
		t.Fatalf("generation %d, want 1", dur.Stats.Generation)
	}
}

// TestCreateTenantRejectsOversizedGeometry covers geometries past the
// matrix bound (2^32 cells or option columns): users×items that wraps a
// 64-bit int to zero, a product that fits in an int but not the bound, and
// an option count past it. Each create must answer 400 before reserving a
// data directory or building an engine, so no tenant exists afterwards and
// an observe to it is a 404, not a panic.
func TestCreateTenantRejectsOversizedGeometry(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, durableConfig(dir))
	for _, req := range []serve.CreateTenantRequest{
		{Name: "wraps", Users: 1 << 62, Items: 4, Options: []int{2}},
		{Name: "too-many-cells", Users: 1 << 31, Items: 4, Options: []int{2}},
		{Name: "too-many-options", Users: 4, Items: 1, Options: []int{1 << 40}},
		{Name: "option-sum", Users: 4, Items: 2, Options: []int{1 << 31, 1<<31 + 1}},
	} {
		if code, body := c.post("/v1/tenants", req, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d (%s), want 400", req.Name, code, body)
		}
		if _, err := os.Stat(filepath.Join(dir, req.Name)); !os.IsNotExist(err) {
			t.Fatalf("%s: rejected create left a data directory (stat: %v)", req.Name, err)
		}
		obs := serve.ObserveRequest{Tenant: req.Name, User: 0, Item: 0, Option: 0}
		if code, body := c.post("/v1/observe", obs, nil); code != http.StatusNotFound {
			t.Fatalf("%s: observe after rejected create: HTTP %d (%s), want 404", req.Name, code, body)
		}
	}
	var list serve.ListTenantsResponse
	if code := c.get("/v1/tenants", &list); code != http.StatusOK || len(list.Tenants) != 0 {
		t.Fatalf("tenant list after rejected creates: HTTP %d, %d tenants", code, len(list.Tenants))
	}
}
