package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"testing"

	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/handoff"
	"hitsndiffs/internal/serve"
)

// postHandoff drives one POST /v1/admin/handoff step.
func postHandoff(t *testing.T, c *testClient, req serve.HandoffRequest) (serve.HandoffResponse, int, string) {
	t.Helper()
	var resp serve.HandoffResponse
	code, body := c.post("/v1/admin/handoff", req, &resp)
	return resp, code, body
}

// partitionOf fetches one tenant's shard-ownership map.
func partitionOf(t *testing.T, c *testClient, tenant string) serve.PartitionResponse {
	t.Helper()
	var resp serve.PartitionResponse
	if code, body := c.post("/v1/admin/partition", serve.PartitionRequest{Tenant: tenant}, &resp); code != http.StatusOK {
		t.Fatalf("partition: HTTP %d: %s", code, body)
	}
	return resp
}

// rawObserve posts one observation without following redirects, returning
// the raw status and Location header — the view a redirect-aware client
// sees when its write hits a migrated shard.
func rawObserve(t *testing.T, base, tenant string, user int) (int, string) {
	t.Helper()
	buf, err := json.Marshal(serve.ObserveRequest{Tenant: tenant, User: user, Item: 0, Option: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(base+"/v1/observe", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Location")
}

// rawObserveBatch posts one batch (item 0, option 1 per user) without
// following redirects — the raw 429/307/409 the serving tier answers a
// multi-shard batch with.
func rawObserveBatch(t *testing.T, base, tenant string, users []int) (int, string) {
	t.Helper()
	obs := make([]serve.Observation, len(users))
	for i, u := range users {
		obs[i] = serve.Observation{User: u, Item: 0, Option: 1}
	}
	buf, err := json.Marshal(serve.ObserveBatchRequest{Tenant: tenant, Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(base+"/v1/observebatch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Location")
}

// requireGenerationsUnchanged asserts no shard of the tenant advanced
// between two partition snapshots — the "nothing applied" half of a
// rejected batch's contract.
func requireGenerationsUnchanged(t *testing.T, before, after serve.PartitionResponse) {
	t.Helper()
	for sh := range after.Partition {
		if after.Partition[sh].Generation != before.Partition[sh].Generation {
			t.Fatalf("shard %d advanced from generation %d to %d under a rejected batch",
				sh, before.Partition[sh].Generation, after.Partition[sh].Generation)
		}
	}
}

// TestServeShardHandoff is the serving-tier half of the handoff proof:
// two durable servers share a bundle directory; the source exports one
// shard (its writes 429 with Retry-After while fenced), the target
// imports and commits, the source then redirects that shard's writes
// with 307 + Location, and a source restart recovers the committed move
// from its durable intent — while an uncommitted export is retracted on
// restart and its shard serves again.
func TestServeShardHandoff(t *testing.T) {
	const tenant = "mig"
	const victim = 1
	dirA, dirB := t.TempDir(), t.TempDir()
	bundle := filepath.Join(t.TempDir(), "bundle")

	cfgA := durableConfig(dirA)
	cfgA.Shards = 4
	cfgB := durableConfig(dirB)
	cfgB.Shards = 4
	srvA, ca := newTestServer(t, cfgA)
	_, cb := newTestServer(t, cfgB)
	ca.mustCreate(tenant, 20, 6, 3)
	cb.mustCreate(tenant, 20, 6, 3)
	for round := 0; round < 10; round++ {
		ca.mustObserve(tenant, durabilityBatch(round))
	}

	// Export: the source snapshots, fences, publishes the bundle, and
	// records a durable intent.
	exp, code, body := postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "export", BundleDir: bundle, Target: cb.base,
	})
	if code != http.StatusOK {
		t.Fatalf("export: HTTP %d: %s", code, body)
	}
	if exp.Phase != "exported" || exp.FencedGeneration == 0 {
		t.Fatalf("export response %+v", exp)
	}
	if _, code, _ := postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "export", BundleDir: bundle,
	}); code != http.StatusConflict {
		t.Fatalf("second export of a fenced shard: HTTP %d, want 409", code)
	}
	// The durable intent is down before the bundle is importable, so a
	// crash from here on can never orphan a published bundle.
	if intents, err := handoff.ListIntents(filepath.Join(dirA, tenant)); err != nil || len(intents) != 1 || intents[0].Shard != victim {
		t.Fatalf("export intents on disk: %+v, %v", intents, err)
	}

	// While fenced, exactly the victim shard's writes bounce with 429 +
	// Retry-After; every other user's write lands. The probe also learns
	// the victim's user set without assuming the partition shape.
	part := partitionOf(t, ca, tenant)
	if !part.Partition[victim].Fenced || part.Partition[victim].MovedTo != "" {
		t.Fatalf("partition during fence: %+v", part.Partition[victim])
	}
	fencedUsers := map[int]bool{}
	for user := 0; user < 20; user++ {
		code, loc := rawObserve(t, ca.base, tenant, user)
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			fencedUsers[user] = true
			_ = loc
		default:
			t.Fatalf("observe user %d during fence: HTTP %d", user, code)
		}
	}
	if len(fencedUsers) != part.Partition[victim].Users {
		t.Fatalf("%d users fenced, victim shard owns %d", len(fencedUsers), part.Partition[victim].Users)
	}

	// A batch straddling the fenced shard and a free one bounces whole
	// with 429 and applies nowhere — otherwise the client's retry would
	// double-apply the free half.
	var aFenced, aFree int
	for user := 0; user < 20; user++ {
		if fencedUsers[user] {
			aFenced = user
		} else {
			aFree = user
		}
	}
	genBefore := partitionOf(t, ca, tenant)
	if code, _ := rawObserveBatch(t, ca.base, tenant, []int{aFenced, aFree}); code != http.StatusTooManyRequests {
		t.Fatalf("mixed batch during fence: HTTP %d, want 429", code)
	}
	requireGenerationsUnchanged(t, genBefore, partitionOf(t, ca, tenant))

	// Import on the target: validate, adopt, commit.
	imp, code, body := postHandoff(t, cb, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "import", BundleDir: bundle, Owner: cb.base,
	})
	if code != http.StatusOK {
		t.Fatalf("import: HTTP %d: %s", code, body)
	}
	if !imp.Committed || imp.Owner != cb.base || imp.FencedGeneration != exp.FencedGeneration {
		t.Fatalf("import response %+v (export %+v)", imp, exp)
	}
	partB := partitionOf(t, cb, tenant)
	if got := partB.Partition[victim].Generation; got != exp.FencedGeneration {
		t.Fatalf("target shard at generation %d, fenced frontier %d", got, exp.FencedGeneration)
	}
	// A second import cannot commit a different owner over the record.
	if _, code, _ := postHandoff(t, cb, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "import", BundleDir: bundle, Owner: "someone-else",
	}); code == http.StatusOK {
		t.Fatal("import committed a second owner over an owned bundle")
	}

	// The source now redirects the moved shard's writes: 307 preserving
	// method and body, Location pointing at the new owner.
	var movedUser int
	for u := range fencedUsers {
		movedUser = u
		break
	}
	code, loc := rawObserve(t, ca.base, tenant, movedUser)
	if code != http.StatusTemporaryRedirect || loc != cb.base+"/v1/observe" {
		t.Fatalf("observe moved user: HTTP %d Location %q, want 307 to %s/v1/observe", code, loc, cb.base)
	}
	// A default client follows the 307 transparently and the write lands
	// on the new owner.
	ca.mustObserve(tenant, []serve.Observation{{User: movedUser, Item: 1, Option: 2}})
	if got := partitionOf(t, cb, tenant).Partition[victim].Generation; got != exp.FencedGeneration+1 {
		t.Fatalf("redirected write reached generation %d, want %d", got, exp.FencedGeneration+1)
	}
	part = partitionOf(t, ca, tenant)
	if part.Partition[victim].MovedTo != cb.base {
		t.Fatalf("source partition after commit: %+v", part.Partition[victim])
	}

	// Batches after the commit: entirely on the moved shard → redirected
	// whole; straddling the moved shard and a local one → 409 (applying
	// it here would lose the moved half, redirecting it whole would fork
	// the local half on a server that does not own it), nothing applied.
	if code, loc := rawObserveBatch(t, ca.base, tenant, []int{movedUser, movedUser}); code != http.StatusTemporaryRedirect || loc != cb.base+"/v1/observebatch" {
		t.Fatalf("all-moved batch: HTTP %d Location %q, want 307 to %s/v1/observebatch", code, loc, cb.base)
	}
	genBefore = partitionOf(t, ca, tenant)
	if code, _ := rawObserveBatch(t, ca.base, tenant, []int{movedUser, aFree}); code != http.StatusConflict {
		t.Fatalf("mixed moved/local batch: HTTP %d, want 409", code)
	}
	requireGenerationsUnchanged(t, genBefore, partitionOf(t, ca, tenant))

	// Status resolves the committed owner; abort after commit refuses.
	st, code, _ := postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "status", BundleDir: bundle,
	})
	if code != http.StatusOK || !st.Committed || st.Owner != cb.base {
		t.Fatalf("status: HTTP %d %+v", code, st)
	}
	if _, code, _ = postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "abort", BundleDir: bundle,
	}); code != http.StatusConflict {
		t.Fatalf("abort after commit: HTTP %d, want 409", code)
	}

	// Second export (another shard) stays uncommitted: its restart path
	// must retract, not redirect.
	bundle2 := filepath.Join(t.TempDir(), "bundle2")
	const orphan = 3
	if _, code, body := postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: orphan, Action: "export", BundleDir: bundle2, Target: cb.base,
	}); code != http.StatusOK {
		t.Fatalf("second export: HTTP %d: %s", code, body)
	}

	// Restart the source over the same data dir: the committed move is
	// recovered from its intent (fenced + redirecting), the uncommitted
	// one is retracted (bundle withdrawn, shard serving).
	srvA.Close()
	srvA2, ca2 := newTestServer(t, cfgA)
	defer srvA2.Close()
	part = partitionOf(t, ca2, tenant)
	if !part.Partition[victim].Fenced || part.Partition[victim].MovedTo != cb.base {
		t.Fatalf("restart lost the committed move: %+v", part.Partition[victim])
	}
	if part.Partition[orphan].Fenced {
		t.Fatalf("restart left the uncommitted export fenced: %+v", part.Partition[orphan])
	}
	if _, err := handoff.ReadManifest(bundle2); !errors.Is(err, handoff.ErrNoBundle) {
		t.Fatalf("uncommitted bundle after restart: %v, want ErrNoBundle", err)
	}
	code, loc = rawObserve(t, ca2.base, tenant, movedUser)
	if code != http.StatusTemporaryRedirect || loc != cb.base+"/v1/observe" {
		t.Fatalf("moved user after restart: HTTP %d Location %q", code, loc)
	}
	for user := 0; user < 20; user++ {
		if fencedUsers[user] {
			continue
		}
		if code, _ := rawObserve(t, ca2.base, tenant, user); code != http.StatusOK {
			t.Fatalf("unmoved user %d after restart: HTTP %d", user, code)
		}
	}

	// A shard that moved away can never be exported again: the new
	// export would overwrite the committed move's intent and the next
	// restart would unfence a shard another server owns.
	if _, code, _ := postHandoff(t, ca2, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "export",
		BundleDir: filepath.Join(t.TempDir(), "again"), Target: cb.base,
	}); code != http.StatusConflict {
		t.Fatalf("re-export of a moved shard: HTTP %d, want 409", code)
	}
}

// TestServeOneShardHandoff moves a whole one-shard tenant, as its shard
// 0, between two durable servers over HTTP: the target commits at the
// fenced generation and serves bitwise the rank the source served before
// the fence, and the source redirects the next write to the target.
func TestServeOneShardHandoff(t *testing.T) {
	const tenant = "solo"
	bundle := filepath.Join(t.TempDir(), "bundle")
	_, ca := newTestServer(t, durableConfig(t.TempDir()))
	_, cb := newTestServer(t, durableConfig(t.TempDir()))
	ca.mustCreate(tenant, 20, 6, 3)
	cb.mustCreate(tenant, 20, 6, 3)
	for round := 0; round < 10; round++ {
		ca.mustObserve(tenant, durabilityBatch(round))
	}
	want := rankScores(t, ca, tenant)

	exp, code, body := postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: 0, Action: "export", BundleDir: bundle, Target: cb.base,
	})
	if code != http.StatusOK {
		t.Fatalf("export: HTTP %d: %s", code, body)
	}
	if _, code, body := postHandoff(t, cb, serve.HandoffRequest{
		Tenant: tenant, Shard: 0, Action: "import", BundleDir: bundle, Owner: cb.base,
	}); code != http.StatusOK {
		t.Fatalf("import: HTTP %d: %s", code, body)
	}
	if got := partitionOf(t, cb, tenant).Partition[0].Generation; got != exp.FencedGeneration {
		t.Fatalf("target at generation %d, fenced frontier %d", got, exp.FencedGeneration)
	}
	got := rankScores(t, cb, tenant)
	if len(got) != len(want) {
		t.Fatalf("target ranks %d users, source %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("target score[%d] = %v, source before the fence %v", i, got[i], want[i])
		}
	}
	if code, loc := rawObserve(t, ca.base, tenant, 0); code != http.StatusTemporaryRedirect || loc != cb.base+"/v1/observe" {
		t.Fatalf("source write after commit: HTTP %d Location %q, want 307 to %s/v1/observe", code, loc, cb.base)
	}
}

// TestServeHandoffImportCrashRecovery proves the target side of the
// crash contract. A target can crash after the adopted state became
// durable (the splice) but before the owner record published — the
// uncommitted window the import intent exists for. On restart that
// state must be discarded BEFORE the logs open, or the target would
// recover it as authoritative while the source retracts the bundle and
// resumes writes: two owners. The committed flavor — owner record down,
// intent left behind — must instead keep the adopted state.
func TestServeHandoffImportCrashRecovery(t *testing.T) {
	const tenant = "crash"
	const victim = 1
	dirA, dirB := t.TempDir(), t.TempDir()
	bundle := filepath.Join(t.TempDir(), "bundle")
	cfgA := durableConfig(dirA)
	cfgA.Shards = 4
	cfgB := durableConfig(dirB)
	cfgB.Shards = 4
	_, ca := newTestServer(t, cfgA)
	srvB, cb := newTestServer(t, cfgB)
	ca.mustCreate(tenant, 20, 6, 3)
	cb.mustCreate(tenant, 20, 6, 3)
	for round := 0; round < 10; round++ {
		ca.mustObserve(tenant, durabilityBatch(round))
	}
	exp, code, body := postHandoff(t, ca, serve.HandoffRequest{
		Tenant: tenant, Shard: victim, Action: "export", BundleDir: bundle, Target: cb.base,
	})
	if code != http.StatusOK {
		t.Fatalf("export: HTTP %d: %s", code, body)
	}

	// Reconstruct what handoffImport leaves on disk when the process
	// dies between the splice and the commit: import intent and adopted
	// snapshot durable, owner record absent.
	srvB.Close()
	m, man, err := handoff.Import(bundle)
	if err != nil {
		t.Fatal(err)
	}
	tenantDirB := filepath.Join(dirB, tenant)
	shardDir := filepath.Join(tenantDirB, fmt.Sprintf("shard-%03d", victim))
	in := handoff.Intent{Shard: victim, BundleDir: bundle, Target: cb.base}
	if err := handoff.WriteImportIntent(tenantDirB, in); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.WriteSnapshotInto(shardDir, m); err != nil {
		t.Fatal(err)
	}

	// Restart: the move never committed, so the adopted state must not
	// recover — the shard is empty again and the intent is resolved away.
	srvB2, cb2 := newTestServer(t, cfgB)
	if got := partitionOf(t, cb2, tenant).Partition[victim].Generation; got != 0 {
		t.Fatalf("uncommitted adopted state recovered at generation %d, want 0", got)
	}
	if left, err := handoff.ListImportIntents(tenantDirB); err != nil || len(left) != 0 {
		t.Fatalf("import intents after uncommitted restart: %+v, %v", left, err)
	}

	// Same crash with the owner record published: the move committed, so
	// the adopted state IS the shard and must survive the restart even
	// though the intent was never tidied.
	srvB2.Close()
	if err := handoff.WriteImportIntent(tenantDirB, in); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.WriteSnapshotInto(shardDir, m); err != nil {
		t.Fatal(err)
	}
	if err := handoff.Commit(bundle, cb.base, man.FencedGeneration); err != nil {
		t.Fatal(err)
	}
	_, cb3 := newTestServer(t, cfgB)
	row := partitionOf(t, cb3, tenant).Partition[victim]
	if row.Generation != exp.FencedGeneration || row.Fenced {
		t.Fatalf("committed adopted state after restart: %+v, want generation %d unfenced", row, exp.FencedGeneration)
	}
	if left, err := handoff.ListImportIntents(tenantDirB); err != nil || len(left) != 0 {
		t.Fatalf("import intents after committed restart: %+v, %v", left, err)
	}
}

// TestServeHandoffValidation pins the admin endpoint's error contract.
func TestServeHandoffValidation(t *testing.T) {
	// A memory-only server cannot hand shards off.
	_, c := newTestServer(t, serve.Config{Shards: 2})
	c.mustCreate("m", 8, 3, 3)
	if _, code, _ := postHandoff(t, c, serve.HandoffRequest{
		Tenant: "m", Shard: 0, Action: "export", BundleDir: t.TempDir(),
	}); code != http.StatusUnprocessableEntity {
		t.Fatalf("export on memory-only server: HTTP %d, want 422", code)
	}

	_, cd := newTestServer(t, durableConfig(t.TempDir()))
	cd.mustCreate("d", 8, 3, 3)
	cases := []struct {
		name string
		req  serve.HandoffRequest
		want int
	}{
		{"unknown tenant", serve.HandoffRequest{Tenant: "nope", Action: "export", BundleDir: "x"}, http.StatusNotFound},
		{"bad shard", serve.HandoffRequest{Tenant: "d", Shard: 7, Action: "export", BundleDir: "x"}, http.StatusBadRequest},
		{"empty bundle dir", serve.HandoffRequest{Tenant: "d", Action: "export"}, http.StatusBadRequest},
		{"unknown action", serve.HandoffRequest{Tenant: "d", Action: "replicate", BundleDir: "x"}, http.StatusBadRequest},
		{"import without owner", serve.HandoffRequest{Tenant: "d", Action: "import", BundleDir: "x"}, http.StatusBadRequest},
		{"abort with nothing in flight", serve.HandoffRequest{Tenant: "d", Action: "abort", BundleDir: "x"}, http.StatusNotFound},
		{"import of an unpublished bundle", serve.HandoffRequest{Tenant: "d", Action: "import", BundleDir: t.TempDir(), Owner: "me"}, http.StatusConflict},
	}
	for _, tc := range cases {
		if _, code, body := postHandoff(t, cd, tc.req); code != tc.want {
			t.Fatalf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.want, body)
		}
	}
}
