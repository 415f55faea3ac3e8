package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
)

// Durability layout under Config.DataDir:
//
//	<data-dir>/<tenant>/manifest.json   tenant geometry + shard count
//	<data-dir>/<tenant>/                WAL + snapshots (one-shard tenant)
//	<data-dir>/<tenant>/shard-<i>/      WAL + snapshots, one dir per shard
//
// Every tenant write is appended to the owning shard's WAL before the
// in-memory matrix mutates (hitsndiffs.WriteHook); a background
// snapshotter checkpoints O(1) copy-on-write views so the WAL never grows
// unboundedly; and New replays the directory at startup, recreating every
// tenant at exactly its durable write generation.

// DefaultSnapshotEvery is the background snapshot cadence (observations
// applied between checkpoints) when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// manifest is the tenant descriptor persisted as manifest.json: the
// creation request plus the resolved shard count, everything recovery
// needs to rebuild the engines before replaying the per-shard logs.
type manifest struct {
	// Name, Users, Items, Options echo the CreateTenantRequest.
	Name string `json:"name"`
	// Users is the tenant's user count.
	Users int `json:"users"`
	// Items is the tenant's item count.
	Items int `json:"items"`
	// Options holds the per-item option counts (len 1 = uniform).
	Options []int `json:"options"`
	// Shards is the resolved engine shard count (the deterministic user
	// partition depends only on it and Users, so recovery rebuilds the
	// exact same per-shard geometry).
	Shards int `json:"shards"`
	// Ring records whether the tenant's users are partitioned by the
	// consistent-hash ring rather than the default modular hash. Persisted
	// so recovery rebuilds the exact same user→shard map regardless of the
	// server's current -ring flag (switching partitions is a re-shard, not
	// a restart).
	Ring bool `json:"ring,omitempty"`
}

// tenantDurability is one tenant's persistence state: one log per shard
// plus the background-snapshot trigger. A shard handoff import swaps a
// slot of logs for the spliced log, so every reader goes through mu.
type tenantDurability struct {
	mu    sync.RWMutex
	logs  []*durable.Log // shard order; len 1 for one-shard tenants
	every uint64         // observations between background snapshots

	since        atomic.Uint64 // observations applied since the last snapshot
	snapshotting atomic.Bool   // one background snapshot in flight at a time
	snapWG       sync.WaitGroup
	snapErrors   atomic.Uint64
	recovery     durable.RecoveryStats // aggregated over shards at startup
}

// log returns one shard's durable log.
func (d *tenantDurability) log(sh int) *durable.Log {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.logs[sh]
}

// setLog swaps one shard's durable log (the handoff import splice).
func (d *tenantDurability) setLog(sh int, l *durable.Log) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logs[sh] = l
}

// validTenantDirName reports whether a tenant name is safe to use as a
// directory name under the data dir.
func validTenantDirName(name string) bool {
	if name == "" || len(name) > 128 || strings.HasPrefix(name, ".") {
		return false
	}
	return !strings.ContainsAny(name, "/\\:\x00")
}

// writeManifest durably publishes a tenant manifest (temp + rename, like
// snapshots: a crash leaves no half-written manifest under the final name).
func writeManifest(dir string, man manifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "manifest.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		return fmt.Errorf("serve: publish manifest: %w", err)
	}
	return nil
}

// readManifest loads a tenant manifest, reporting os.ErrNotExist when the
// directory has none (a crash left it half-created).
func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return manifest{}, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return manifest{}, fmt.Errorf("serve: manifest in %s: %w", dir, err)
	}
	return man, nil
}

// walHook adapts one shard's durable log to the engine write hook.
func walHook(l *durable.Log) hitsndiffs.WriteHook {
	return func(gen uint64, obs []hitsndiffs.Observation) error {
		ops := make([]durable.Op, len(obs))
		for i, o := range obs {
			ops[i] = durable.Op{User: o.User, Item: o.Item, Option: o.Option}
		}
		return l.Append(gen, ops)
	}
}

// shardLogDir returns the log directory of one shard of a tenant; a
// one-shard tenant keeps its files directly in the tenant directory.
func shardLogDir(tenantDir string, shards, sh int) string {
	if shards <= 1 {
		return tenantDir
	}
	return filepath.Join(tenantDir, fmt.Sprintf("shard-%03d", sh))
}

// attachDurability opens (and recovers) the per-shard logs of a tenant,
// restores the recovered matrices into the engines, and installs the
// write hooks — the step that turns a freshly built, empty tenant into a
// durable one resuming at its logged generation.
func (s *Server) attachDurability(t *tenant, man manifest) error {
	dir := filepath.Join(s.cfg.DataDir, t.name)
	every := s.cfg.SnapshotEvery
	if every == 0 {
		every = DefaultSnapshotEvery
	}
	shards := t.eng.Shards()
	dur := &tenantDurability{logs: make([]*durable.Log, shards)}
	if every > 0 {
		dur.every = uint64(every)
	}
	for sh := 0; sh < shards; sh++ {
		geom := durable.Geometry{Users: len(t.eng.UsersOf(sh)), Items: man.Items, Options: man.Options}
		l, rec, rs, err := durable.Open(shardLogDir(dir, shards, sh), geom, s.cfg.Fsync)
		if err != nil {
			dur.close()
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, sh, err)
		}
		dur.logs[sh] = l
		dur.recovery.SnapshotGeneration += rs.SnapshotGeneration
		dur.recovery.SnapshotsSkipped += rs.SnapshotsSkipped
		dur.recovery.ReplayedRecords += rs.ReplayedRecords
		dur.recovery.ReplayedOps += rs.ReplayedOps
		dur.recovery.TruncatedBytes += rs.TruncatedBytes
		dur.recovery.RecoveredGeneration += rs.RecoveredGeneration
		if err := t.eng.RestoreShard(sh, rec); err != nil {
			dur.close()
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, sh, err)
		}
		if err := t.eng.SetShardDurability(sh, walHook(l)); err != nil {
			dur.close()
			return err
		}
	}
	t.dur = dur
	return nil
}

// reserveTenantDir claims the tenant's directory under the data dir,
// using the filesystem as the cross-process creation lock: a directory
// that already carries a manifest means the tenant exists (409); a bare
// directory is debris of a crash mid-create and is reused.
func (s *Server) reserveTenantDir(name string) error {
	if !validTenantDirName(name) {
		return &apiError{http.StatusBadRequest,
			fmt.Sprintf("tenant name %q is not usable as a durable directory name", name)}
	}
	dir := filepath.Join(s.cfg.DataDir, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		if !errors.Is(err, os.ErrExist) {
			return &apiError{http.StatusInternalServerError, err.Error()}
		}
		if _, merr := readManifest(dir); merr == nil {
			return &apiError{http.StatusConflict, fmt.Sprintf("tenant %q already exists", name)}
		}
	}
	return nil
}

// recoverTenants replays the data dir at startup: every subdirectory with
// a manifest becomes a tenant again, its engines restored to the durable
// write generation. Directories without a manifest (crash debris) are
// skipped; a tenant that fails recovery fails startup loudly — a serving
// process must never silently come up with fewer tenants than it
// persisted.
func (s *Server) recoverTenants() error {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("serve: read data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		man, err := readManifest(filepath.Join(s.cfg.DataDir, e.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if man.Name != e.Name() {
			return fmt.Errorf("serve: manifest in %s names tenant %q", e.Name(), man.Name)
		}
		t, err := s.buildTenant(CreateTenantRequest{
			Name: man.Name, Users: man.Users, Items: man.Items, Options: man.Options,
		}, man.Shards, man.Ring)
		if err != nil {
			return fmt.Errorf("serve: recover tenant %q: %w", man.Name, err)
		}
		// Resolve import intents BEFORE the logs open: adopted state whose
		// move never committed must be discarded while it is still only
		// bytes on disk, not recovered, serving state.
		if err := s.resolveImportIntents(t); err != nil {
			return err
		}
		if err := s.attachDurability(t, man); err != nil {
			return err
		}
		// Replay durable handoff intents: committed moves re-fence and
		// redirect, uncommitted exports are retracted before writes resume.
		if err := s.recoverHandoffState(t); err != nil {
			t.dur.close()
			return err
		}
		s.tenants[t.name] = t
		s.registerRefresh(t)
	}
	return nil
}

// noteApplied feeds the background snapshotter: once enough observations
// accumulated since the last checkpoint, one goroutine snapshots every
// shard from an O(1) copy-on-write view — writers never wait for
// serialization, only for the WAL segment rotation at the end.
func (t *tenant) noteApplied(n int) {
	d := t.dur
	if d == nil || d.every == 0 {
		return
	}
	if d.since.Add(uint64(n)) < d.every {
		return
	}
	if !d.snapshotting.CompareAndSwap(false, true) {
		return
	}
	d.since.Store(0)
	d.snapWG.Add(1)
	go func() {
		defer d.snapWG.Done()
		defer d.snapshotting.Store(false)
		t.snapshotNow()
	}()
}

// snapshotNow checkpoints every shard of the tenant from copy-on-write
// views. Failures are counted, not fatal: the WAL still holds every write.
// Each shard's log is re-read under the slot lock so a concurrent handoff
// splice never hands the snapshotter a closed log.
func (t *tenant) snapshotNow() {
	views, _ := t.eng.View()
	for sh, view := range views {
		if err := t.dur.log(sh).WriteSnapshot(view); err != nil {
			t.dur.snapErrors.Add(1)
		}
	}
}

// close flushes and closes the tenant's logs (nil-safe), first waiting
// out any background snapshot in flight so the close never races a
// checkpoint's temp files.
func (d *tenantDurability) close() {
	if d == nil {
		return
	}
	d.snapWG.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.logs {
		if l != nil {
			l.Close()
		}
	}
}

// stats aggregates the per-shard log counters into one tenant view.
func (d *tenantDurability) stats() durable.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var agg durable.Stats
	for _, l := range d.logs {
		st := l.Stats()
		agg.Add(st)
	}
	agg.Recovery = d.recovery
	return agg
}

// TenantDurabilitySnapshot is the durability slice of one tenant's
// /metrics entry, present only when the server runs with a data dir.
type TenantDurabilitySnapshot struct {
	// Fsync names the WAL fsync policy in effect.
	Fsync string `json:"fsync"`
	// SnapshotErrors counts background snapshot attempts that failed (the
	// WAL still holds every write; recovery is unaffected).
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// Stats aggregates the per-shard WAL and snapshot counters; its
	// Recovery field reports what startup recovery found.
	Stats durable.Stats `json:"stats"`
}

// durabilityError maps failures of the write-ahead path to API errors: a
// broken or failpoint-tripped log is a server-side fault (500), never a
// client error.
func durabilityError(err error) error {
	if errors.Is(err, durable.ErrBroken) || errors.Is(err, durable.ErrFailpoint) || errors.Is(err, durable.ErrCorrupt) {
		return &apiError{http.StatusInternalServerError, err.Error()}
	}
	return nil
}
