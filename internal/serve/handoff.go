package serve

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/handoff"
)

// Shard handoff at the serving tier: POST /v1/admin/handoff drives the
// internal/handoff protocol across two servers sharing the bundle
// directory. The source records a durable intent in its tenant
// directory after the prepare snapshot and BEFORE fencing — so the
// bundle manifest can only publish with an intent already vouching for
// it — then exports (fence + final tail + publish). The target records
// a durable import intent BEFORE splicing adopted state into its data
// dir, commits the owner record, and only then unfences and drops the
// intent. Until the move commits, writes hitting the fenced shard get
// 429 + Retry-After; once the owner record is published they get 307
// redirects to the new owner. A restart replays both kinds of intent:
// on the source, committed moves stay fenced and redirecting while
// uncommitted exports are retracted before writes resume; on the
// target, adopted state whose move never committed is discarded before
// the shard's log opens — the same exactly-one-authoritative-owner rule
// the handoff package's crash matrix proves at the file level.

// ownership is one tenant's shard-migration state. The zero value means
// no shard is moving; maps are allocated lazily under mu.
type ownership struct {
	mu sync.Mutex
	// exports holds in-flight exports by shard (this process is the
	// source and the fence is up).
	exports map[int]*handoff.Handoff
	// intents mirrors the durable intent records by shard.
	intents map[int]handoff.Intent
	// moved records shards whose move has committed: shard → new owner.
	moved map[int]string
	// resolving marks shards with an owner-record resolution in flight,
	// so the hot write path never stacks disk reads behind mu.
	resolving map[int]bool
}

// noteExport records an in-flight export and its durable intent.
func (o *ownership) noteExport(sh int, h *handoff.Handoff, in handoff.Intent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.exports == nil {
		o.exports = make(map[int]*handoff.Handoff)
		o.intents = make(map[int]handoff.Intent)
	}
	o.exports[sh] = h
	o.intents[sh] = in
}

// noteMoved records a committed migration of one shard.
func (o *ownership) noteMoved(sh int, owner string, in handoff.Intent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.moved == nil {
		o.moved = make(map[int]string)
	}
	o.moved[sh] = owner
	if o.intents == nil {
		o.intents = make(map[int]handoff.Intent)
	}
	o.intents[sh] = in
}

// clear drops a shard's export state after an abort.
func (o *ownership) clear(sh int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.exports, sh)
	delete(o.intents, sh)
}

// export returns the in-flight export for a shard, if any.
func (o *ownership) export(sh int) (*handoff.Handoff, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.exports[sh]
	return h, ok
}

// movedTo reports the committed new owner of a shard, if the move has
// been observed. With the shard still pending (fenced, uncommitted) it
// resolves the bundle's owner record — the commit may have landed from
// the other process since the last write — and caches a commit it
// finds. The disk read runs OUTSIDE mu with a single-flight guard:
// every fenced write consults this on its 429 path, and serializing
// owner-record reads under the mutex would turn the fence window into a
// per-request disk stall. Callers racing an in-flight resolution see
// "not moved" and answer 429; the client retries and finds the cached
// commit.
func (o *ownership) movedTo(sh int) (string, bool) {
	o.mu.Lock()
	if owner, ok := o.moved[sh]; ok {
		o.mu.Unlock()
		return owner, true
	}
	in, ok := o.intents[sh]
	if !ok || o.resolving[sh] {
		o.mu.Unlock()
		return "", false
	}
	if o.resolving == nil {
		o.resolving = make(map[int]bool)
	}
	o.resolving[sh] = true
	o.mu.Unlock()

	owner, committed, err := handoff.Resolve(in.BundleDir)

	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.resolving, sh)
	if err != nil || !committed {
		return "", false
	}
	if o.moved == nil {
		o.moved = make(map[int]string)
	}
	o.moved[sh] = owner
	return owner, true
}

// redirectError reports a write routed to a shard that has migrated away;
// the HTTP layer renders it as 307 with the new owner in Location.
type redirectError struct {
	location string
}

// Error implements error.
func (e *redirectError) Error() string {
	return fmt.Sprintf("shard has moved; retry at %s", e.location)
}

// fencedError maps an ErrFenced write rejection to its client-facing
// form. Nothing from the batch has been applied (the router verifies
// every touched shard's fence before dispatching any sub-batch), so the
// whole batch gets one verdict: 429 + Retry-After while any touched
// fence is still pending (the client retries here until the commit or
// abort settles it); 307 to the new owner once EVERY touched shard has
// moved to that one owner; and 409 for a batch straddling a moved shard
// and shards served elsewhere — redirecting it whole would land the
// non-moved observations on shards the new owner does not own (forking
// them), and applying it here would lose the moved half, so the client
// must split the batch by owner.
func (s *Server) fencedError(t *tenant, path string, obs []hitsndiffs.Observation) error {
	owners := make(map[string]bool)
	local := 0   // touched shards this server still serves
	pending := 0 // touched shards fenced with the move not yet committed
	for sh, hit := range t.shardsTouched(obs) {
		if !hit {
			continue
		}
		if !t.eng.ShardFenced(sh) {
			local++
			continue
		}
		if owner, ok := t.own.movedTo(sh); ok {
			owners[owner] = true
			continue
		}
		pending++
	}
	if pending > 0 || len(owners) == 0 {
		// Still migrating (or the fence settled between the reject and
		// this classification): retrying here resolves either way.
		s.ctr.fencedWrites.Add(1)
		return &apiError{http.StatusTooManyRequests, "shard is fenced for migration; retry shortly"}
	}
	if local == 0 && len(owners) == 1 {
		for owner := range owners {
			s.ctr.redirectedWrites.Add(1)
			return &redirectError{location: owner + path}
		}
	}
	return &apiError{http.StatusConflict,
		"batch spans shards owned by different servers; split it by shard owner and retry each part"}
}

// shardsTouched marks, per shard, whether the batch routes an
// observation to it. Only a one-shard engine checks its fence before
// validating, so an out-of-range user reaches here only there, where
// shard 0 is the shard that refused it.
func (t *tenant) shardsTouched(obs []hitsndiffs.Observation) []bool {
	touched := make([]bool, t.eng.Shards())
	for _, o := range obs {
		sh := 0
		if o.User >= 0 && o.User < t.eng.Users() {
			sh = t.eng.ShardFor(o.User)
		}
		touched[sh] = true
	}
	return touched
}

// adminHandoffTenant resolves and validates the tenant/shard named by an
// admin handoff request.
func (s *Server) adminHandoffTenant(req HandoffRequest) (*tenant, error) {
	t, err := s.lookup(req.Tenant)
	if err != nil {
		return nil, err
	}
	if t.dur == nil {
		return nil, &apiError{http.StatusUnprocessableEntity,
			"shard handoff requires a durable server (start with -data-dir)"}
	}
	if req.Shard < 0 || req.Shard >= t.eng.Shards() {
		return nil, &apiError{http.StatusBadRequest,
			fmt.Sprintf("shard %d out of range [0,%d)", req.Shard, t.eng.Shards())}
	}
	if req.BundleDir == "" {
		return nil, &apiError{http.StatusBadRequest, "bundle_dir must be non-empty"}
	}
	return t, nil
}

// handleAdminHandoff is POST /v1/admin/handoff.
func (s *Server) handleAdminHandoff(w http.ResponseWriter, r *http.Request) {
	var req HandoffRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	var resp HandoffResponse
	var err error
	switch req.Action {
	case "export":
		resp, err = s.handoffExport(req)
	case "import":
		resp, err = s.handoffImport(req)
	case "abort":
		resp, err = s.handoffAbort(req)
	case "status":
		resp, err = s.handoffStatus(req)
	default:
		err = &apiError{http.StatusBadRequest,
			fmt.Sprintf("unknown handoff action %q (want export, import, abort, or status)", req.Action)}
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handoffExport runs the source side: prepare (snapshot off a COW
// view), then the durable intent record, then fence (final WAL tail +
// manifest publish). The intent lands BEFORE the fence — and therefore
// strictly before the manifest can publish — so a crash at any byte
// leaves either an intent with no published bundle (retracted debris on
// restart) or a published bundle with an intent vouching for it; there
// is no window where an importable bundle exists that a restarted
// source would not find, so the source can never resume writes while a
// stale bundle remains committable. On success the shard stays fenced —
// its writes 429 until the target commits (redirects begin) or an abort
// resumes them.
func (s *Server) handoffExport(req HandoffRequest) (HandoffResponse, error) {
	t, err := s.adminHandoffTenant(req)
	if err != nil {
		return HandoffResponse{}, err
	}
	if owner, ok := t.own.movedTo(req.Shard); ok {
		// Covers the restart case too (committed move, no exports entry):
		// re-exporting a shard owned elsewhere would overwrite the
		// committed move's intent and, after the next restart, unfence a
		// shard another server serves — split brain.
		return HandoffResponse{}, &apiError{http.StatusConflict,
			fmt.Sprintf("shard %d has already moved to %s", req.Shard, owner)}
	}
	if _, busy := t.own.export(req.Shard); busy {
		return HandoffResponse{}, &apiError{http.StatusConflict,
			fmt.Sprintf("shard %d already has a handoff in flight", req.Shard)}
	}
	h := handoff.New(req.BundleDir, t.name, req.Shard, handoff.ShardSource{Engine: t.eng, Shard: req.Shard, Log: t.dur.log(req.Shard)})
	if err := h.Prepare(); err != nil {
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	in := handoff.Intent{Shard: req.Shard, BundleDir: req.BundleDir, Target: req.Target}
	if err := handoff.WriteIntent(filepath.Join(s.cfg.DataDir, t.name), in); err != nil {
		// No fence is up and no manifest published; the prepared snapshot
		// is debris Abort clears.
		if aerr := h.Abort(); aerr != nil {
			return HandoffResponse{}, &apiError{http.StatusInternalServerError,
				fmt.Sprintf("%v (and cleanup failed: %v)", err, aerr)}
		}
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	if err := h.Fence(); err != nil {
		// Fence unfenced the shard and left the manifest unpublished; drop
		// the prepared artifacts and the now-pointless intent so a restart
		// has nothing to retract.
		msg := err.Error()
		if aerr := h.Abort(); aerr != nil {
			msg = fmt.Sprintf("%s (and cleanup failed: %v)", msg, aerr)
		}
		if rerr := handoff.RemoveIntent(filepath.Join(s.cfg.DataDir, t.name), req.Shard); rerr != nil {
			msg = fmt.Sprintf("%s (and intent removal failed: %v)", msg, rerr)
		}
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, msg}
	}
	t.own.noteExport(req.Shard, h, in)
	man := h.Manifest()
	return HandoffResponse{
		Tenant: t.name, Shard: req.Shard, Phase: "exported",
		SnapshotGeneration: man.SnapshotGeneration,
		FencedGeneration:   man.FencedGeneration,
		TailRecords:        man.TailRecords,
	}, nil
}

// handoffImport runs the target side: validate the bundle, splice the
// imported state into this server's same-named tenant as the shard's
// newest snapshot, swap the shard's log and matrix, and publish the
// owner record. The target shard must be empty (no divergent local
// history) — adopting over independent writes would silently fork.
func (s *Server) handoffImport(req HandoffRequest) (HandoffResponse, error) {
	t, err := s.adminHandoffTenant(req)
	if err != nil {
		return HandoffResponse{}, err
	}
	if req.Owner == "" {
		return HandoffResponse{}, &apiError{http.StatusBadRequest,
			"import needs owner (this server's base URL, the redirect address)"}
	}
	m, man, err := handoff.Import(req.BundleDir)
	switch {
	case errors.Is(err, handoff.ErrNoBundle):
		return HandoffResponse{}, &apiError{http.StatusConflict, err.Error()}
	case errors.Is(err, handoff.ErrBundleCorrupt):
		return HandoffResponse{}, &apiError{http.StatusUnprocessableEntity, err.Error()}
	case err != nil:
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	if man.Shard != req.Shard {
		return HandoffResponse{}, &apiError{http.StatusBadRequest,
			fmt.Sprintf("bundle holds shard %d, request names shard %d", man.Shard, req.Shard)}
	}
	shardUsers := len(t.eng.UsersOf(req.Shard))
	if man.Users != shardUsers || man.Items != t.eng.Items() {
		return HandoffResponse{}, &apiError{http.StatusUnprocessableEntity,
			fmt.Sprintf("bundle geometry %dx%d does not match target shard %dx%d",
				man.Users, man.Items, shardUsers, t.eng.Items())}
	}
	if g, _ := t.eng.ShardGeneration(req.Shard); g != 0 {
		return HandoffResponse{}, &apiError{http.StatusConflict,
			fmt.Sprintf("target shard has local history at generation %d; adopting would fork", g)}
	}
	// Durable import intent BEFORE any adopted byte lands in this
	// server's data dir: a crash between the splice and the owner-record
	// publish would otherwise leave durable, uncommitted adopted state
	// this server recovers as authoritative while the source retracts
	// the bundle and resumes writes — two owners. With the intent down,
	// restart recovery resolves it against the owner record and discards
	// adopted state the move never committed (see resolveImportIntents).
	dir := filepath.Join(s.cfg.DataDir, t.name)
	in := handoff.Intent{Shard: req.Shard, BundleDir: req.BundleDir, Target: req.Owner}
	if err := handoff.WriteImportIntent(dir, in); err != nil {
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	// Swap under a fence so no write interleaves with the log exchange.
	// The fence stays up until the owner record publishes: before that
	// instant this server does not own the shard, and a write accepted
	// here would be lost if the commit never lands.
	_ = t.eng.FenceShard(req.Shard, true)
	if err := s.spliceShard(t, req.Shard, m, man); err != nil {
		// The splice may have left adopted bytes behind; keep the shard
		// fenced and the intent durable so a restart resolves the state
		// (no owner record → discard) instead of serving it.
		return HandoffResponse{}, &apiError{http.StatusInternalServerError,
			fmt.Sprintf("splice failed; shard %d stays fenced until a restart resolves its import intent: %v", req.Shard, err)}
	}
	if err := handoff.Commit(req.BundleDir, req.Owner, man.FencedGeneration); err != nil {
		// Adopted state is durable but unowned — exactly the crash window
		// the intent exists for; stay fenced and let a restart resolve it.
		return HandoffResponse{}, &apiError{http.StatusInternalServerError,
			fmt.Sprintf("commit failed; shard %d stays fenced until a restart resolves its import intent: %v", req.Shard, err)}
	}
	_ = t.eng.FenceShard(req.Shard, false)
	if err := handoff.RemoveImportIntent(dir, req.Shard); err != nil {
		// The move is committed and served; a leftover intent only costs
		// the next restart a benign resolve (committed → keep). Still loud:
		// failing to remove a durable record means filesystem trouble.
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	return HandoffResponse{
		Tenant: t.name, Shard: req.Shard, Phase: "imported",
		SnapshotGeneration: man.SnapshotGeneration,
		FencedGeneration:   man.FencedGeneration,
		TailRecords:        man.TailRecords,
		Owner:              req.Owner, Committed: true,
	}, nil
}

// spliceShard installs an imported matrix as one shard's durable state:
// close the shard's log, seed its directory with the matrix as the
// newest snapshot, reopen (recovery lands exactly on the imported
// generation), and swap the engine matrix and write hook.
func (s *Server) spliceShard(t *tenant, sh int, m *hitsndiffs.ResponseMatrix, man handoff.Manifest) error {
	dir := shardLogDir(filepath.Join(s.cfg.DataDir, t.name), t.eng.Shards(), sh)
	old := t.dur.log(sh)
	if err := old.Close(); err != nil {
		return fmt.Errorf("serve: close shard log: %w", err)
	}
	if _, err := durable.WriteSnapshotInto(dir, m); err != nil {
		return err
	}
	geom := durable.Geometry{Users: m.Users(), Items: m.Items(), Options: man.Options}
	l, rec, rs, err := durable.Open(dir, geom, s.cfg.Fsync)
	if err != nil {
		return err
	}
	if rs.RecoveredGeneration != man.FencedGeneration {
		l.Close()
		return fmt.Errorf("serve: spliced shard recovered at generation %d, want %d", rs.RecoveredGeneration, man.FencedGeneration)
	}
	if err := t.eng.AdoptShard(sh, rec); err != nil {
		l.Close()
		return err
	}
	if err := t.eng.SetShardDurability(sh, walHook(l)); err != nil {
		l.Close()
		return err
	}
	t.dur.setLog(sh, l)
	return nil
}

// handoffAbort cancels an in-flight export: unfence the shard, retract
// the bundle, drop the intent. Refused once the move has committed.
func (s *Server) handoffAbort(req HandoffRequest) (HandoffResponse, error) {
	t, err := s.adminHandoffTenant(req)
	if err != nil {
		return HandoffResponse{}, err
	}
	h, ok := t.own.export(req.Shard)
	if !ok {
		return HandoffResponse{}, &apiError{http.StatusNotFound,
			fmt.Sprintf("no handoff in flight for shard %d", req.Shard)}
	}
	if err := h.Abort(); err != nil {
		if errors.Is(err, handoff.ErrCommitted) {
			return HandoffResponse{}, &apiError{http.StatusConflict, err.Error()}
		}
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	if err := handoff.RemoveIntent(filepath.Join(s.cfg.DataDir, t.name), req.Shard); err != nil {
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	t.own.clear(req.Shard)
	return HandoffResponse{Tenant: t.name, Shard: req.Shard, Phase: "aborted"}, nil
}

// handoffStatus resolves the bundle's owner record.
func (s *Server) handoffStatus(req HandoffRequest) (HandoffResponse, error) {
	t, err := s.adminHandoffTenant(req)
	if err != nil {
		return HandoffResponse{}, err
	}
	owner, committed, err := handoff.Resolve(req.BundleDir)
	if err != nil {
		return HandoffResponse{}, &apiError{http.StatusInternalServerError, err.Error()}
	}
	return HandoffResponse{
		Tenant: t.name, Shard: req.Shard, Phase: "status",
		Owner: owner, Committed: committed,
	}, nil
}

// handleAdminPartition is POST /v1/admin/partition.
func (s *Server) handleAdminPartition(w http.ResponseWriter, r *http.Request) {
	var req PartitionRequest
	if err := decode(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	t, err := s.lookup(req.Tenant)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := PartitionResponse{
		Tenant: t.name,
		Users:  t.eng.Users(),
		Shards: t.eng.Shards(),
	}
	for sh := 0; sh < t.eng.Shards(); sh++ {
		gen, _ := t.eng.ShardGeneration(sh)
		row := ShardOwnershipInfo{
			Shard:      sh,
			Users:      len(t.eng.UsersOf(sh)),
			Generation: gen,
			Fenced:     t.eng.ShardFenced(sh),
		}
		if owner, ok := t.own.movedTo(sh); ok {
			row.MovedTo = owner
		}
		resp.Partition = append(resp.Partition, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveImportIntents resolves a tenant's durable import intents at
// startup. It MUST run before the tenant's logs open: an import intent
// marks adopted state whose move may never have committed, and once
// durable.Open has recovered that state the process is already serving
// it. Committed to the identity this server recorded → the adopted
// state is authoritative, drop the intent; uncommitted, or committed to
// a different owner (another import won the bundle) → discard the
// shard's durable state, returning it to the empty pre-import shape the
// import's generation-0 precondition guaranteed, then drop the intent.
// The discard is idempotent, so a crash between it and the intent
// removal just re-discards next time.
func (s *Server) resolveImportIntents(t *tenant) error {
	dir := filepath.Join(s.cfg.DataDir, t.name)
	intents, err := handoff.ListImportIntents(dir)
	if err != nil {
		return fmt.Errorf("serve: tenant %q: %w", t.name, err)
	}
	for _, in := range intents {
		if in.Shard < 0 || in.Shard >= t.eng.Shards() {
			return fmt.Errorf("serve: tenant %q: import intent names shard %d of %d", t.name, in.Shard, t.eng.Shards())
		}
		owner, committed, err := handoff.Resolve(in.BundleDir)
		if err != nil {
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, in.Shard, err)
		}
		if !committed || owner != in.Target {
			if err := durable.DiscardState(shardLogDir(dir, t.eng.Shards(), in.Shard)); err != nil {
				return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, in.Shard, err)
			}
		}
		if err := handoff.RemoveImportIntent(dir, in.Shard); err != nil {
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, in.Shard, err)
		}
	}
	return nil
}

// recoverHandoffState replays a tenant's durable handoff intents at
// startup: a committed move re-fences the shard and records the redirect
// target; an uncommitted one is retracted — the bundle manifest is
// withdrawn before the intent is dropped, so a stale bundle can never be
// imported after the source resumed writing.
func (s *Server) recoverHandoffState(t *tenant) error {
	dir := filepath.Join(s.cfg.DataDir, t.name)
	intents, err := handoff.ListIntents(dir)
	if err != nil {
		return fmt.Errorf("serve: tenant %q: %w", t.name, err)
	}
	for _, in := range intents {
		if in.Shard < 0 || in.Shard >= t.eng.Shards() {
			return fmt.Errorf("serve: tenant %q: intent names shard %d of %d", t.name, in.Shard, t.eng.Shards())
		}
		owner, committed, err := handoff.Resolve(in.BundleDir)
		if err != nil {
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, in.Shard, err)
		}
		if committed {
			_ = t.eng.FenceShard(in.Shard, true)
			t.own.noteMoved(in.Shard, owner, in)
			continue
		}
		if err := handoff.Retract(in.BundleDir); err != nil {
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, in.Shard, err)
		}
		if err := handoff.RemoveIntent(dir, in.Shard); err != nil {
			return fmt.Errorf("serve: tenant %q shard %d: %w", t.name, in.Shard, err)
		}
	}
	return nil
}
