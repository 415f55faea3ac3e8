// Package handoff moves one engine shard between processes as a bundle
// of (newest snapshot + continuity-checked WAL tail), built on the
// internal/durable format, with a three-phase protocol whose commit point
// is a single atomic rename:
//
//	prepare  snapshot an O(1) copy-on-write view of the moving shard into
//	         the bundle directory — the source keeps absorbing writes
//	fence    stop writes to the shard (the serving tier answers 429 +
//	         Retry-After), read the final WAL tail from the snapshot's
//	         generation to the now-frozen frontier, ship it into the
//	         bundle, then publish the bundle manifest (temp+rename, last)
//	commit   the importer validates the bundle — snapshot checksum, tail
//	         continuity, recovered generation exactly equal to the fenced
//	         frontier — adopts the state, and writes the owner record
//	         (temp+rename, last)
//
// Authority is decided by two files, each published atomically after
// everything it vouches for is durable:
//
//   - bundle.json vouches for the bundle: absent or unreadable means the
//     export never completed and the source remains the owner (its fence,
//     being in-memory, vanishes with the crash).
//   - owner.json vouches for the move: absent means the import never
//     committed and the source remains the owner; present means the named
//     target owns the shard and the source must redirect.
//
// A crash at ANY byte therefore leaves exactly one authoritative owner:
// before owner.json lands it is the source (whose durable log recovers
// independently of the export), after it lands it is the target (whose
// adopted state was validated bitwise-complete first). Damage anywhere in
// the bundle fails Import loudly — never a silently wrong owner.
package handoff

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/response"
)

// manifestFile is the bundle manifest name — published last on export.
const manifestFile = "bundle.json"

// ownerFile is the commit record name — published last on import.
const ownerFile = "owner.json"

// ErrNoBundle reports a bundle directory without a published manifest:
// the export never completed (crashed in prepare or fence), so the
// source remains the shard's owner and the directory is debris.
var ErrNoBundle = errors.New("handoff: bundle manifest absent (export incomplete, source still owns the shard)")

// ErrBundleCorrupt reports a published bundle whose contents fail
// validation — snapshot checksum, tail framing, chain continuity, or the
// fenced-generation equality. The import must not adopt; the move aborts
// and the source remains the owner.
var ErrBundleCorrupt = errors.New("handoff: bundle corrupt")

// ErrCommitted reports an Abort attempted after the importer already
// published the owner record: the shard has moved and the source must
// not resume writes.
var ErrCommitted = errors.New("handoff: bundle already committed to a new owner")

// Manifest describes one exported shard bundle. It is written atomically
// after the snapshot and WAL tail are durable, so a readable manifest
// vouches for a complete bundle.
type Manifest struct {
	// Tenant names the tenant the shard belongs to.
	Tenant string `json:"tenant"`
	// Shard is the shard index within the tenant.
	Shard int `json:"shard"`
	// Users, Items, Options give the shard-local matrix geometry
	// (Options has one count per item).
	Users int `json:"users"`
	// Items is the item count (see Users).
	Items int `json:"items"`
	// Options holds the per-item option counts.
	Options []int `json:"options"`
	// SnapshotGeneration is the write generation of the prepare-phase
	// snapshot; the WAL tail starts here.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// FencedGeneration is the shard's write frontier at fence time; the
	// tail ends exactly here and the importer must recover exactly here.
	FencedGeneration uint64 `json:"fenced_generation"`
	// TailRecords and TailOps count the shipped WAL tail, for
	// observability.
	TailRecords int `json:"tail_records"`
	// TailOps is the total op count across the tail records (see
	// TailRecords).
	TailOps int `json:"tail_ops"`
}

// geometry returns the durable geometry the manifest declares.
func (m Manifest) geometry() durable.Geometry {
	return durable.Geometry{Users: m.Users, Items: m.Items, Options: m.Options}
}

// Owner is the commit record: written atomically by the importer after
// the bundle validated and the state was adopted. Its presence is the
// single source of truth for who owns the shard.
type Owner struct {
	// Owner identifies the new owner — the serving tier uses the
	// target's base URL so the source can redirect.
	Owner string `json:"owner"`
	// Generation is the write generation the new owner adopted at
	// (always the manifest's FencedGeneration).
	Generation uint64 `json:"generation"`
}

// Handoff drives the export side of moving one shard into a bundle
// directory. Methods must be called in order (Prepare, Fence, then
// Abort if the import fails); a Handoff is single-use and not safe for
// concurrent use.
type Handoff struct {
	dir   string
	src   ShardSource
	man   Manifest
	phase int // 0 new, 1 prepared, 2 fenced+published, 3 aborted
}

// New builds a Handoff exporting the given tenant's shard into dir
// (created by Prepare if missing).
func New(dir, tenant string, shard int, src ShardSource) *Handoff {
	return &Handoff{dir: dir, src: src, man: Manifest{Tenant: tenant, Shard: shard}}
}

// Manifest returns the manifest as built so far: geometry and snapshot
// generation after Prepare, tail and fenced generation after Fence.
func (h *Handoff) Manifest() Manifest { return h.man }

// Prepare runs the first phase: snapshot a copy-on-write view of the
// shard into the bundle directory. The source keeps serving reads AND
// writes — the fence comes later and only for the tail shipment. A crash
// after Prepare leaves an unpublished bundle (no manifest): debris, the
// source still owns the shard.
func (h *Handoff) Prepare() error {
	if h.phase != 0 {
		return fmt.Errorf("handoff: Prepare called in phase %d", h.phase)
	}
	m, err := h.src.Snapshot()
	if err != nil {
		return fmt.Errorf("handoff: prepare snapshot: %w", err)
	}
	gen, err := durable.WriteSnapshotInto(h.dir, m)
	if err != nil {
		return fmt.Errorf("handoff: prepare snapshot: %w", err)
	}
	h.man.Users = m.Users()
	h.man.Items = m.Items()
	h.man.Options = make([]int, m.Items())
	for i := range h.man.Options {
		h.man.Options[i] = m.OptionCount(i)
	}
	h.man.SnapshotGeneration = gen
	h.phase = 1
	return nil
}

// Fence runs the second phase: stop the shard's writes, read the final
// WAL tail (snapshot generation → frozen frontier), ship it into the
// bundle, and publish the manifest — the rename that makes the bundle
// importable. On any error the shard is unfenced again and the bundle
// stays unpublished. On success the shard STAYS fenced: it must not
// absorb writes the shipped tail would miss; call Abort to resume writes
// if the import side fails, or leave it fenced once the owner record
// lands.
func (h *Handoff) Fence() error {
	if h.phase != 1 {
		return fmt.Errorf("handoff: Fence called in phase %d", h.phase)
	}
	h.src.Fence()
	tail, err := h.src.Tail(h.man.SnapshotGeneration)
	if err != nil {
		h.src.Unfence()
		return fmt.Errorf("handoff: fence tail: %w", err)
	}
	fenced := h.man.SnapshotGeneration
	ops := 0
	var buf []byte
	for _, rec := range tail {
		buf = durable.EncodeRecord(buf, rec)
		fenced = rec.Gen + uint64(len(rec.Ops))
		ops += len(rec.Ops)
	}
	if len(tail) > 0 {
		name := durable.SegmentFileName(h.man.SnapshotGeneration)
		if err := writeFileAtomic(h.dir, name, buf); err != nil {
			h.src.Unfence()
			return fmt.Errorf("handoff: ship tail: %w", err)
		}
	}
	h.man.FencedGeneration = fenced
	h.man.TailRecords = len(tail)
	h.man.TailOps = ops
	data, err := json.MarshalIndent(h.man, "", "  ")
	if err != nil {
		h.src.Unfence()
		return fmt.Errorf("handoff: marshal manifest: %w", err)
	}
	if err := writeFileAtomic(h.dir, manifestFile, data); err != nil {
		h.src.Unfence()
		return fmt.Errorf("handoff: publish manifest: %w", err)
	}
	h.phase = 2
	return nil
}

// Abort cancels the handoff and resumes the source's writes. It refuses
// with ErrCommitted if the importer already published the owner record —
// the shard has moved and unfencing would fork history. After a
// successful abort the bundle directory is debris; Abort removes the
// manifest first (so a concurrent Resolve never sees a published bundle
// with missing artifacts) and then best-effort clears the rest.
func (h *Handoff) Abort() error {
	if _, committed, err := Resolve(h.dir); err != nil {
		return err
	} else if committed {
		return ErrCommitted
	}
	if err := os.Remove(filepath.Join(h.dir, manifestFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("handoff: retract manifest: %w", err)
	}
	if err := syncDir(h.dir); err != nil {
		return err
	}
	os.Remove(filepath.Join(h.dir, durable.SegmentFileName(h.man.SnapshotGeneration)))
	os.Remove(filepath.Join(h.dir, durable.SnapshotFileName(h.man.SnapshotGeneration)))
	h.src.Unfence()
	h.phase = 3
	return nil
}

// Retract withdraws an uncommitted bundle without a live Handoff — the
// source-restart path: the process that exported crashed, its in-memory
// fence is gone, and the durable intent says the move never committed,
// so the bundle must be unpublishable before the source resumes writes
// (a later import of the stale bundle would fork history). It refuses
// with ErrCommitted once the owner record exists; a bundle directory
// with no manifest — or none at all — is already retracted. The manifest
// is removed first and synced, then the artifacts best-effort.
func Retract(dir string) error {
	if _, committed, err := Resolve(dir); err != nil {
		return err
	} else if committed {
		return ErrCommitted
	}
	man, merr := ReadManifest(dir)
	if errors.Is(merr, ErrNoBundle) {
		return nil
	}
	if err := os.Remove(filepath.Join(dir, manifestFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("handoff: retract manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if merr == nil {
		os.Remove(filepath.Join(dir, durable.SegmentFileName(man.SnapshotGeneration)))
		os.Remove(filepath.Join(dir, durable.SnapshotFileName(man.SnapshotGeneration)))
	}
	return nil
}

// ReadManifest loads a bundle's published manifest. ErrNoBundle means
// the export never completed.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return Manifest{}, ErrNoBundle
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("handoff: read manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest unparsable: %v", ErrBundleCorrupt, err)
	}
	if man.Users <= 0 || man.Items <= 0 || len(man.Options) == 0 {
		return Manifest{}, fmt.Errorf("%w: manifest declares empty geometry", ErrBundleCorrupt)
	}
	return man, nil
}

// Import validates a published bundle and materializes the shard's
// matrix at the fenced generation: read the snapshot (checksum +
// geometry + stamped generation), replay the WAL tail with the exact
// chain check recovery uses, and require the result to land exactly on
// the manifest's fenced frontier — zero writes lost, zero applied twice.
// Every failure mode is loud (ErrNoBundle or ErrBundleCorrupt); a torn
// or bit-flipped bundle can never produce a silently wrong owner.
func Import(dir string) (*response.Matrix, Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, Manifest{}, err
	}
	m, err := durable.ReadSnapshotAt(dir, man.SnapshotGeneration, man.geometry())
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("%w: snapshot: %v", ErrBundleCorrupt, err)
	}
	tailPath := filepath.Join(dir, durable.SegmentFileName(man.SnapshotGeneration))
	data, err := os.ReadFile(tailPath)
	switch {
	case os.IsNotExist(err):
		// Published bundle, no tail file: legal only when nothing was
		// written between snapshot and fence.
		if man.TailRecords != 0 {
			return nil, Manifest{}, fmt.Errorf("%w: manifest promises %d tail records, tail file missing", ErrBundleCorrupt, man.TailRecords)
		}
	case err != nil:
		return nil, Manifest{}, fmt.Errorf("handoff: read tail: %w", err)
	default:
		recs, valid, scanErr := durable.ScanRecords(data)
		if scanErr != nil || valid < len(data) {
			// The manifest was published after the tail was durable, so ANY
			// unparseable byte — even at the end — is corruption, not a torn
			// tail a recovery could truncate.
			return nil, Manifest{}, fmt.Errorf("%w: tail damaged at byte %d of %d", ErrBundleCorrupt, valid, len(data))
		}
		if len(recs) != man.TailRecords {
			return nil, Manifest{}, fmt.Errorf("%w: tail has %d records, manifest promises %d", ErrBundleCorrupt, len(recs), man.TailRecords)
		}
		next := man.SnapshotGeneration
		for _, rec := range recs {
			end := rec.Gen + uint64(len(rec.Ops))
			switch {
			case end <= next:
				continue // covered by the snapshot: a tail that starts early is redundant, not wrong
			case rec.Gen != next:
				return nil, Manifest{}, fmt.Errorf("%w: tail chain broken: record at %d, expected %d", ErrBundleCorrupt, rec.Gen, next)
			}
			for _, op := range rec.Ops {
				if op.User < 0 || op.User >= m.Users() || op.Item < 0 || op.Item >= m.Items() ||
					(op.Option != response.Unanswered && (op.Option < 0 || op.Option >= m.OptionCount(op.Item))) {
					return nil, Manifest{}, fmt.Errorf("%w: tail op (%d,%d,%d) outside geometry", ErrBundleCorrupt, op.User, op.Item, op.Option)
				}
				m.SetAnswer(op.User, op.Item, op.Option)
			}
			next = end
		}
	}
	if got := m.Generation(); got != man.FencedGeneration {
		return nil, Manifest{}, fmt.Errorf("%w: replay reaches generation %d, fenced frontier is %d (lost writes)", ErrBundleCorrupt, got, man.FencedGeneration)
	}
	return m, man, nil
}

// Commit publishes the owner record — the commit point of the whole
// protocol. Call it only after Import succeeded AND the imported state is
// durable on the new owner (e.g. written as the newest snapshot of its
// log directory): once the record lands, the source redirects writes and
// the target must be able to serve. Committing the same owner twice is
// idempotent; committing a different owner fails.
func Commit(dir, owner string, generation uint64) error {
	if cur, committed, err := Resolve(dir); err != nil {
		return err
	} else if committed {
		if cur == owner {
			return nil
		}
		return fmt.Errorf("handoff: bundle already owned by %q, cannot commit %q", cur, owner)
	}
	data, err := json.MarshalIndent(Owner{Owner: owner, Generation: generation}, "", "  ")
	if err != nil {
		return fmt.Errorf("handoff: marshal owner: %w", err)
	}
	if err := writeFileAtomic(dir, ownerFile, data); err != nil {
		return fmt.Errorf("handoff: publish owner: %w", err)
	}
	return nil
}

// Resolve reports who owns the bundle's shard: committed is true with
// the new owner's identity once the owner record is published, false —
// source still authoritative — while it is absent. An unreadable owner
// record is an error (it is written atomically, so damage means
// filesystem trouble, not a crash window).
func Resolve(dir string) (owner string, committed bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ownerFile))
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("handoff: read owner record: %w", err)
	}
	var o Owner
	if err := json.Unmarshal(data, &o); err != nil {
		return "", false, fmt.Errorf("handoff: owner record unparsable: %w", err)
	}
	return o.Owner, true, nil
}

// writeFileAtomic durably publishes data as dir/name: temp file, fsync,
// rename, directory fsync — the same discipline as durable's snapshots,
// so a crash leaves either nothing or the complete file.
func writeFileAtomic(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and removals in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	return nil
}
