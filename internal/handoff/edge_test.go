package handoff_test

import (
	"path/filepath"
	"testing"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/handoff"
	"hitsndiffs/internal/response"
)

// TestHandoffZeroObservationShard moves a shard nobody ever wrote to —
// generation zero, an empty WAL tail, every cell unanswered — through the
// full protocol, as shard 0 of a one-shard engine (a one-shard tenant).
// The degenerate bundle must still round-trip exactly: fenced generation
// zero, zero tail records, and a committed owner.
func TestHandoffZeroObservationShard(t *testing.T) {
	const users, items, k = 6, 4, 3
	geom := durable.Geometry{Users: users, Items: items, Options: []int{k}}
	logDir := filepath.Join(t.TempDir(), "shard")
	log, rec, _, err := durable.Open(logDir, geom, durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hitsndiffs.NewShardedEngine(hitsndiffs.NewResponseMatrix(users, items, k),
		hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(42)))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreShard(0, rec); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetShardDurability(0, walHook(log)); err != nil {
		t.Fatal(err)
	}

	bundle := filepath.Join(t.TempDir(), "bundle")
	h := handoff.New(bundle, "t0", 0, handoff.ShardSource{Engine: eng, Shard: 0, Log: log})
	if err := h.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := h.Fence(); err != nil {
		t.Fatal(err)
	}
	m, man, err := handoff.Import(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if man.FencedGeneration != 0 || man.TailRecords != 0 || man.TailOps != 0 {
		t.Fatalf("zero-observation manifest %+v", man)
	}
	if m.Generation() != 0 {
		t.Fatalf("imported generation %d, want 0", m.Generation())
	}
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if m.Answer(u, i) != response.Unanswered {
				t.Fatalf("cell (%d,%d) = %d in a zero-observation shard", u, i, m.Answer(u, i))
			}
		}
	}
	// The target installs at generation zero and the chain starts there.
	dstDir := filepath.Join(t.TempDir(), "target")
	if _, err := durable.WriteSnapshotInto(dstDir, m); err != nil {
		t.Fatal(err)
	}
	dstLog, drec, drs, err := durable.Open(dstDir, geom, durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer dstLog.Close()
	if drs.RecoveredGeneration != 0 {
		t.Fatalf("target recovered at %d, want 0", drs.RecoveredGeneration)
	}
	requireSameMatrix(t, "zero-observation", drec, m)
	if err := handoff.Commit(bundle, "node-b", 0); err != nil {
		t.Fatal(err)
	}
	if owner, committed, err := handoff.Resolve(bundle); err != nil || !committed || owner != "node-b" {
		t.Fatalf("Resolve = (%q, %v, %v)", owner, committed, err)
	}
}

// TestHandoffWithOutstandingView pins the copy-on-write contract across a
// migration: a reader holding a shard view from before the handoff keeps
// its frozen epoch bitwise-intact through prepare, fence, import, and
// commit — the export reads the same COW machinery and must never poison
// an outstanding snapshot.
func TestHandoffWithOutstandingView(t *testing.T) {
	e := newCmEnv(t)
	view := e.victimView()
	frozen := view.Clone()

	e.apply(2) // post-view writes force the COW clone
	if err := e.h.Prepare(); err != nil {
		t.Fatal(err)
	}
	e.apply(2)
	if err := e.h.Fence(); err != nil {
		t.Fatal(err)
	}
	fencedView := e.victimView()
	m, man, err := handoff.Import(e.bundle)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, "import-under-view", m, fencedView)
	if err := handoff.Commit(e.bundle, "node-b", man.FencedGeneration); err != nil {
		t.Fatal(err)
	}
	// The outstanding view never moved, even though the shard did.
	requireSameMatrix(t, "outstanding-view", view, frozen)
}
