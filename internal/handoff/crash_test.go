package handoff_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/handoff"
	"hitsndiffs/internal/response"
)

const (
	cmUsers  = 40
	cmItems  = 8
	cmK      = 4
	cmVictim = 2
)

// cmEnv is one crash-matrix scenario's world: a 4-shard source engine
// whose victim shard persists to a durable log, a deterministic write
// history, and a handoff exporting the victim into a bundle directory.
type cmEnv struct {
	t       *testing.T
	se      *hitsndiffs.ShardedEngine
	log     *durable.Log
	logDir  string
	bundle  string
	h       *handoff.Handoff
	batches [][]hitsndiffs.Observation
	applied int
}

func newCmEnv(t *testing.T) *cmEnv {
	t.Helper()
	se, err := hitsndiffs.NewShardedEngine(response.New(cmUsers, cmItems, cmK),
		hitsndiffs.WithShards(4),
		hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(42)))
	if err != nil {
		t.Fatal(err)
	}
	if se.Shards() != 4 {
		t.Fatalf("partition gave %d shards, want 4", se.Shards())
	}
	e := &cmEnv{
		t:       t,
		se:      se,
		logDir:  filepath.Join(t.TempDir(), "shard"),
		bundle:  filepath.Join(t.TempDir(), "bundle"),
		batches: scriptedBatches(24, cmUsers, cmItems, cmK),
	}
	log, rec, _, err := durable.Open(e.logDir, e.geom(), durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	e.log = log
	if err := se.RestoreShard(cmVictim, rec); err != nil {
		t.Fatal(err)
	}
	if err := se.SetShardDurability(cmVictim, walHook(log)); err != nil {
		t.Fatal(err)
	}
	e.apply(12)
	e.h = handoff.New(e.bundle, "t0", cmVictim, handoff.ShardSource{Engine: se, Shard: cmVictim, Log: log})
	return e
}

func (e *cmEnv) geom() durable.Geometry {
	return durable.Geometry{Users: len(e.se.UsersOf(cmVictim)), Items: cmItems, Options: []int{cmK}}
}

// apply feeds the next n scripted batches through the source router.
func (e *cmEnv) apply(n int) {
	e.t.Helper()
	for i := 0; i < n; i++ {
		if err := e.se.ObserveBatch(e.batches[e.applied]); err != nil {
			e.t.Fatal(err)
		}
		e.applied++
	}
}

// victimView returns the source's current victim-shard matrix (COW view).
func (e *cmEnv) victimView() *response.Matrix {
	e.t.Helper()
	m, _, err := e.se.ShardView(cmVictim)
	if err != nil {
		e.t.Fatal(err)
	}
	return m
}

// victimGen returns the victim shard's write generation.
func (e *cmEnv) victimGen() uint64 {
	e.t.Helper()
	g, err := e.se.ShardGeneration(cmVictim)
	if err != nil {
		e.t.Fatal(err)
	}
	return g
}

// restartSource simulates the source process dying and recovering: the
// log closes (in-memory fence state dies with the process) and a fresh
// recovery replays the shard's directory. The recovered matrix must be
// bitwise-equal to the source's last acknowledged state — no acknowledged
// write lost, no write applied twice.
func (e *cmEnv) restartSource() *response.Matrix {
	e.t.Helper()
	if err := e.log.Close(); err != nil {
		e.t.Fatal(err)
	}
	log2, rec, rs, err := durable.Open(e.logDir, e.geom(), durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		e.t.Fatal(err)
	}
	e.log = log2
	if rs.RecoveredGeneration != e.victimGen() {
		e.t.Fatalf("source recovered at generation %d, acknowledged frontier is %d", rs.RecoveredGeneration, e.victimGen())
	}
	requireSameMatrix(e.t, "source-recovery", rec, e.victimView())
	return rec
}

// requireUncommitted asserts the bundle resolves to the source: either no
// published bundle at all or a published one with no owner record.
func (e *cmEnv) requireUncommitted() {
	e.t.Helper()
	owner, committed, err := handoff.Resolve(e.bundle)
	if err != nil {
		e.t.Fatal(err)
	}
	if committed {
		e.t.Fatalf("bundle committed to %q; source crash window must leave the source authoritative", owner)
	}
}

// TestHandoffCrashMatrix drives fault injection at every phase boundary
// of the handoff protocol — crashes between and within prepare, fence,
// and commit, plus torn-write and bit-flip corruption of every bundle
// artifact at every byte offset — and asserts the invariant the protocol
// exists for: after any single fault there is exactly one authoritative
// owner, that owner's state is bitwise-correct at its acknowledged write
// frontier, and a damaged bundle always fails loudly rather than
// importing silently wrong state.
func TestHandoffCrashMatrix(t *testing.T) {
	t.Run("prepare/crash-mid-snapshot", func(t *testing.T) {
		e := newCmEnv(t)
		// The crash leaves only a snapshot temp file — prepare's rename
		// never happened.
		if err := os.MkdirAll(e.bundle, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(e.bundle, "snap-0000.tmp"), []byte{0x01, 0x02}, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := handoff.Import(e.bundle); !errors.Is(err, handoff.ErrNoBundle) {
			t.Fatalf("Import of unpublished bundle: %v, want ErrNoBundle", err)
		}
		e.requireUncommitted()
		if e.se.ShardFenced(cmVictim) {
			t.Fatal("prepare never fences")
		}
		e.apply(2) // source keeps absorbing writes
		e.restartSource()
	})

	t.Run("prepare/crash-after-snapshot", func(t *testing.T) {
		e := newCmEnv(t)
		if err := e.h.Prepare(); err != nil {
			t.Fatal(err)
		}
		// Crash before fence: the bundle holds a full snapshot but no
		// manifest, so it is debris and the source still owns the shard.
		if _, _, err := handoff.Import(e.bundle); !errors.Is(err, handoff.ErrNoBundle) {
			t.Fatalf("Import: %v, want ErrNoBundle", err)
		}
		e.requireUncommitted()
		e.apply(3) // writes after the snapshot land in the WAL tail
		e.restartSource()
	})

	t.Run("fence/crash-before-manifest", func(t *testing.T) {
		e := newCmEnv(t)
		if err := e.h.Prepare(); err != nil {
			t.Fatal(err)
		}
		e.apply(2) // tail content between snapshot and fence
		if err := e.h.Fence(); err != nil {
			t.Fatal(err)
		}
		// Crash immediately before the manifest rename: on-disk state is
		// the published bundle minus bundle.json.
		if err := os.Remove(filepath.Join(e.bundle, "bundle.json")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := handoff.Import(e.bundle); !errors.Is(err, handoff.ErrNoBundle) {
			t.Fatalf("Import: %v, want ErrNoBundle", err)
		}
		e.requireUncommitted()
		// The source process died with the fence; restart recovers the full
		// frontier including the tail-window writes and serves normally.
		e.restartSource()
	})

	t.Run("fence/writes-rejected-then-abort", func(t *testing.T) {
		e := newCmEnv(t)
		if err := e.h.Prepare(); err != nil {
			t.Fatal(err)
		}
		e.apply(2)
		if err := e.h.Fence(); err != nil {
			t.Fatal(err)
		}
		preGen := e.victimGen()
		victimUser := e.se.UsersOf(cmVictim)[0]
		err := e.se.Observe(victimUser, 0, 1)
		if !errors.Is(err, hitsndiffs.ErrFenced) {
			t.Fatalf("write to fenced shard: %v, want ErrFenced", err)
		}
		if got := e.victimGen(); got != preGen {
			t.Fatalf("rejected write moved generation %d -> %d", preGen, got)
		}
		// Other shards keep absorbing writes during the fence.
		otherUser := e.se.UsersOf(0)[0]
		if err := e.se.Observe(otherUser, 0, 1); err != nil {
			t.Fatal(err)
		}
		// Abort lifts the fence; the rejected write now lands and the WAL
		// chain continues without a gap.
		if err := e.h.Abort(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := handoff.Import(e.bundle); !errors.Is(err, handoff.ErrNoBundle) {
			t.Fatalf("Import after abort: %v, want ErrNoBundle", err)
		}
		if err := e.se.Observe(victimUser, 0, 1); err != nil {
			t.Fatalf("write after abort: %v", err)
		}
		if got := e.victimGen(); got != preGen+1 {
			t.Fatalf("generation %d after abort write, want %d", got, preGen+1)
		}
		e.restartSource()
	})

	t.Run("commit/crash-before-owner-record", func(t *testing.T) {
		e := newCmEnv(t)
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
		requireSameMatrix(t, "import", m, fencedView)
		if man.FencedGeneration != e.victimGen() {
			t.Fatalf("manifest fenced at %d, source frontier %d", man.FencedGeneration, e.victimGen())
		}
		// The target crashed after importing but before publishing the
		// owner record: its adopted state is debris, the source restarts
		// authoritative with nothing lost.
		e.requireUncommitted()
		e.restartSource()
	})

	t.Run("commit/owner-published", func(t *testing.T) {
		e := newCmEnv(t)
		if err := e.h.Prepare(); err != nil {
			t.Fatal(err)
		}
		e.apply(2)
		if err := e.h.Fence(); err != nil {
			t.Fatal(err)
		}
		fencedView := e.victimView()
		fencedGen := e.victimGen()
		m, man, err := handoff.Import(e.bundle)
		if err != nil {
			t.Fatal(err)
		}
		// Target installs: the imported matrix becomes the newest snapshot
		// of the target's own log dir, so its recovery starts exactly at
		// the fenced generation.
		targetDir := filepath.Join(t.TempDir(), "target-shard")
		if _, err := durable.WriteSnapshotInto(targetDir, m); err != nil {
			t.Fatal(err)
		}
		tlog, trec, trs, err := durable.Open(targetDir, e.geom(), durable.Policy{Mode: durable.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if trs.RecoveredGeneration != fencedGen {
			t.Fatalf("target recovered at %d, want fenced %d", trs.RecoveredGeneration, fencedGen)
		}
		requireSameMatrix(t, "target-install", trec, fencedView)
		if err := handoff.Commit(e.bundle, "node-b", man.FencedGeneration); err != nil {
			t.Fatal(err)
		}
		owner, committed, err := handoff.Resolve(e.bundle)
		if err != nil || !committed || owner != "node-b" {
			t.Fatalf("Resolve = (%q, %v, %v), want (node-b, true, nil)", owner, committed, err)
		}
		// Commit is idempotent for the same owner, refuses a second owner,
		// and the source can no longer abort its way back to authority.
		if err := handoff.Commit(e.bundle, "node-b", man.FencedGeneration); err != nil {
			t.Fatalf("idempotent commit: %v", err)
		}
		if err := handoff.Commit(e.bundle, "node-c", man.FencedGeneration); err == nil {
			t.Fatal("second owner accepted")
		}
		if err := e.h.Abort(); !errors.Is(err, handoff.ErrCommitted) {
			t.Fatalf("Abort after commit: %v, want ErrCommitted", err)
		}
		if !e.se.ShardFenced(cmVictim) {
			t.Fatal("source unfenced after the shard moved")
		}
		// The new owner serves writes; the generation chain continues from
		// the fenced frontier with no gap and no double-apply.
		target, err := hitsndiffs.NewShardedEngine(response.New(cmUsers, cmItems, cmK),
			hitsndiffs.WithShards(4),
			hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(42)))
		if err != nil {
			t.Fatal(err)
		}
		if err := target.AdoptShard(cmVictim, trec); err != nil {
			t.Fatal(err)
		}
		if err := target.SetShardDurability(cmVictim, walHook(tlog)); err != nil {
			t.Fatal(err)
		}
		victimUser := e.se.UsersOf(cmVictim)[0]
		if err := target.Observe(victimUser, 1, 2); err != nil {
			t.Fatal(err)
		}
		gotGen, err := target.ShardGeneration(cmVictim)
		if err != nil {
			t.Fatal(err)
		}
		if gotGen != fencedGen+1 {
			t.Fatalf("target generation %d after one write, want %d", gotGen, fencedGen+1)
		}
		// Target restart proves its durable chain: snapshot + one record.
		tview, _, err := target.ShardView(cmVictim)
		if err != nil {
			t.Fatal(err)
		}
		if err := tlog.Close(); err != nil {
			t.Fatal(err)
		}
		_, trec2, _, err := durable.Open(targetDir, e.geom(), durable.Policy{Mode: durable.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatrix(t, "target-restart", trec2, tview)
	})

	t.Run("fence/source-wal-failpoint", func(t *testing.T) {
		e := newCmEnv(t)
		// The source's own WAL dies mid-append before the handoff: the
		// export must fail loudly at fence (the tail is unreadable from a
		// broken log), and the abort path must leave writes resumable after
		// a real recovery — not silently export a tail missing the torn
		// record.
		e.log.FailAfterBytes(3)
		victimUser := e.se.UsersOf(cmVictim)[0]
		if err := e.se.Observe(victimUser, 0, 1); !errors.Is(err, durable.ErrFailpoint) {
			t.Fatalf("torn append: %v, want ErrFailpoint", err)
		}
		if err := e.h.Prepare(); err != nil {
			t.Fatal(err)
		}
		if err := e.h.Fence(); err == nil {
			t.Fatal("Fence succeeded over a broken WAL")
		}
		if e.se.ShardFenced(cmVictim) {
			t.Fatal("failed fence left the shard fenced")
		}
		if _, _, err := handoff.Import(e.bundle); !errors.Is(err, handoff.ErrNoBundle) {
			t.Fatalf("Import: %v, want ErrNoBundle", err)
		}
		e.restartSource() // recovery truncates the torn record; frontier = acknowledged writes
	})

	// The byte-level sweep: for every bundle artifact, truncate it at
	// every byte offset (torn write) and flip a bit at every byte offset
	// (bit rot), then Import. The invariant is
	// bitwise-correct-or-loud-failure: Import may only succeed if the
	// matrix it returns is bitwise-identical to the fenced source state at
	// exactly the fenced generation. (A flip in, say, a JSON key's
	// whitespace can leave a valid bundle — correctness, not rejection, is
	// the contract.)
	t.Run("byte-sweep", func(t *testing.T) {
		e := newCmEnv(t)
		if err := e.h.Prepare(); err != nil {
			t.Fatal(err)
		}
		e.apply(2)
		if err := e.h.Fence(); err != nil {
			t.Fatal(err)
		}
		fencedView := e.victimView()
		man := e.h.Manifest()
		artifacts := []string{
			durable.SnapshotFileName(man.SnapshotGeneration),
			durable.SegmentFileName(man.SnapshotGeneration),
			"bundle.json",
		}
		for _, name := range artifacts {
			pristine, err := os.ReadFile(filepath.Join(e.bundle, name))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			scratch := filepath.Join(t.TempDir(), "scratch")
			if err := os.MkdirAll(scratch, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, other := range artifacts {
				data, err := os.ReadFile(filepath.Join(e.bundle, other))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(scratch, other), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			check := func(kind string, k int, mutated []byte) {
				if err := os.WriteFile(filepath.Join(scratch, name), mutated, 0o644); err != nil {
					t.Fatal(err)
				}
				m, got, err := handoff.Import(scratch)
				if err != nil {
					return // loud failure: the acceptable outcome
				}
				if got.FencedGeneration != man.FencedGeneration {
					t.Fatalf("%s/%s@%d: silent import at wrong generation %d", name, kind, k, got.FencedGeneration)
				}
				requireSameMatrix(t, name+"/"+kind, m, fencedView)
			}
			for k := 0; k < len(pristine); k++ {
				check("torn", k, pristine[:k])
				flipped := append([]byte(nil), pristine...)
				flipped[k] ^= 0x40
				check("flip", k, flipped)
			}
			// Restore the pristine artifact so later sweeps reuse scratch
			// state cleanly; the loop rebuilds scratch per artifact anyway.
			if err := os.WriteFile(filepath.Join(scratch, name), pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The pristine bundle still imports bitwise-correct after the sweep.
		m, got, err := handoff.Import(e.bundle)
		if err != nil {
			t.Fatal(err)
		}
		if got.FencedGeneration != man.FencedGeneration {
			t.Fatalf("pristine import at generation %d", got.FencedGeneration)
		}
		requireSameMatrix(t, "pristine", m, fencedView)
	})
}
