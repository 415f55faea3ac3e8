package handoff_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/handoff"
)

// TestHandoffBitwiseEquivalence migrates one shard between two sharded
// engines while concurrent writers and readers hammer the cluster, then
// proves the moved shard is indistinguishable from one that never moved:
// a reference engine that absorbed the identical write history with no
// handoff must agree bitwise — every matrix cell, the write generation,
// the memoized one-hot and normalized CSR triples, and the Rank scores
// including the solve trace. Writes rejected by the fence are re-applied
// to the new owner in order, so the proof also covers the redirect
// window: zero writes lost, zero applied twice, no float drifts by even
// one ULP.
func TestHandoffBitwiseEquivalence(t *testing.T) {
	const (
		users  = 40
		items  = 8
		k      = 4
		victim = 2
	)
	newSE := func() *hitsndiffs.ShardedEngine {
		se, err := hitsndiffs.NewShardedEngine(hitsndiffs.NewResponseMatrix(users, items, k),
			hitsndiffs.WithShards(4),
			hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(42)))
		if err != nil {
			t.Fatal(err)
		}
		return se
	}
	src, dst, ref := newSE(), newSE(), newSE()
	batches := scriptedBatches(60, users, items, k)

	// The partition is a pure function of (users, shards), so all three
	// engines agree on who the victim shard owns.
	victimUsers := map[int]bool{}
	for _, u := range src.UsersOf(victim) {
		victimUsers[u] = true
	}
	split := func(obs []hitsndiffs.Observation) (vic, oth []hitsndiffs.Observation) {
		for _, o := range obs {
			if victimUsers[o.User] {
				vic = append(vic, o)
			} else {
				oth = append(oth, o)
			}
		}
		return vic, oth
	}
	geom := durable.Geometry{Users: len(src.UsersOf(victim)), Items: items, Options: optionsOf(items, k)}

	// Source and reference victim shards persist to durable logs, as in
	// production. (Restoring both from empty logs also puts their
	// write-generation chains in the same units: a restored shard counts
	// from zero, not from the construction-time subset copy.)
	srcDir := filepath.Join(t.TempDir(), "src-shard")
	srcLog, rec, _, err := durable.Open(srcDir, geom, durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.RestoreShard(victim, rec); err != nil {
		t.Fatal(err)
	}
	if err := src.SetShardDurability(victim, walHook(srcLog)); err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref-shard")
	refLog, refRec, _, err := durable.Open(refDir, geom, durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RestoreShard(victim, refRec); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetShardDurability(victim, walHook(refLog)); err != nil {
		t.Fatal(err)
	}

	// Phase A: identical pre-migration history on source and reference.
	for b := 0; b < 30; b++ {
		if err := src.ObserveBatch(batches[b]); err != nil {
			t.Fatal(err)
		}
		if err := ref.ObserveBatch(batches[b]); err != nil {
			t.Fatal(err)
		}
	}

	// Phase B: migrate the victim shard while a writer streams batches
	// 30..44 and readers rank concurrently. The writer pre-splits each
	// batch by owning side so a fence rejection is all-or-nothing per
	// sub-batch; victim sub-batches bounced by the fence are parked and
	// re-applied to the new owner after commit — the client-retry path the
	// serving tier's 429 + Retry-After drives.
	bundle := filepath.Join(t.TempDir(), "bundle")
	h := handoff.New(bundle, "t0", victim, handoff.ShardSource{Engine: src, Shard: victim, Log: srcLog})

	snapReady := make(chan struct{})
	tailReady := make(chan struct{})
	fenced := make(chan struct{})
	var parked [][]hitsndiffs.Observation
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 30; b < 45; b++ {
			switch b {
			case 35:
				close(snapReady) // snapshot may now race the stream
			case 42:
				close(tailReady) // tail window is populated; fence may rise
				<-fenced         // guarantee batches 42..44 hit the fence
			}
			vic, oth := split(batches[b])
			if len(oth) > 0 {
				if err := src.ObserveBatch(oth); err != nil {
					writerErr = err
					return
				}
			}
			if len(vic) > 0 {
				switch err := src.ObserveBatch(vic); {
				case errors.Is(err, hitsndiffs.ErrFenced):
					parked = append(parked, vic)
				case err != nil:
					writerErr = err
					return
				}
			}
			if err := ref.ObserveBatch(batches[b]); err != nil {
				writerErr = err
				return
			}
		}
	}()
	stopReaders := make(chan struct{})
	readerErrs := make([]error, 2)
	var rwg sync.WaitGroup
	for r := range readerErrs {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if _, err := src.Rank(context.Background()); err != nil {
					readerErrs[r] = err
					return
				}
				if _, _, err := src.ShardView(victim); err != nil {
					readerErrs[r] = err
					return
				}
			}
		}(r)
	}

	<-snapReady
	if err := h.Prepare(); err != nil {
		t.Fatal(err)
	}
	<-tailReady
	if err := h.Fence(); err != nil {
		t.Fatal(err)
	}
	close(fenced)
	wg.Wait()
	close(stopReaders)
	rwg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	for r, err := range readerErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}

	// Import, install on the target, commit.
	m, man, err := handoff.Import(bundle)
	if err != nil {
		t.Fatal(err)
	}
	dstDir := filepath.Join(t.TempDir(), "dst-shard")
	if _, err := durable.WriteSnapshotInto(dstDir, m); err != nil {
		t.Fatal(err)
	}
	dstLog, drec, drs, err := durable.Open(dstDir, geom, durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if drs.RecoveredGeneration != man.FencedGeneration {
		t.Fatalf("target recovered at %d, fenced frontier %d", drs.RecoveredGeneration, man.FencedGeneration)
	}
	if err := dst.AdoptShard(victim, drec); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetShardDurability(victim, walHook(dstLog)); err != nil {
		t.Fatal(err)
	}
	if err := handoff.Commit(bundle, "node-b", man.FencedGeneration); err != nil {
		t.Fatal(err)
	}

	// The fence-rejected sub-batches land on the new owner in arrival
	// order — the retries the source's 429s asked clients for.
	if len(parked) == 0 {
		t.Fatal("fence rejected no writes; the redirect window was never exercised")
	}
	for _, vic := range parked {
		if err := dst.ObserveBatch(vic); err != nil {
			t.Fatal(err)
		}
	}

	// Phase C: post-migration traffic splits across the two owners.
	for b := 45; b < 60; b++ {
		vic, oth := split(batches[b])
		if len(oth) > 0 {
			if err := src.ObserveBatch(oth); err != nil {
				t.Fatal(err)
			}
		}
		if len(vic) > 0 {
			if err := dst.ObserveBatch(vic); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.ObserveBatch(batches[b]); err != nil {
			t.Fatal(err)
		}
	}

	// Proof 1: the migrated shard is bitwise the never-moved shard —
	// cells, generation, memoized CSR and normalized triples.
	dstV, _, err := dst.ShardView(victim)
	if err != nil {
		t.Fatal(err)
	}
	refV, _, err := ref.ShardView(victim)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, "migrated-shard", dstV, refV)

	// Proof 2: the shards that never moved are untouched by the handoff.
	for sh := 0; sh < src.Shards(); sh++ {
		if sh == victim {
			continue
		}
		sv, _, err := src.ShardView(sh)
		if err != nil {
			t.Fatal(err)
		}
		rv, _, err := ref.ShardView(sh)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatrix(t, "bystander-shard", sv, rv)
	}

	// Proof 3: ranking the migrated shard reproduces the never-moved
	// shard's scores bitwise, solve trace included.
	rankOf := func(m *hitsndiffs.ResponseMatrix) hitsndiffs.Result {
		eng, err := hitsndiffs.NewEngine(m.Clone(),
			hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(42)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Rank(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameScores(t, rankOf(dstV), rankOf(refV))

	// Proof 4: the new owner's durable chain survives a restart at the
	// final frontier — the handoff spliced the WAL with no gap.
	if err := dstLog.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, rs2, err := durable.Open(dstDir, geom, durable.Policy{Mode: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.RecoveredGeneration != dstV.Generation() {
		t.Fatalf("target restart recovered at %d, live frontier %d", rs2.RecoveredGeneration, dstV.Generation())
	}
	requireSameMatrix(t, "target-restart", rec2, dstV)
}

// optionsOf returns a uniform per-item option-count vector.
func optionsOf(items, k int) []int {
	out := make([]int, items)
	for i := range out {
		out[i] = k
	}
	return out
}
