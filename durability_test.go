package hitsndiffs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/response"
)

// walHook adapts a durable.Log to the engine's WriteHook — the same
// adapter shape the serving tier installs.
func walHook(l *durable.Log) WriteHook {
	return func(gen uint64, obs []Observation) error {
		ops := make([]durable.Op, len(obs))
		for i, o := range obs {
			ops[i] = durable.Op{User: o.User, Item: o.Item, Option: o.Option}
		}
		return l.Append(gen, ops)
	}
}

// durabilityBatches is a deterministic write history for a users×items
// matrix with k options per item, including retractions and overwrites.
func durabilityBatches(users, items, k int) [][]Observation {
	var batches [][]Observation
	for b := 0; b < 12; b++ {
		var obs []Observation
		for j := 0; j < 5; j++ {
			obs = append(obs, Observation{
				User:   (b*7 + j*3) % users,
				Item:   (b + 2*j) % items,
				Option: (b*j + b + j) % k,
			})
		}
		if b%4 == 3 {
			obs = append(obs, Observation{User: (b * 5) % users, Item: b % items, Option: Unanswered})
		}
		batches = append(batches, obs)
	}
	return batches
}

// csrForm is the read surface shared by the one-hot and normalized CSRs.
type csrForm interface {
	Rows() int
	Cols() int
	RowNNZ(int) ([]int, []float64)
}

// requireSameCSR fails t unless the two CSRs agree bitwise.
func requireSameCSR(t *testing.T, name string, a, b csrForm) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: CSR shape mismatch", name)
	}
	for r := 0; r < a.Rows(); r++ {
		ca, va := a.RowNNZ(r)
		cb, vb := b.RowNNZ(r)
		if len(ca) != len(cb) {
			t.Fatalf("%s: row %d nnz %d != %d", name, r, len(ca), len(cb))
		}
		for j := range ca {
			if ca[j] != cb[j] || math.Float64bits(va[j]) != math.Float64bits(vb[j]) {
				t.Fatalf("%s: row %d entry %d differs", name, r, j)
			}
		}
	}
}

// requireSameMatrix fails t unless the two matrices agree on every cell,
// on the write generation, and on the bitwise content of their derived
// one-hot and normalized forms — the full recovery proof obligation.
func requireSameMatrix(t *testing.T, name string, got, want *ResponseMatrix) {
	t.Helper()
	if got.Users() != want.Users() || got.Items() != want.Items() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Users(), got.Items(), want.Users(), want.Items())
	}
	for u := 0; u < want.Users(); u++ {
		for i := 0; i < want.Items(); i++ {
			if got.Answer(u, i) != want.Answer(u, i) {
				t.Fatalf("%s: cell (%d,%d) = %d, want %d", name, u, i, got.Answer(u, i), want.Answer(u, i))
			}
		}
	}
	if got.Generation() != want.Generation() {
		t.Fatalf("%s: generation %d, want %d", name, got.Generation(), want.Generation())
	}
	requireSameCSR(t, name+"/binary", got.Binary(), want.Binary())
	_, gRow, gCol := got.Normalized()
	_, wRow, wCol := want.Normalized()
	requireSameCSR(t, name+"/norm-row", gRow, wRow)
	requireSameCSR(t, name+"/norm-col", gCol, wCol)
}

// requireSameScores fails t unless two rankings are bitwise identical.
func requireSameScores(t *testing.T, got, want Result) {
	t.Helper()
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("score length %d, want %d", len(got.Scores), len(want.Scores))
	}
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("score %d = %x, want %x", i, math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("solve trace (%d, %v), want (%d, %v)", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// TestRecoveredStateBitwiseEqual is the golden recovery suite: a server
// that logs every write, crashes mid-append, and recovers must serve a
// matrix — content, generation, memoized one-hot and normalized forms —
// and Rank scores bitwise identical to the uncrashed run's durable
// prefix. Covered for a plain Engine and a 4-shard ShardedEngine with
// per-shard logs.
func TestRecoveredStateBitwiseEqual(t *testing.T) {
	ctx := context.Background()
	const users, items, k = 30, 8, 4
	opts := []EngineOption{WithRankOptions(WithSeed(42))}

	t.Run("plain", func(t *testing.T) {
		dir := t.TempDir()
		geom := durable.Geometry{Users: users, Items: items, Options: []int{k}}
		log, m0, _, err := durable.Open(dir, geom, durable.Policy{Mode: durable.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(m0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetDurability(walHook(log))
		for _, b := range durabilityBatches(users, items, k) {
			if err := eng.ObserveBatch(b); err != nil {
				t.Fatal(err)
			}
		}

		// Crash mid-append: the batch must fail and stay invisible.
		preCrash := eng.Metrics().Generation
		log.FailAfterBytes(5)
		err = eng.ObserveBatch([]Observation{{User: 1, Item: 1, Option: 1}})
		if !errors.Is(err, durable.ErrFailpoint) {
			t.Fatalf("crashed append: err = %v, want ErrFailpoint", err)
		}
		if got := eng.Metrics().Generation; got != preCrash {
			t.Fatalf("failed batch moved generation %d -> %d", preCrash, got)
		}
		log.Close()

		log2, rec, rs, err := durable.Open(dir, geom, durable.Policy{Mode: durable.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer log2.Close()
		if rs.RecoveredGeneration != preCrash {
			t.Fatalf("recovered generation %d, want %d", rs.RecoveredGeneration, preCrash)
		}
		requireSameMatrix(t, "plain", rec, eng.Snapshot())

		eng2, err := NewEngine(rec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng2.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireSameScores(t, got, want)
	})

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		empty := func() *ResponseMatrix { return response.New(users, items, k) }
		newSharded := func() *ShardedEngine {
			se, err := NewShardedEngine(empty(), append([]EngineOption{WithShards(4)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return se
		}
		se := newSharded()
		if se.Shards() != 4 {
			t.Fatalf("partition gave %d shards, want 4", se.Shards())
		}
		shardGeom := func(sh int) durable.Geometry {
			return durable.Geometry{Users: len(se.UsersOf(sh)), Items: items, Options: []int{k}}
		}
		logs := make([]*durable.Log, se.Shards())
		for sh := range logs {
			l, rec, _, err := durable.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", sh)), shardGeom(sh), durable.Policy{Mode: durable.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			logs[sh] = l
			if err := se.RestoreShard(sh, rec); err != nil {
				t.Fatal(err)
			}
			if err := se.SetShardDurability(sh, walHook(l)); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range durabilityBatches(users, items, k) {
			if err := se.ObserveBatch(b); err != nil {
				t.Fatal(err)
			}
		}

		// Crash one shard's log mid-append; the write targets a user that
		// shard owns, so only it is touched and the batch stays invisible.
		victim := se.UsersOf(2)[0]
		preCrash := se.Metrics().Generation
		logs[2].FailAfterBytes(3)
		err := se.Observe(victim, 0, 0)
		if !errors.Is(err, durable.ErrFailpoint) {
			t.Fatalf("crashed shard append: err = %v, want ErrFailpoint", err)
		}
		if got := se.Metrics().Generation; got != preCrash {
			t.Fatalf("failed shard write moved generation %d -> %d", preCrash, got)
		}
		for _, l := range logs {
			l.Close()
		}

		se2 := newSharded()
		for sh := 0; sh < se2.Shards(); sh++ {
			l, rec, _, err := durable.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", sh)), shardGeom(sh), durable.Policy{Mode: durable.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := se2.RestoreShard(sh, rec); err != nil {
				t.Fatal(err)
			}
			l.Close()
		}
		if got := se2.Metrics().Generation; got != preCrash {
			t.Fatalf("recovered cluster generation %d, want %d", got, preCrash)
		}
		refViews, _ := se.View()
		recViews, _ := se2.View()
		for sh := range refViews {
			requireSameMatrix(t, fmt.Sprintf("shard-%d", sh), recViews[sh], refViews[sh])
		}
		want, err := se.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se2.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireSameScores(t, got, want)
	})
}

// TestEngineRestoreGuards pins Restore's refusal surface: nil matrices,
// geometry mismatches, and engines that already absorbed writes.
func TestEngineRestoreGuards(t *testing.T) {
	eng, err := NewEngine(response.New(4, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(nil); err == nil {
		t.Fatal("Restore(nil) accepted")
	}
	if err := eng.Restore(response.New(5, 2, 3)); err == nil {
		t.Fatal("Restore accepted a wrong-shape matrix")
	}
	if err := eng.Restore(response.New(4, 2, 2)); err == nil {
		t.Fatal("Restore accepted wrong option counts")
	}
	good := response.New(4, 2, 3)
	good.SetAnswer(0, 0, 1)
	if err := eng.Restore(good); err != nil {
		t.Fatalf("Restore rejected a matching matrix: %v", err)
	}
	if eng.Metrics().Generation != good.Generation() {
		t.Fatal("Restore dropped the recovered generation")
	}
	if err := eng.Observe(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(good); err == nil {
		t.Fatal("Restore accepted an engine that already absorbed writes")
	}
}
