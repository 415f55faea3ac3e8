package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/mat"
	"hitsndiffs/internal/response"
)

// TestUpdateConcurrentAppliers exercises the concurrency contract of
// Update: many goroutines, each owning a Workspace, applying U, Uᵀ and L on
// the same Update must neither race (which the race detector catches) nor
// corrupt each other's results (which the value comparison below catches
// even without -race).
func TestUpdateConcurrentAppliers(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 120, 60, 5
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdate(d.Responses)
	users := u.Users()
	diag := u.DiagCCT()

	x := mat.Ones(users)
	for i := range x {
		x[i] += float64(i%7) * 0.25
	}
	ref := u.NewWorkspace()
	wantU := mat.NewVector(users)
	ref.ApplyU(wantU, x)
	wantUT := mat.NewVector(users)
	ref.ApplyUT(wantUT, x)
	wantL := mat.NewVector(users)
	ref.ApplyL(wantL, x, diag)

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := u.NewWorkspace()
			dst := mat.NewVector(users)
			for r := 0; r < rounds; r++ {
				switch (g + r) % 3 {
				case 0:
					ws.ApplyU(dst, x)
					if !dst.Equal(wantU, 0) {
						errs <- "ApplyU corrupted by concurrent applier"
						return
					}
				case 1:
					ws.ApplyUT(dst, x)
					if !dst.Equal(wantUT, 0) {
						errs <- "ApplyUT corrupted by concurrent applier"
						return
					}
				default:
					ws.ApplyL(dst, x, diag)
					if !dst.Equal(wantL, 0) {
						errs <- "ApplyL corrupted by concurrent applier"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSnapshotReadersUnderCloneWrites is the concurrency contract of paged
// copy-on-write storage on one snapshot: solves (which race to build and
// publish the snapshot's page patterns), Clones and WriteBinary calls run
// concurrently on the snapshot while a clone of it is written both in a
// page the two share and in a page it already copied, and solved. Under
// -race it proves the page protocol race-free; without it, every solve
// must still return bitwise the scores of a solve on an independent copy,
// and every WriteBinary the same bytes.
func TestSnapshotReadersUnderCloneWrites(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 3*response.PageUsers+10, 30, 5
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap := d.Responses
	identity := make([]int, snap.Users())
	for u := range identity {
		identity[u] = u
	}
	solver := HNDPower{Opts: Options{Seed: 3}}
	want, err := solver.Rank(ctx, snap.PermuteUsers(identity)) // shares no page
	if err != nil {
		t.Fatal(err)
	}
	var wantBlob bytes.Buffer
	if err := snap.WriteBinary(&wantBlob); err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	orig := make([]int, rounds)
	for r := range orig {
		orig[r] = snap.Answer(r, 0)
	}
	clone := snap.Clone()

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	run := func(f func(r int) string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if msg := f(r); msg != "" {
					errs <- msg
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		run(func(int) string {
			got, err := solver.Rank(ctx, snap)
			if err != nil {
				return err.Error()
			}
			for i := range want.Scores {
				if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
					return "a snapshot solve moved under concurrent readers and clone writes"
				}
			}
			return ""
		})
	}
	run(func(r int) string {
		c := snap.Clone()
		c.SetAnswer(r, 0, 1) // copies page 0 while solves read it
		if c.Answer(r, 0) != 1 || snap.Answer(r, 0) != orig[r] {
			return "a clone's write reached the snapshot"
		}
		return ""
	})
	run(func(int) string {
		var blob bytes.Buffer
		if err := snap.WriteBinary(&blob); err != nil {
			return err.Error()
		}
		if !bytes.Equal(blob.Bytes(), wantBlob.Bytes()) {
			return "a snapshot's WriteBinary moved under clone writes"
		}
		return ""
	})
	run(func(r int) string {
		clone.SetAnswer(r, 1, 0)                          // page 0: copied on round 0, then written in place
		clone.SetAnswer((1+r%3)*response.PageUsers, 2, 1) // a page still shared on rounds 0–2
		NewUpdate(clone).NewWorkspace().ApplyU(mat.NewVector(clone.Users()), mat.Ones(clone.Users()))
		return ""
	})
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
