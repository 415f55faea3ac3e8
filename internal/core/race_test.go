package core

import (
	"sync"
	"testing"

	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/mat"
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
