package serve

import (
	"errors"
	"testing"
)

// lagOf returns an admission lag reader reporting fixed numbers.
func lagOf(gen, served uint64) func() (uint64, uint64) {
	return func() (uint64, uint64) { return gen, served }
}

// noLag is a lag reader for admissions without a lag bound: they must
// never read the tenant's watermarks.
func noLag(t *testing.T) func() (uint64, uint64) {
	return func() (uint64, uint64) {
		t.Fatal("admission read the watermarks with the lag bound off")
		return 0, 0
	}
}

func TestAdmissionInflightBound(t *testing.T) {
	a := newAdmission(2, 0)
	r1, err := a.acquire(noLag(t))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.acquire(noLag(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquire(noLag(t)); !errors.Is(err, errWritesSaturated) {
		t.Fatalf("third acquire: %v, want errWritesSaturated", err)
	}
	r1()
	r3, err := a.acquire(noLag(t))
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r2()
	r3()
}

func TestAdmissionRefreshLagBound(t *testing.T) {
	a := newAdmission(0, 3)
	for _, tc := range []struct {
		gen, served uint64
		wantReject  bool
	}{
		{1, 1, false}, // lag 0
		{3, 1, false}, // lag 2, under bound
		{4, 1, true},  // lag 3, at bound
		{9, 1, true},  // lag 8, beyond bound
		{4, 4, false}, // rank caught up
		{2, 5, false}, // served ahead (an adopted matrix behind the watermark): admit
	} {
		release, err := a.acquire(lagOf(tc.gen, tc.served))
		if got := errors.Is(err, errRefreshLagging); got != tc.wantReject {
			t.Errorf("acquire(gen=%d, served=%d): err=%v, want reject=%v", tc.gen, tc.served, err, tc.wantReject)
		}
		if release != nil {
			release()
		}
	}
}

func TestAdmissionZeroValueAdmitsEverything(t *testing.T) {
	var a admission
	for i := 0; i < 100; i++ {
		release, err := a.acquire(noLag(t))
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
}
