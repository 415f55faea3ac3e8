package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOnesAndConstant(t *testing.T) {
	v := Ones(4)
	if got := v.Sum(); got != 4 {
		t.Fatalf("Ones(4).Sum() = %v, want 4", got)
	}
	c := Constant(3, 2.5)
	if got := c.Sum(); got != 7.5 {
		t.Fatalf("Constant(3,2.5).Sum() = %v, want 7.5", got)
	}
}

func TestDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := v.Dot(w); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := v.Norm1(); got != 7 {
		t.Errorf("Norm1 = %v, want 7", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestNorm2ZeroVector(t *testing.T) {
	if got := NewVector(5).Norm2(); got != 0 {
		t.Fatalf("zero vector norm = %v", got)
	}
}

func TestNorm2LargeEntriesNoOverflow(t *testing.T) {
	v := Vector{1e200, 1e200}
	got := v.Norm2()
	want := 1e200 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 large = %v, want %v", got, want)
	}
}

func TestMeanVariance(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	if got := v.Mean(); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := v.Variance(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := (Vector{}).Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
	if got := (Vector{7}).Variance(); got != 0 {
		t.Errorf("singleton Variance = %v", got)
	}
}

func TestScaleAddScaled(t *testing.T) {
	v := Vector{1, 2}.Clone()
	v.Scale(3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("Scale result %v", v)
	}
	v.AddScaled(2, Vector{1, 1})
	if v[0] != 5 || v[1] != 8 {
		t.Fatalf("AddScaled result %v", v)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	n := v.Normalize()
	if math.Abs(n-5) > 1e-12 {
		t.Fatalf("returned norm %v", n)
	}
	if math.Abs(v.Norm2()-1) > 1e-12 {
		t.Fatalf("normalized norm %v", v.Norm2())
	}
	z := NewVector(3)
	if got := z.Normalize(); got != 0 {
		t.Fatalf("zero Normalize returned %v", got)
	}
}

func TestCumSumDiffRoundTrip(t *testing.T) {
	s := Vector{0, 1, 3, 6, 10}
	d := NewVector(4)
	Diff(d, s)
	want := Vector{1, 2, 3, 4}
	if !d.Equal(want, 0) {
		t.Fatalf("Diff = %v, want %v", d, want)
	}
	back := NewVector(5)
	CumSumShift(back, d)
	if !back.Equal(s, 1e-12) {
		t.Fatalf("CumSumShift = %v, want %v", back, s)
	}
}

// Property: for any vector d, Diff(CumSumShift(d)) == d.
func TestPropertyDiffInvertsCumSumShift(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		d := make(Vector, len(raw))
		for i, x := range raw {
			// Bound magnitudes so float cancellation stays benign.
			d[i] = math.Mod(x, 1000)
			if math.IsNaN(d[i]) || math.IsInf(d[i], 0) {
				d[i] = 1
			}
		}
		s := NewVector(len(d) + 1)
		CumSumShift(s, d)
		back := NewVector(len(d))
		Diff(back, s)
		return back.Equal(d, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCumSumInPlace(t *testing.T) {
	v := Vector{1, 2, 3}
	CumSum(v, v)
	if !v.Equal(Vector{1, 3, 6}, 0) {
		t.Fatalf("in-place CumSum = %v", v)
	}
}

func TestArgSortStable(t *testing.T) {
	v := Vector{2, 1, 2, 0, 1}
	got := v.ArgSort()
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgSort = %v, want %v", got, want)
		}
	}
}

// Property: ArgSort yields a valid permutation with non-decreasing values.
func TestPropertyArgSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		v := NewVector(n)
		for i := range v {
			v[i] = math.Floor(rng.Float64() * 10) // ties likely
		}
		p := v.ArgSort()
		seen := make([]bool, n)
		for _, idx := range p {
			if idx < 0 || idx >= n || seen[idx] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[idx] = true
		}
		for i := 1; i < n; i++ {
			if v[p[i-1]] > v[p[i]] {
				t.Fatalf("not sorted at %d", i)
			}
		}
	}
}

func TestReverse(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Reverse()
	if !v.Equal(Vector{3, 2, 1}, 0) {
		t.Fatalf("Reverse = %v", v)
	}
	w := Vector{1, 2}
	w.Reverse()
	if !w.Equal(Vector{2, 1}, 0) {
		t.Fatalf("Reverse even = %v", w)
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if (Vector{1}).Equal(Vector{1, 2}, 1) {
		t.Fatal("vectors of different lengths must not be Equal")
	}
}

// TestFusedVectorKernels pins the fused AXPY/scale/dot helpers against
// their unfused equivalents.
func TestFusedVectorKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := randomVector(rng, 257)
	y := randomVector(rng, 257)

	want := x.Clone().Scale(2.5).AddScaled(-1.25, y)
	got := AXPBY(NewVector(len(x)), 2.5, x, -1.25, y)
	if !got.Equal(want, 1e-15) {
		t.Fatalf("AXPBY mismatch")
	}
	aliased := x.Clone()
	AXPBY(aliased, 2.5, aliased, -1.25, y) // dst aliasing x must work
	if !bitsEqual(aliased, got) {
		t.Fatalf("AXPBY aliasing mismatch")
	}

	d := math.Min(dist2(x, y), distNeg2(x, y))
	if got := FlipInvariantDist(x, y); math.Abs(got-d) > 1e-13 {
		t.Fatalf("FlipInvariantDist = %g, want %g", got, d)
	}
}

func dist2(a, b Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func distNeg2(a, b Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] + b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
