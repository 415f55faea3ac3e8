// Package mat provides the dense and sparse linear-algebra primitives the
// rest of the library is built on: vectors, row-major dense matrices and
// compressed-sparse-row (CSR) matrices, together with the operations needed
// by the spectral methods in this repository (mat-vec products, norms,
// row/column normalization, Laplacians).
//
// The package deliberately implements only the subset of numerical linear
// algebra that the HITSnDIFFs reproduction needs, using the standard library
// alone. All matrices index from zero and store float64 entries.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned (or wrapped) when operand shapes are
// incompatible.
var ErrDimensionMismatch = errors.New("mat: dimension mismatch")

// Vector is a dense column vector backed by a plain slice.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Ones returns a vector of length n with every entry set to 1.
func Ones(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Constant returns a vector of length n with every entry set to c.
func Constant(n int, c float64) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = c
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v.
func (v Vector) Norm2() float64 {
	// Scale to avoid overflow for very large entries.
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		r := x / maxAbs
		s += r * r
	}
	return maxAbs * math.Sqrt(s)
}

// Norm1 returns the L1 norm (sum of absolute values) of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the maximum absolute entry of v.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Variance returns the population variance of v, or 0 for fewer than two
// entries.
func (v Vector) Variance() float64 {
	if len(v) < 2 {
		return 0
	}
	mu := v.Mean()
	var s float64
	for _, x := range v {
		d := x - mu
		s += d * d
	}
	return s / float64(len(v))
}

// Scale multiplies every entry of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AddScaled sets v = v + a*w in place and returns v. It panics if lengths
// differ.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// AXPBY sets dst[i] = a·x[i] + b·y[i] in one fused pass and returns dst.
// dst may alias x or y. It panics if lengths differ. The spectral shift of
// ABH-power (next ← β·s_diff − next) is one AXPBY instead of a scale plus a
// subtract pass.
func AXPBY(dst Vector, a float64, x Vector, b float64, y Vector) Vector {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic(fmt.Sprintf("mat: AXPBY length mismatch %d, %d, %d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
	return dst
}

// FlipInvariantDist returns min(‖a−b‖₂, ‖a+b‖₂), the sign-insensitive
// distance every power-style iteration here uses as its convergence
// measure, computed in a single fused pass over both vectors.
func FlipInvariantDist(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: FlipInvariantDist length mismatch %d vs %d", len(a), len(b)))
	}
	var same, flip float64
	for i, x := range a {
		d := x - b[i]
		s := x + b[i]
		same += d * d
		flip += s * s
	}
	return math.Sqrt(math.Min(same, flip))
}

// Normalize scales v to unit L2 norm in place and returns the original norm.
// A zero vector is left unchanged and 0 is returned.
func (v Vector) Normalize() float64 {
	n := v.Norm2()
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// Fill sets every entry of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// CumSum writes the running prefix sums of src into dst, which must have the
// same length, and returns dst. dst may alias src.
//
// CumSum is the T-matrix application of the paper (s = T·s_diff with the
// leading score fixed to zero) when dst has one more entry than src; use
// CumSumShift for that variant.
func CumSum(dst, src Vector) Vector {
	if len(dst) != len(src) {
		panic("mat: CumSum length mismatch")
	}
	var acc float64
	for i, x := range src {
		acc += x
		dst[i] = acc
	}
	return dst
}

// CumSumShift implements s = T·d for the (m×(m-1)) lower unit triangular
// matrix T from the paper: s[0] = 0 and s[j] = d[0]+...+d[j-1] for j ≥ 1.
// dst must have length len(d)+1.
func CumSumShift(dst, d Vector) Vector {
	if len(dst) != len(d)+1 {
		panic("mat: CumSumShift length mismatch")
	}
	dst[0] = 0
	var acc float64
	for i, x := range d {
		acc += x
		dst[i+1] = acc
	}
	return dst
}

// Diff implements d = S·s for the ((m-1)×m) difference matrix S from the
// paper: d[j] = s[j+1] - s[j]. dst must have length len(s)-1.
func Diff(dst, s Vector) Vector {
	if len(dst) != len(s)-1 {
		panic("mat: Diff length mismatch")
	}
	for i := range dst {
		dst[i] = s[i+1] - s[i]
	}
	return dst
}

// ArgSort returns a permutation p such that v[p[0]] ≤ v[p[1]] ≤ ... .
// The sort is stable with respect to the original indices.
func (v Vector) ArgSort() []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	// Insertion-free: use sort.SliceStable semantics via simple merge sort to
	// keep determinism; stdlib sort is fine.
	stableSortByValue(idx, v)
	return idx
}

// stableSortByValue is a bottom-up stable merge sort of idx by v.
func stableSortByValue(idx []int, v Vector) {
	n := len(idx)
	if n < 2 {
		return
	}
	buf := make([]int, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeByValue(buf[lo:hi], idx[lo:mid], idx[mid:hi], v)
		}
		copy(idx, buf)
	}
}

func mergeByValue(dst, a, b []int, v Vector) {
	i, j := 0, 0
	for k := range dst {
		switch {
		case i >= len(a):
			dst[k] = b[j]
			j++
		case j >= len(b):
			dst[k] = a[i]
			i++
		case v[b[j]] < v[a[i]]:
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			i++
		}
	}
}

// Reverse reverses v in place and returns it.
func (v Vector) Reverse() Vector {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
	return v
}

// Equal reports whether v and w have the same length and all entries within
// tol of each other.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// MinMaxNormalized returns a copy of v rescaled to [0, 1] by min-max
// normalization. A flat vector (zero span) maps to 0.5 everywhere — the
// "no signal" midpoint; per-component and per-shard ranking merges share
// this one rule so their score contracts cannot drift apart.
func (v Vector) MinMaxNormalized() Vector {
	out := NewVector(len(v))
	if len(v) == 0 {
		return out
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		out.Fill(0.5)
		return out
	}
	for i, x := range v {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}
