package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// backoffSafe calls backoff, turning a panic into a test failure.
func backoffSafe(t *testing.T, rng *rand.Rand, attempt int, hinted time.Duration) (d time.Duration) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("backoff(attempt %d, hint %v) panicked: %v", attempt, hinted, r)
		}
	}()
	return backoff(rng, attempt, hinted)
}

// TestBackoffNeverOverflows walks attempts 0–100 with and without jitter:
// every sleep is positive and at most 1.5·retryCap, the unjittered ladder
// starts at retryBase, never decreases and ends at retryCap, jitter only
// adds, and a server hint replaces the ladder at any attempt, capped at
// retryCap.
func TestBackoffNeverOverflows(t *testing.T) {
	const hint = 300 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	prev := time.Duration(0)
	for attempt := 0; attempt <= 100; attempt++ {
		d := backoffSafe(t, nil, attempt, 0)
		if d <= 0 || d > retryCap {
			t.Fatalf("attempt %d: unjittered sleep %v outside (0, %v]", attempt, d, retryCap)
		}
		if d < prev {
			t.Fatalf("attempt %d: sleep %v shorter than attempt %d's %v", attempt, d, attempt-1, prev)
		}
		prev = d
		if j := backoffSafe(t, rng, attempt, 0); j < d || j > retryCap+retryCap/2 {
			t.Fatalf("attempt %d: jittered sleep %v outside [%v, %v]", attempt, j, d, retryCap+retryCap/2)
		}
		if h := backoffSafe(t, nil, attempt, hint); h != hint {
			t.Fatalf("attempt %d: hinted %v, slept %v", attempt, hint, h)
		}
		if h := backoffSafe(t, rng, attempt, hint); h < hint || h > hint+hint/2 {
			t.Fatalf("attempt %d: jittered %v hint slept %v", attempt, hint, h)
		}
		if h := backoffSafe(t, nil, attempt, time.Hour); h != retryCap {
			t.Fatalf("attempt %d: hinted 1h, slept %v, want cap %v", attempt, h, retryCap)
		}
		if h := backoffSafe(t, rng, attempt, time.Hour); h < retryCap || h > retryCap+retryCap/2 {
			t.Fatalf("attempt %d: jittered 1h hint slept %v", attempt, h)
		}
	}
	if d := backoffSafe(t, nil, 0, 0); d != retryBase {
		t.Fatalf("first retry sleeps %v, want retryBase %v", d, retryBase)
	}
	if prev != retryCap {
		t.Fatalf("attempt 100 sleeps %v, want retryCap %v", prev, retryCap)
	}
}

// TestPercentileNearestRank pins the nearest-rank rule on samples of
// 1..n ms: the q-quantile is the ceil(q·n)-th smallest sample, so a run of
// ten samples reports its maximum as both p95 and p99.
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n int
		w [3]time.Duration // p50, p95, p99 in ms
	}{
		{0, [3]time.Duration{0, 0, 0}},
		{1, [3]time.Duration{1, 1, 1}},
		{10, [3]time.Duration{5, 10, 10}},
		{100, [3]time.Duration{50, 95, 99}},
	} {
		n, w := tc.n, tc.w
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		for k, q := range []float64{0.5, 0.95, 0.99} {
			t.Run(fmt.Sprintf("n=%d/q=%v", n, q), func(t *testing.T) {
				if got := percentile(sorted, q); got != w[k]*time.Millisecond {
					t.Fatalf("percentile(1..%d ms, %v) = %v, want %v", n, q, got, w[k]*time.Millisecond)
				}
			})
		}
	}
}
