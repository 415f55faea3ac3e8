package main

import (
	"fmt"
	"math/rand"
	"strings"
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

// TestValidateFlags pins the usage errors main reports before its first
// request: no tenants, users, items or workers, fewer than 2 options, an
// empty write batch, a non-positive duration, or a handoff without a
// bundle directory.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*loadFlags)
		want string // substring of the expected error; empty = valid
	}{
		{name: "defaults"},
		{name: "one-tenant-one-worker", set: func(f *loadFlags) { f.tenants, f.concurrency = 1, 1 }},
		{name: "zero-tenants", set: func(f *loadFlags) { f.tenants = 0 }, want: "-tenants"},
		{name: "negative-tenants", set: func(f *loadFlags) { f.tenants = -1 }, want: "-tenants"},
		{name: "zero-concurrency", set: func(f *loadFlags) { f.concurrency = 0 }, want: "-concurrency"},
		{name: "negative-concurrency", set: func(f *loadFlags) { f.concurrency = -3 }, want: "-concurrency"},
		{name: "handoff-without-bundle", set: func(f *loadFlags) { f.handoffPeer = "http://127.0.0.1:9" }, want: "-handoff-bundle"},
		{name: "handoff-with-bundle", set: func(f *loadFlags) { f.handoffPeer, f.handoffBundle = "http://127.0.0.1:9", "bundles" }},
		{name: "bundle-without-handoff", set: func(f *loadFlags) { f.handoffBundle = "bundles" }},
		{name: "one-user-one-item-two-options", set: func(f *loadFlags) { f.users, f.items, f.options = 1, 1, 2 }},
		{name: "zero-users", set: func(f *loadFlags) { f.users = 0 }, want: "-users"},
		{name: "zero-items", set: func(f *loadFlags) { f.items = 0 }, want: "-items"},
		{name: "one-option", set: func(f *loadFlags) { f.options = 1 }, want: "-options"},
		{name: "zero-writebatch", set: func(f *loadFlags) { f.writeBatch = 0 }, want: "-writebatch"},
		{name: "negative-writebatch", set: func(f *loadFlags) { f.writeBatch = -4 }, want: "-writebatch"},
		{name: "zero-duration", set: func(f *loadFlags) { f.duration = 0 }, want: "-duration"},
		{name: "negative-duration", set: func(f *loadFlags) { f.duration = -time.Second }, want: "-duration"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The flag defaults of main.
			f := loadFlags{tenants: 8, users: 2000, items: 64, options: 3, concurrency: 64, writeBatch: 1, duration: 10 * time.Second}
			if tc.set != nil {
				tc.set(&f)
			}
			err := validateFlags(f)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error naming %s", err, tc.want)
			}
		})
	}
}
