package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins the usage errors main reports before it listens:
// a shard or tenant cap below 1, a negative write or lag bound, a negative
// refresh interval, and a non-positive drain timeout.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*serverFlags)
		want string // substring of the expected error; empty = valid
	}{
		{name: "defaults"},
		{name: "unbounded-writes-and-lag", set: func(f *serverFlags) { f.maxWrites, f.maxLag = 0, 0 }},
		{name: "bounded-lag", set: func(f *serverFlags) { f.maxLag = 8 }},
		{name: "one-tenant-four-shards", set: func(f *serverFlags) { f.maxTenants, f.shards = 1, 4 }},
		{name: "explicit-refresh-interval", set: func(f *serverFlags) { f.refreshInterval = 5 * time.Millisecond }},
		{name: "zero-shards", set: func(f *serverFlags) { f.shards = 0 }, want: "-shards"},
		{name: "negative-shards", set: func(f *serverFlags) { f.shards = -2 }, want: "-shards"},
		{name: "negative-maxwrites", set: func(f *serverFlags) { f.maxWrites = -1 }, want: "-maxwrites"},
		{name: "negative-maxlag", set: func(f *serverFlags) { f.maxLag = -1 }, want: "-maxlag"},
		{name: "zero-maxtenants", set: func(f *serverFlags) { f.maxTenants = 0 }, want: "-maxtenants"},
		{name: "negative-maxtenants", set: func(f *serverFlags) { f.maxTenants = -5 }, want: "-maxtenants"},
		{name: "negative-refresh-interval", set: func(f *serverFlags) { f.refreshInterval = -time.Millisecond }, want: "-refresh-interval"},
		{name: "zero-drain-timeout", set: func(f *serverFlags) { f.drainTimeout = 0 }, want: "-drain-timeout"},
		{name: "negative-drain-timeout", set: func(f *serverFlags) { f.drainTimeout = -time.Second }, want: "-drain-timeout"},
		{name: "fsync-off", set: func(f *serverFlags) { f.fsync = "off" }},
		{name: "fsync-interval", set: func(f *serverFlags) { f.fsync = "interval=5ms" }},
		{name: "bogus-fsync", set: func(f *serverFlags) { f.fsync = "bogus" }, want: "-fsync"},
		{name: "zero-fsync-interval", set: func(f *serverFlags) { f.fsync = "interval=0s" }, want: "-fsync"},
		{name: "unknown-method", set: func(f *serverFlags) { f.method = "nope" }, want: "-method"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The flag defaults of main.
			f := serverFlags{method: "HnD-power", fsync: "always", shards: 1, maxWrites: 64, maxTenants: 1024, drainTimeout: 15 * time.Second}
			if tc.set != nil {
				tc.set(&f)
			}
			_, err := validateFlags(f)
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
