// Package durable is the persistence layer behind the serving engines: a
// per-matrix write-ahead log of observations plus generation-stamped
// binary snapshots of the response matrix, with crash recovery that
// restores exactly the durable prefix of the write history or fails
// loudly — never a silently wrong matrix.
//
// One Log owns one directory and persists one response matrix: one shard
// of a tenant, which for a one-shard tenant is the whole matrix. The
// directory holds:
//
//	snap-<gen>.hnds   binary snapshots (internal/response's WriteBinary
//	                  format, CRC32-C checksummed), named by the write
//	                  generation they capture
//	wal-<gen>.hndw    write-ahead log segments of length-prefixed,
//	                  CRC32-C-framed observation records, named by the
//	                  generation the segment starts at
//
// The write protocol is WAL-before-state: the engine appends a record
// (stamped with the matrix generation it applies at) before the in-memory
// mutation commits, so every acknowledged write is on disk first under the
// fsync-always policy, and within one fsync window otherwise. Snapshots
// are written from O(1) copy-on-write views, so they never block writers;
// each snapshot rotates the active WAL segment and prunes segments wholly
// covered by it.
//
// Recovery (Open) loads the newest snapshot that passes its checksum
// (falling back to older ones), replays the WAL records past the snapshot
// generation in order, truncates a torn trailing record, and rejects
// mid-file corruption or generation gaps with a hard error. The recovered
// matrix is bitwise-equal in content and generation to the never-crashed
// run's durable prefix (see TestRecoveredStateBitwiseEqual).
package durable

import (
	"fmt"
	"time"
)

// Op is one (user, item, option) observation in a WAL record. Option is
// the chosen option index, or response.Unanswered (-1) for a retraction —
// the same contract as Engine.Observe.
type Op struct {
	// User is the responding user's index (shard-local for sharded logs).
	User int
	// Item is the answered item's index.
	Item int
	// Option is the chosen option index, or -1 to retract.
	Option int
}

// Record is one durable write: a batch of observations applied atomically
// at a known matrix generation. Gen is the matrix's write generation
// immediately before the batch applies; applying the batch advances it to
// Gen+len(Ops) (every SetAnswer bumps the generation by one).
type Record struct {
	// Gen is the matrix generation the batch applies at.
	Gen uint64
	// Ops are the observations, applied in order.
	Ops []Op
}

// end returns the matrix generation after the record applies.
func (r Record) end() uint64 { return r.Gen + uint64(len(r.Ops)) }

// FsyncMode selects when the WAL writer flushes appended records to
// stable storage.
type FsyncMode int

// The three fsync policies, trading write latency for durability window:
// FsyncAlways syncs after every append (an acknowledged write is on disk),
// FsyncInterval syncs on a background timer (crash loses at most one
// interval), FsyncOff leaves flushing to the OS (crash loses the page
// cache; the CRC framing still guarantees recovery of a valid prefix).
const (
	// FsyncAlways syncs the WAL after every append.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs the WAL on a background timer.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS flushes when it pleases.
	FsyncOff
)

// String names the mode the way ParsePolicy spells it.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// DefaultFsyncInterval is the timer period FsyncInterval uses when the
// policy does not name one.
const DefaultFsyncInterval = 100 * time.Millisecond

// Policy is a complete fsync policy: a mode plus the timer period for
// FsyncInterval. The zero value is FsyncAlways.
type Policy struct {
	// Mode selects when appends are flushed.
	Mode FsyncMode
	// Interval is the FsyncInterval timer period (DefaultFsyncInterval
	// when zero); ignored by the other modes.
	Interval time.Duration
}

// String formats the policy the way ParsePolicy accepts it.
func (p Policy) String() string {
	if p.Mode == FsyncInterval {
		return fmt.Sprintf("interval=%v", p.intervalOrDefault())
	}
	return p.Mode.String()
}

// intervalOrDefault returns the effective FsyncInterval period.
func (p Policy) intervalOrDefault() time.Duration {
	if p.Interval > 0 {
		return p.Interval
	}
	return DefaultFsyncInterval
}

// ParsePolicy parses a policy flag value: "always", "off", "interval"
// (default period), or "interval=<duration>" (e.g. "interval=250ms").
func ParsePolicy(s string) (Policy, error) {
	switch {
	case s == "always" || s == "":
		return Policy{Mode: FsyncAlways}, nil
	case s == "off":
		return Policy{Mode: FsyncOff}, nil
	case s == "interval":
		return Policy{Mode: FsyncInterval}, nil
	case len(s) > len("interval=") && s[:len("interval=")] == "interval=":
		d, err := time.ParseDuration(s[len("interval="):])
		if err != nil || d <= 0 {
			return Policy{}, fmt.Errorf("durable: bad fsync interval %q", s)
		}
		return Policy{Mode: FsyncInterval, Interval: d}, nil
	}
	return Policy{}, fmt.Errorf("durable: unknown fsync policy %q (want always, interval[=dur], off)", s)
}

// RecoveryStats reports what one Open recovered, for /metrics and tests.
type RecoveryStats struct {
	// SnapshotGeneration is the generation of the snapshot recovery
	// loaded; zero when no (valid) snapshot existed.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// SnapshotsSkipped counts newer snapshots that failed their checksum
	// and were passed over for an older valid one.
	SnapshotsSkipped int `json:"snapshots_skipped"`
	// ReplayedRecords is the number of WAL records applied past the
	// snapshot; ReplayedOps the observations inside them.
	ReplayedRecords int `json:"replayed_records"`
	// ReplayedOps counts replayed observations (see ReplayedRecords).
	ReplayedOps int `json:"replayed_ops"`
	// TruncatedBytes is the size of the torn trailing record dropped from
	// the WAL tail (zero for a clean shutdown).
	TruncatedBytes int64 `json:"truncated_bytes"`
	// RecoveredGeneration is the matrix write generation after recovery —
	// snapshot generation plus replayed ops.
	RecoveredGeneration uint64 `json:"recovered_generation"`
}

// Stats is a point-in-time snapshot of one Log's counters, cumulative
// since Open.
type Stats struct {
	// Generation is the matrix write generation of the last append.
	Generation uint64 `json:"generation"`
	// SnapshotGeneration is the generation of the newest durable snapshot.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Appends counts WAL records appended; AppendedBytes their framed size.
	Appends uint64 `json:"appends"`
	// AppendedBytes counts WAL bytes written (see Appends).
	AppendedBytes uint64 `json:"appended_bytes"`
	// Fsyncs counts explicit WAL fsyncs (per-append or interval-timer).
	Fsyncs uint64 `json:"fsyncs"`
	// Snapshots counts snapshots written since Open (the one Open itself
	// writes included).
	Snapshots uint64 `json:"snapshots"`
	// Recovery reports what Open recovered.
	Recovery RecoveryStats `json:"recovery"`
}

// Add accumulates o into s — the aggregation the serving tier uses to
// fold per-shard logs into one tenant view.
func (s *Stats) Add(o Stats) {
	s.Generation += o.Generation
	s.SnapshotGeneration += o.SnapshotGeneration
	s.Appends += o.Appends
	s.AppendedBytes += o.AppendedBytes
	s.Fsyncs += o.Fsyncs
	s.Snapshots += o.Snapshots
	s.Recovery.SnapshotGeneration += o.Recovery.SnapshotGeneration
	s.Recovery.SnapshotsSkipped += o.Recovery.SnapshotsSkipped
	s.Recovery.ReplayedRecords += o.Recovery.ReplayedRecords
	s.Recovery.ReplayedOps += o.Recovery.ReplayedOps
	s.Recovery.TruncatedBytes += o.Recovery.TruncatedBytes
	s.Recovery.RecoveredGeneration += o.Recovery.RecoveredGeneration
}
