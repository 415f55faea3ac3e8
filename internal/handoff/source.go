package handoff

import (
	"fmt"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/response"
)

// ShardSource is what the exporter reads from the moving shard of a
// ShardedEngine backed by a durable log: a consistent copy-on-write
// snapshot, fence control over the shard's write path, and the WAL tail
// past a generation. A one-shard tenant moves as its shard 0.
type ShardSource struct {
	// Engine is the sharded router owning the moving shard.
	Engine *hitsndiffs.ShardedEngine
	// Shard is the moving shard's index.
	Shard int
	// Log is the shard's durable log — the WAL the tail ships from.
	Log *durable.Log
}

// Snapshot returns the shard's matrix as an O(1) copy-on-write view. It
// is immutable but not fenced: writes landing after it reach the bundle
// through Tail.
func (s ShardSource) Snapshot() (*response.Matrix, error) {
	m, _, err := s.Engine.ShardView(s.Shard)
	return m, err
}

// Fence stops the shard's writes through FenceShard, which returns only
// after in-flight writes have fully committed, so the WAL frontier is
// final.
func (s ShardSource) Fence() { _ = s.Engine.FenceShard(s.Shard, true) }

// Unfence resumes the shard's writes after an aborted handoff.
func (s ShardSource) Unfence() { _ = s.Engine.FenceShard(s.Shard, false) }

// Tail returns the shard's WAL records from generation since (inclusive)
// to the frontier, verifying the chain is gapless (durable.Log.TailSince).
func (s ShardSource) Tail(since uint64) ([]durable.Record, error) {
	if s.Log == nil {
		return nil, fmt.Errorf("handoff: shard %d has no durable log", s.Shard)
	}
	return s.Log.TailSince(since)
}
