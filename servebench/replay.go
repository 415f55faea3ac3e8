package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/durable"
	"hitsndiffs/internal/refresh"
	"hitsndiffs/internal/serve"
	"hitsndiffs/internal/testclock"
)

// engineOptions are the options the serve tier builds a tenant's engine
// with under the benchmark's serve.Config.
func engineOptions(w *workload) []hitsndiffs.EngineOption {
	opts := []hitsndiffs.EngineOption{hitsndiffs.WithMethod("HnD-power"), hitsndiffs.WithRankOptions()}
	if w.maxStale > 0 {
		opts = append(opts, hitsndiffs.WithMaxStaleness(w.maxStale))
	}
	if w.shards > 1 {
		opts = append(opts, hitsndiffs.WithShards(w.shards))
	}
	return opts
}

func observations(cs []cell) []hitsndiffs.Observation {
	obs := make([]hitsndiffs.Observation, len(cs))
	for i, c := range cs {
		obs[i] = hitsndiffs.Observation{User: c.user, Item: c.item, Option: c.option}
	}
	return obs
}

// replayer is pass 2 of the traced run: the same set-up and op stream
// driven through the serve tier's building blocks in-process, one span
// per call named in the layer table.
type replayer struct {
	p       *plan
	tr      *tracer
	ctx     context.Context
	engines []*hitsndiffs.Engine      // unsharded tenants
	se      *hitsndiffs.ShardedEngine // the durable workload's tenant
	logs    []*durable.Log
}

// replay runs pass 2, keeping its durable files under dir.
func replay(p *plan, tr *tracer, dir string) error {
	r := &replayer{p: p, tr: tr, ctx: context.Background()}
	defer r.closeLogs()
	if p.w.durable {
		if err := r.setupDurable(dir); err != nil {
			return err
		}
	} else if err := r.setupEngines(); err != nil {
		return err
	}
	var clk *testclock.Fake
	var sched *refresh.Scheduler
	if p.w.refreshEvery > 0 {
		clk = testclock.NewFake()
		sched = refresh.New(refresh.Config{Clock: clk, Interval: refreshInterval})
		defer sched.Close()
		sched.Register(p.tenants[0].name, &tracedTarget{se: r.se, tr: tr})
		clk.BlockUntilTickers(1)
	}
	since := 0 // observations since the last snapshot
	for i, o := range p.ops {
		var err error
		switch {
		case o.kind == opRank && r.se == nil:
			err = r.rankEngine(i, r.engines[o.tenant])
		case o.kind == opRank:
			err = r.rankSharded(i)
			if sched != nil {
				sched.NoteTraffic(p.tenants[0].name)
			}
		case r.se == nil:
			err = r.observe(i, "engine.observe", r.engines[o.tenant].ObserveBatch, o.cells)
		default:
			err = r.observe(i, "sharding.observe", r.se.ObserveBatch, o.cells)
			if since += len(o.cells); err == nil && since >= serve.DefaultSnapshotEvery {
				since = 0
				err = r.snapshot()
			}
		}
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		if every := p.w.refreshEvery; every > 0 && (i+1)%every == 0 {
			want := sched.Metrics().Rounds + 1
			start := time.Now()
			clk.Advance(refreshInterval)
			for sched.Metrics().Rounds < want {
				runtime.Gosched()
			}
			tr.add("refresh.round", -1, -1, start, time.Now())
		}
	}
	return nil
}

// setupEngines builds one plain engine per tenant, loads it as the HTTP
// set-up does, and ranks it once.
func (r *replayer) setupEngines() error {
	for _, td := range r.p.tenants {
		eng, err := hitsndiffs.NewEngine(hitsndiffs.NewResponseMatrix(td.users, items, td.options), engineOptions(r.p.w)...)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(td.setup); lo += loadChunk {
			if err := eng.ObserveBatch(observations(td.setup[lo:min(lo+loadChunk, len(td.setup))])); err != nil {
				return err
			}
		}
		if _, err := eng.Rank(r.ctx); err != nil {
			return err
		}
		r.engines = append(r.engines, eng)
	}
	return nil
}

// setupDurable pre-writes shard logs with the set-up load (untimed), then
// recovers a copy of them into a fresh sharded engine, timing the
// durable.Open of every shard log, and ranks once.
func (r *replayer) setupDurable(dir string) error {
	td := r.p.tenants[0]
	pristine, run := filepath.Join(dir, "pristine"), filepath.Join(dir, "run")
	se, err := r.openSharded(pristine, false)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(td.setup); lo += loadChunk {
		if err := se.ObserveBatch(observations(td.setup[lo:min(lo+loadChunk, len(td.setup))])); err != nil {
			return err
		}
	}
	r.closeLogs()
	if err := copyDir(pristine, run); err != nil {
		return err
	}
	if r.se, err = r.openSharded(run, true); err != nil {
		return err
	}
	_, err = r.se.Rank(r.ctx)
	return err
}

// openSharded builds the tenant's sharded engine and attaches one durable
// log per shard under dir (recovering what is there), as the serve tier
// does. With traced set, the opens form one durable.recover span and
// appends are traced through the write hook.
func (r *replayer) openSharded(dir string, traced bool) (*hitsndiffs.ShardedEngine, error) {
	td := r.p.tenants[0]
	se, err := hitsndiffs.NewShardedEngine(hitsndiffs.NewResponseMatrix(td.users, items, td.options), engineOptions(r.p.w)...)
	if err != nil {
		return nil, err
	}
	r.logs = make([]*durable.Log, se.Shards())
	recovered := make([]*hitsndiffs.ResponseMatrix, se.Shards())
	var tr *tracer // traces the appends; nil while pre-writing
	id := -1
	if traced {
		tr = r.tr
		id = tr.begin("durable.recover", -1, -1, false)
	}
	for sh := range r.logs {
		geom := durable.Geometry{Users: len(se.UsersOf(sh)), Items: items, Options: []int{td.options}}
		l, rec, _, err := durable.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", sh)), geom, durable.Policy{})
		if err != nil {
			return nil, err
		}
		r.logs[sh], recovered[sh] = l, rec
	}
	if traced {
		tr.end(id)
	}
	for sh, l := range r.logs {
		if err := se.RestoreShard(sh, recovered[sh]); err != nil {
			return nil, err
		}
		if err := se.SetShardDurability(sh, walHook(l, tr)); err != nil {
			return nil, err
		}
	}
	return se, nil
}

func (r *replayer) closeLogs() {
	for _, l := range r.logs {
		if l != nil {
			l.Close()
		}
	}
	r.logs = nil
}

// walHook is the serve tier's write hook, with the append traced as a
// child of the ObserveBatch span in flight.
func walHook(l *durable.Log, tr *tracer) hitsndiffs.WriteHook {
	return func(gen uint64, obs []hitsndiffs.Observation) error {
		ops := make([]durable.Op, len(obs))
		for i, o := range obs {
			ops[i] = durable.Op{User: o.User, Item: o.Item, Option: o.Option}
		}
		if tr == nil {
			return l.Append(gen, ops)
		}
		op, parent := tr.current()
		id := tr.begin("durable.append", op, parent, false)
		err := l.Append(gen, ops)
		tr.end(id)
		return err
	}
}

// observe replays one write through an ObserveBatch.
func (r *replayer) observe(i int, name string, batch func([]hitsndiffs.Observation) error, cs []cell) error {
	obs := observations(cs)
	id := r.tr.begin(name, i, -1, true)
	r.tr.setCurrent(i, id)
	err := batch(obs)
	r.tr.end(id)
	r.tr.setCurrent(-1, -1)
	return err
}

// snapshot checkpoints every shard from copy-on-write views, as the serve
// tier does every serve.DefaultSnapshotEvery observations.
func (r *replayer) snapshot() error {
	id := r.tr.begin("durable.snapshot", -1, -1, false)
	defer r.tr.end(id)
	views, _ := r.se.View()
	for sh, v := range views {
		if err := r.logs[sh].WriteSnapshot(v); err != nil {
			return err
		}
	}
	return nil
}

// rankEngine replays a rank of a plain engine, labelled a cache hit or a
// miss by the engine's miss counter. Before a miss (the matrix moved past
// the served generation) the normalized splice the rank is about to do is
// timed on a copy-on-write clone of the view, so the engine's own memo and
// write delta stay as the serve tier leaves them.
func (r *replayer) rankEngine(i int, eng *hitsndiffs.Engine) error {
	before := eng.Metrics()
	if before.Generation != before.ServedGeneration {
		v, _ := eng.View()
		spliceNormalized(r.tr, i, v.Clone())
	}
	id := r.tr.begin("engine.rank", i, -1, true)
	res, err := eng.Rank(r.ctx)
	r.tr.end(id)
	if err != nil {
		return err
	}
	if eng.Metrics().CacheMisses > before.CacheMisses {
		r.tr.rename(id, "engine.rank_miss", res.Iterations)
	} else {
		r.tr.rename(id, "engine.rank_hit", 0)
	}
	return nil
}

// spliceNormalized times the touched-rows normalized splice of clones of
// the matrices a solve is about to rank.
func spliceNormalized(tr *tracer, op int, matrices ...*hitsndiffs.ResponseMatrix) {
	id := tr.begin("response.normalize", op, -1, false)
	for _, m := range matrices {
		m.Normalized()
	}
	tr.end(id)
}

// rankSharded replays a rank of the sharded tenant; under the staleness
// bound it is a merged-cache serve unless the bound trips.
func (r *replayer) rankSharded(i int) error {
	misses := r.se.Metrics().CacheMisses
	id := r.tr.begin("engine.rank", i, -1, true)
	res, err := r.se.Rank(r.ctx)
	r.tr.end(id)
	if err != nil {
		return err
	}
	if r.se.Metrics().CacheMisses > misses {
		r.tr.rename(id, "engine.rank_miss", res.Iterations)
	} else {
		r.tr.rename(id, "engine.rank_hit", 0)
	}
	return nil
}

// tracedTarget is the refresh target of pass 2. A round's refresh is
// split into its layers: RankAll over the stale shards (which splices and
// solves them), then the Refresh that merges the now-cached shard scores.
// The shards' normalized splices are timed first on clones of their views.
type tracedTarget struct {
	se *hitsndiffs.ShardedEngine
	tr *tracer
}

// Generation implements refresh.Target.
func (t *tracedTarget) Generation() uint64 { return t.se.Generation() }

// Refresh implements refresh.Target.
func (t *tracedTarget) Refresh(ctx context.Context) (hitsndiffs.Result, error) {
	views, _ := t.se.View()
	for i, v := range views {
		views[i] = v.Clone()
	}
	spliceNormalized(t.tr, -1, views...)
	misses := shardMisses(t.se)
	id := t.tr.begin("sharding.solve", -1, -1, true)
	_, err := t.se.RankAll(ctx)
	t.tr.end(id)
	if err != nil {
		return hitsndiffs.Result{}, err
	}
	t.tr.rename(id, "sharding.solve", int(shardMisses(t.se)-misses))
	id = t.tr.begin("sharding.merge", -1, -1, false)
	defer t.tr.end(id)
	return t.se.Refresh(ctx)
}

func shardMisses(se *hitsndiffs.ShardedEngine) uint64 {
	var n uint64
	for _, m := range se.ShardMetrics() {
		n += m.CacheMisses
	}
	return n
}
