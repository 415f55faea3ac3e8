package main

// layers fills the per-layer metrics of a traced run from the untraced
// reference pass (the /metrics counters and runtime counters around its
// stream), pass 1's client and handler spans (h) and pass 2's replay
// spans (r). A layer the workload does not run reads 0.
func (rep *report) layers(p *plan, ref, pass1 *streamRun, h, r *spanIndex) {
	p50 := func(xs []float64) float64 { v, _ := quantile(xs, 500); return v }
	isRank := func(op int) bool { return p.ops[op].kind == opRank }

	// serve: handler spans per request, the client's span around them,
	// and the replayed engine calls of the same op.
	var hRank, hWrite, wait, self []float64
	for op, s := range h.byOp["serve.handle"] {
		d := ms(s.dur())
		if c, ok := h.byOp["client"][op]; ok {
			wait = append(wait, ms(c.dur())-d)
		}
		if !isRank(op) {
			hWrite = append(hWrite, d)
			continue
		}
		hRank = append(hRank, d)
		for _, name := range []string{"engine.rank_hit", "engine.rank_miss"} {
			if x, ok := r.byOp[name][op]; ok {
				self = append(self, d-ms(x.dur()))
			}
		}
	}
	rep.add("serve.handle_rank_ms_p50", "ms", p50(hRank))
	rep.add("serve.handle_observe_ms_p50", "ms", p50(hWrite))
	rep.add("serve.self_rank_ms_p50", "ms", p50(self))
	rep.add("serve.wait_ms_p50", "ms", p50(wait))

	var sizes, stale []float64
	ranks, writes := 0.0, 0.0
	for i, x := range ref.res {
		switch {
		case !x.ok:
		case isRank(i):
			ranks++
			sizes = append(sizes, float64(x.size))
			stale = append(stale, float64(x.staleness))
		default:
			writes++
		}
	}
	rep.add("serve.rank_kb", "KB", mean(sizes)/1024)

	delta := func(path ...string) (float64, bool) {
		a, ok1 := num(ref.after, path...)
		b, ok2 := num(ref.before, path...)
		return a - b, ok1 && ok2
	}
	tenantDelta := func(path ...string) (float64, bool) {
		a, ok1 := tenantSum(ref.after, path...)
		b, ok2 := tenantSum(ref.before, path...)
		return a - b, ok1 && ok2
	}
	leaders, ok1 := delta("rank_leaders")
	coalesced, ok2 := delta("rank_coalesced")
	rep.addIf("serve.coalesced_ratio", "1", ratio(coalesced, leaders+coalesced), ok1 && ok2)

	// engine
	hits, ok1 := tenantDelta("engine", "cache_hits")
	misses, ok2 := tenantDelta("engine", "cache_misses")
	rep.add("engine.rank_hit_ms_p50", "ms", p50(r.durations("engine.rank_hit", false)))
	rep.addIf("engine.cache_hit_ratio", "1", ratio(hits, hits+misses), ok1 && ok2)
	rep.addIf("engine.solves", "count", misses, ok2)
	rep.add("engine.observe_ms_p50", "ms", p50(r.durations("engine.observe", true)))
	rep.add("engine.observe_alloc_kb", "KB", mean(r.values("engine.observe", allocOf))/1024)

	// response
	normDelta, ok1 := tenantDelta("engine", "norm_delta_rebuilds")
	normFull, ok2 := tenantDelta("engine", "norm_full_rebuilds")
	rep.add("response.normalize_ms_p50", "ms", p50(r.durations("response.normalize", false)))
	rep.addIf("response.norm_delta_ratio", "1", ratio(normDelta, normDelta+normFull), ok1 && ok2)

	// core: a missing Engine.Rank less the splice it began with
	var solves, iters, rankAllocs []float64
	if !p.w.durable {
		for op, x := range r.byOp["engine.rank_miss"] {
			splice := r.byOp["response.normalize"][op]
			solves = append(solves, ms(x.dur()-splice.dur()))
			iters = append(iters, float64(x.val))
			rankAllocs = append(rankAllocs, float64(x.alloc))
		}
	}
	rep.add("core.solve_ms_p50", "ms", p50(solves))
	p99, ok := quantile(solves, 990)
	if !ok {
		p99 = 0
		if len(solves) > 0 {
			rep.notef("core.solve_ms_p99 unsupported: %d solves leave fewer than %d beyond it", len(solves), minBeyond)
		}
	}
	rep.add("core.solve_ms_p99", "ms", p99)
	rep.add("core.iters_per_solve", "iters", mean(iters))
	rep.add("core.ms_per_iter", "ms", ratio(sum(solves), sum(iters)))
	rep.add("core.rank_alloc_kb", "KB", mean(rankAllocs)/1024)

	// sharding
	rep.add("sharding.observe_ms_p50", "ms", p50(r.durations("sharding.observe", true)))
	rep.add("sharding.solve_ms_p50", "ms", p50(r.durations("sharding.solve", false)))
	rep.add("sharding.merge_ms_p50", "ms", p50(r.durations("sharding.merge", false)))
	rep.add("sharding.shards_per_refresh", "count", mean(r.values("sharding.solve", valOf)))

	// refresh
	rep.add("refresh.round_ms_p50", "ms", p50(r.durations("refresh.round", false)))
	if p.w.refreshEvery > 0 {
		rounds, ok1 := delta("refresh", "rounds")
		refreshes, ok2 := delta("refresh", "refreshes")
		rep.addIf("refresh.refreshes_per_round", "1", ratio(refreshes, rounds), ok1 && ok2)
	} else {
		rep.add("refresh.refreshes_per_round", "1", 0)
	}
	staleServes, ok := delta("stale_serves")
	rep.addIf("refresh.stale_serve_ratio", "1", ratio(staleServes, ranks), ok)
	rep.add("refresh.staleness_mean_gen", "generations", mean(stale))

	// durable
	appends := r.durations("durable.append", false)
	rep.add("durable.append_ms_p50", "ms", p50(appends))
	p99, ok = quantile(appends, 990)
	if !ok {
		p99 = 0
	}
	rep.add("durable.append_ms_p99", "ms", p99)
	if p.w.durable {
		bytes, ok1 := tenantDelta("durability", "stats", "appended_bytes")
		obs, ok2 := delta("observations")
		fsyncs, ok3 := tenantDelta("durability", "stats", "fsyncs")
		rep.addIf("durable.bytes_per_obs", "B", ratio(bytes, obs), ok1 && ok2)
		rep.addIf("durable.fsyncs_per_write", "1", ratio(fsyncs, writes), ok3)
	} else {
		rep.add("durable.bytes_per_obs", "B", 0)
		rep.add("durable.fsyncs_per_write", "1", 0)
	}
	rep.add("durable.snapshot_ms_p50", "ms", p50(r.durations("durable.snapshot", false)))
	rep.add("durable.recover_s", "s", sum(r.durations("durable.recover", false))/1000)

	// runtime, over the untraced stream
	kops := float64(len(ref.res)) / 1000
	rep.add("runtime.gc_per_kop", "1/kop", float64(ref.rt1.gcCycles-ref.rt0.gcCycles)/kops)
	rep.add("runtime.alloc_mb_per_op", "MB", float64(ref.rt1.allocBytes-ref.rt0.allocBytes)/float64(len(ref.res))/(1<<20))

	// tracing overhead: pass 1 against the untraced reference pass
	refRate, tracedRate := ref.opsPerSecond(true), pass1.opsPerSecond(true)
	rep.add("trace.overhead_pct", "%", 100*(1-tracedRate/refRate))
	rep.notef("tracing overhead: pass 1 %.1f ops/s vs untraced %.1f ops/s, both at the reference host speed", tracedRate, refRate)
}

func allocOf(s span) float64 { return float64(s.alloc) }
func valOf(s span) float64   { return float64(s.val) }

// values maps every span of the given name through f.
func (ix *spanIndex) values(name string, f func(span) float64) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.name == name {
			out = append(out, f(s))
		}
	}
	return out
}
