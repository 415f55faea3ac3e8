# Development entry points. CI runs `make check`; `make bench` regenerates
# the performance-trajectory baseline committed as BENCH_pr10.json.

# pipefail so a failing benchmark run fails the bench target instead of
# being masked by tee's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO ?= go

# Benchmarks tracked as the perf baseline: the Figure 5 scaling workloads
# (one solve per op on the serial kernels, the paper's single-core
# setting), the isolated zero-alloc power-loop body, CSR assembly, the
# Engine serving paths, the sharded-router scaling curves, the warm
# re-rank allocation profile on paged copy-on-write storage,
# the durable WAL append path per fsync policy (always / interval / off) —
# the write-path overhead record — the staleness-bounded read path under
# steady writes (StaleRank: bound=0 inline baseline vs bounded stale
# serving), the pooled zero-alloc warm HnD-power solve itself
# (WarmSolveKernel), its zero-alloc orientation pass alone
# (OrientDeciles: decile selection and group entropies on 2,000 users),
# and the zero-alloc U·s apply on servebench write-rank's matrix shape
# (ApplyU, also in ns per non-zero).
BENCH_PATTERN ?= Fig5aScaleUsers|Fig5bScaleQuestions|HNDPowerInnerLoop|EngineSnapshot|EngineWarmVsCold|NewCSRAssembly|ShardedObserve|ShardedRank|WarmRerankAllocs|WALAppend|StaleRank|WarmSolveKernel|OrientDeciles|ApplyU
BENCH_TIME ?= 1x
BENCH_OUT ?= BENCH_pr10.json

# Serving-tier smoke: scripts/serve_bench.sh starts hndserver, drives it
# with the hndload closed-loop generator (zipfian tenants, mixed
# read/write), converts the latency/throughput lines to JSON, and asserts
# a clean SIGTERM drain; serve-smoke asserts non-zero throughput, adds a
# write-burst leg under -max-staleness 16 (stale-ratio must be > 0 and the
# bound must hold) and runs scripts/serve_crash.sh, the kill-9-and-recover
# leg for durable mode.

.PHONY: build test check bench serve-smoke servebench-smoke handoff-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -count=2 re-runs every test in the same process, so state leaking
# between runs through the caches (the matrix pages' one-hot patterns, the
# engine's generation-keyed results) fails the second pass; -race covers
# the page copy-on-write protocol itself; -shuffle=on randomizes test
# order so inter-test ordering dependencies (shared package state, leaked
# goroutines) surface.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -count=2 -race -shuffle=on ./...

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) -timeout 30m . ./internal/core/ ./internal/mat/ ./internal/durable/ | tee bench.out
	$(GO) run ./cmd/bench2json < bench.out > $(BENCH_OUT)
	@rm -f bench.out
	@echo "wrote $(BENCH_OUT)"

serve-smoke:
	DURATION=2s TENANTS=3 USERS=400 CONCURRENCY=16 scripts/serve_bench.sh serve_smoke.json
	@python3 -c 'import json,sys; rows=json.load(open("serve_smoke.json"))["benchmarks"]; tp=[b["metrics"]["req/s"] for b in rows if "req/s" in b["metrics"]]; sys.exit(0 if tp and all(v>0 for v in tp) else ("serve-smoke: zero throughput: %s" % rows))' \
	  && echo "serve-smoke: non-zero throughput + clean drain confirmed"
	@rm -f serve_smoke.json
	# Write-burst leg under a staleness bound: a write-heavy mix must
	# actually serve stale (ratio > 0) while hndload's own -max-staleness
	# assertion proves the bound is never exceeded.
	MAX_STALENESS=16 DURATION=2s TENANTS=3 USERS=400 CONCURRENCY=16 READRATIO=0.5 \
	  scripts/serve_bench.sh serve_smoke_stale.json
	@python3 -c 'import json,sys; rows=json.load(open("serve_smoke_stale.json"))["benchmarks"]; sr=[b["metrics"]["stale-ratio"] for b in rows if "stale-ratio" in b["metrics"]]; sys.exit(0 if sr and all(v>0 for v in sr) else ("serve-smoke: write burst served no stale ranks: %s" % rows))' \
	  && echo "serve-smoke: stale serving under write burst + bound held confirmed"
	@rm -f serve_smoke_stale.json
	scripts/serve_crash.sh

# Serving-benchmark smoke: scripts/servebench_smoke.sh runs one second of
# each BENCHMARK.json workload through servebench/run.sh and fails unless
# the last stdout line is a correct JSON result carrying every bounded
# end-to-end metric — the line a comparison of benchmark runs reads.
servebench-smoke:
	scripts/servebench_smoke.sh

# Cross-process shard-handoff smoke: the headline crash-matrix and
# bitwise-equivalence tests under -race, then the two-server HTTP
# migration with a kill -9 mid-fence (scripts/serve_handoff.sh).
handoff-smoke:
	$(GO) test -run Handoff -count=1 -race ./internal/handoff/ ./internal/serve/
	scripts/serve_handoff.sh

clean:
	rm -f bench.out serve_smoke.json
