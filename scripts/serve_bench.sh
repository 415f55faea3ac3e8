#!/usr/bin/env bash
# serve_bench.sh — end-to-end serving-tier benchmark: start hndserver,
# drive it with the hndload closed-loop generator, convert the emitted
# go-bench lines to JSON, and verify the server drains cleanly on SIGTERM.
# `make serve-smoke` runs it in CI; the serving benchmark whose numbers
# are compared across changes is servebench (see BENCHMARK.json).
#
# Usage: scripts/serve_bench.sh [out.json]
#
# Tunables (env): SHARDS (4), TENANTS (6), USERS (1200), DURATION (5s),
# CONCURRENCY (32), READRATIO (0.9), MAX_STALENESS (0),
# ADDR (127.0.0.1:8791). The defaults are a 4-shard server under mixed
# read/write traffic across zipfian-sized tenants. With MAX_STALENESS > 0 the server serves
# staleness-bounded ranks refreshed in the background, and hndload
# asserts the bound is never exceeded (it exits non-zero on violation).
set -euo pipefail

OUT="${1:-serve_bench.json}"
SHARDS="${SHARDS:-4}"
TENANTS="${TENANTS:-6}"
USERS="${USERS:-1200}"
DURATION="${DURATION:-5s}"
CONCURRENCY="${CONCURRENCY:-32}"
READRATIO="${READRATIO:-0.9}"
MAX_STALENESS="${MAX_STALENESS:-0}"
ADDR="${ADDR:-127.0.0.1:8791}"

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/hndserver" ./cmd/hndserver
go build -o "$workdir/hndload" ./cmd/hndload

# -maxlag counts answers (write generations). hndload seeds each tenant
# in 8192-answer batches with no rank between them, so the bound must
# exceed the largest tenant's answers less one batch: 131072 admits
# hndload's default 2000 × 64 tenant.
"$workdir/hndserver" -addr "$ADDR" -shards "$SHARDS" -maxlag 131072 \
  -max-staleness "$MAX_STALENESS" \
  >"$workdir/server.log" 2>&1 &
server_pid=$!
# The server owns no state worth keeping; make sure it dies with the script.
trap 'kill "$server_pid" 2>/dev/null; wait "$server_pid" 2>/dev/null; rm -rf "$workdir"' EXIT

for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null || {
  echo "serve_bench: hndserver did not come up" >&2
  cat "$workdir/server.log" >&2
  exit 1
}

"$workdir/hndload" -addr "http://$ADDR" -tenants "$TENANTS" -users "$USERS" \
  -duration "$DURATION" -concurrency "$CONCURRENCY" -readratio "$READRATIO" \
  -max-staleness "$MAX_STALENESS" \
  | tee "$workdir/load.out"

go run ./cmd/bench2json < "$workdir/load.out" > "$OUT"

# Graceful-drain check: SIGTERM must produce a clean exit (0), with the
# in-flight work finished rather than aborted.
kill -TERM "$server_pid"
server_rc=0
wait "$server_pid" || server_rc=$?
trap 'rm -rf "$workdir"' EXIT
if [ "$server_rc" -ne 0 ]; then
  echo "serve_bench: hndserver exited $server_rc on SIGTERM (want clean drain)" >&2
  cat "$workdir/server.log" >&2
  exit 1
fi
grep -q "drained cleanly" "$workdir/server.log" || {
  echo "serve_bench: drain message missing from server log" >&2
  cat "$workdir/server.log" >&2
  exit 1
}

echo "serve_bench: wrote $OUT; server drained cleanly"
