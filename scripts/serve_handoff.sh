#!/usr/bin/env bash
# serve_handoff.sh — cross-process shard-handoff smoke: boot two durable
# hndservers, migrate one shard of a tenant from A to B through the admin
# handoff endpoints, and assert the full ownership contract end to end:
#
#   1. happy path: export on A (fenced writes 429), import + commit on B,
#      B's shard at exactly A's fenced generation, A answering the moved
#      shard's writes with 307 to B;
#   2. crash path: a second export on A is left mid-fence and A is killed
#      with SIGKILL; the restarted A retracts the uncommitted bundle and
#      serves that shard again — while the committed move from step 1 is
#      still fenced and redirecting. Exactly one authoritative owner per
#      shard, across the crash.
#
# Usage: scripts/serve_handoff.sh
#
# Tunables (env): ADDR_A (127.0.0.1:8793), ADDR_B (127.0.0.1:8794),
# ROUNDS (40 write batches).
set -euo pipefail

ADDR_A="${ADDR_A:-127.0.0.1:8793}"
ADDR_B="${ADDR_B:-127.0.0.1:8794}"
ROUNDS="${ROUNDS:-40}"

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pid_a=""
pid_b=""
trap 'for p in "$pid_a" "$pid_b"; do if [ -n "$p" ]; then kill -9 "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; fi; done; rm -rf "$workdir"' EXIT

go build -o "$workdir/hndserver" ./cmd/hndserver

# start_server <name> <addr> <datadir> — boot one durable server and wait
# for /healthz; echoes the pid.
start_server() {
  "$workdir/hndserver" -addr "$2" -shards 4 -data-dir "$3" -fsync always \
    >>"$workdir/$1.log" 2>&1 &
  local pid=$!
  for _ in $(seq 1 50); do
    if curl -fsS "http://$2/healthz" >/dev/null 2>&1; then echo "$pid"; return 0; fi
    sleep 0.1
  done
  echo "serve_handoff: $1 did not come up" >&2
  cat "$workdir/$1.log" >&2
  exit 1
}

# shard_field <addr> <shard> <field> — one field of one shard's row in
# the tenant's /v1/admin/partition response.
shard_field() {
  curl -fsS -X POST "http://$1/v1/admin/partition" -d '{"tenant":"roam"}' | python3 -c "
import json, sys
part = json.load(sys.stdin)
print(part['partition'][$2].get('$3', ''))
"
}

# observe_status <addr> <user> — HTTP status of one write, redirects NOT
# followed (the raw 429/307 the serving tier answers with).
observe_status() {
  curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$1/v1/observe" \
    -d "{\"tenant\":\"roam\",\"user\":$2,\"item\":0,\"option\":1}"
}

pid_a="$(start_server a "$ADDR_A" "$workdir/data-a")"
pid_b="$(start_server b "$ADDR_B" "$workdir/data-b")"

# The same tenant geometry on both sides; only A gets traffic.
for addr in "$ADDR_A" "$ADDR_B"; do
  curl -fsS -X POST "http://$addr/v1/tenants" \
    -d '{"name":"roam","users":40,"items":8,"options":[3]}' >/dev/null
done
for i in $(seq 1 "$ROUNDS"); do
  curl -fsS -X POST "http://$ADDR_A/v1/observe" \
    -d "{\"tenant\":\"roam\",\"user\":$((i % 40)),\"item\":$((i % 8)),\"option\":$((i % 3))}" >/dev/null
done

# --- 1. Happy-path migration of shard 1 ---------------------------------
bundle="$workdir/bundle-1"
curl -fsS -X POST "http://$ADDR_A/v1/admin/handoff" \
  -d "{\"tenant\":\"roam\",\"shard\":1,\"action\":\"export\",\"bundle_dir\":\"$bundle\",\"target\":\"http://$ADDR_B\"}" >/dev/null
fenced_gen="$(shard_field "$ADDR_A" 1 generation)"

# A write to a fenced-shard user must bounce with 429. Probe users until
# one lands on shard 1 (the partition is a hash, so any user may).
fenced_user=""
for u in $(seq 0 39); do
  if [ "$(observe_status "$ADDR_A" "$u")" = "429" ]; then fenced_user="$u"; break; fi
done
if [ -z "$fenced_user" ]; then
  echo "serve_handoff: no write bounced off the fence" >&2
  exit 1
fi

curl -fsS -X POST "http://$ADDR_B/v1/admin/handoff" \
  -d "{\"tenant\":\"roam\",\"shard\":1,\"action\":\"import\",\"bundle_dir\":\"$bundle\",\"owner\":\"http://$ADDR_B\"}" >/dev/null

b_gen="$(shard_field "$ADDR_B" 1 generation)"
if [ "$b_gen" != "$fenced_gen" ]; then
  echo "serve_handoff: B's shard at generation $b_gen, A fenced at $fenced_gen" >&2
  exit 1
fi
status="$(observe_status "$ADDR_A" "$fenced_user")"
if [ "$status" != "307" ]; then
  echo "serve_handoff: post-commit write to moved shard: HTTP $status, want 307" >&2
  exit 1
fi

# --- 2. kill -9 mid-fence, restart, single authoritative owner ----------
bundle2="$workdir/bundle-2"
curl -fsS -X POST "http://$ADDR_A/v1/admin/handoff" \
  -d "{\"tenant\":\"roam\",\"shard\":2,\"action\":\"export\",\"bundle_dir\":\"$bundle2\",\"target\":\"http://$ADDR_B\"}" >/dev/null
if [ "$(shard_field "$ADDR_A" 2 fenced)" != "True" ]; then
  echo "serve_handoff: shard 2 not fenced after export" >&2
  exit 1
fi

kill -9 "$pid_a"
wait "$pid_a" 2>/dev/null || true
pid_a=""
pid_a="$(start_server a "$ADDR_A" "$workdir/data-a")"

# The uncommitted export is retracted: shard 2 unfenced, its bundle
# unpublished, writes landing again.
if [ "$(shard_field "$ADDR_A" 2 fenced)" != "False" ]; then
  echo "serve_handoff: restart left the uncommitted export fenced" >&2
  exit 1
fi
if [ -f "$bundle2/bundle.json" ]; then
  echo "serve_handoff: restart left the uncommitted bundle published" >&2
  exit 1
fi
# The committed move survives the crash: still fenced, still redirecting.
if [ "$(shard_field "$ADDR_A" 1 moved_to)" != "http://$ADDR_B" ]; then
  echo "serve_handoff: restart forgot the committed move" >&2
  exit 1
fi
status="$(observe_status "$ADDR_A" "$fenced_user")"
if [ "$status" != "307" ]; then
  echo "serve_handoff: moved shard after crash: HTTP $status, want 307" >&2
  exit 1
fi
curl -fsS -X POST "http://$ADDR_A/v1/rank" -d '{"tenant":"roam"}' >/dev/null
curl -fsS -X POST "http://$ADDR_B/v1/rank" -d '{"tenant":"roam"}' >/dev/null

echo "serve_handoff: shard 1 moved at generation $fenced_gen (429 then 307); kill -9 mid-fence retracted shard 2 and kept shard 1 redirecting"
