#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash servebench/run.sh --workload write-rank --seed 1 --seconds 30 --trace 0
#
# Every build artefact, cache and data directory stays under .bench_build/
# in the current directory. A missing or broken source tree fails the build,
# so the script exits non-zero without printing a result.
#
# The durable workload must not measure the disk's fsync (see NOTES.md), so
# when the system allows it the benchmark runs in a private mount namespace
# with a tmpfs mounted at .bench_build/tmpfs for its data dirs; the mount is
# gone when the benchmark exits. Otherwise the data dirs stay on the
# checkout's filesystem, and the env line of the output names it.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

# The go command also writes under the user's config dir (telemetry) and
# GOPATH; both are redirected into the checkout.
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$src" && go build -o "$build/servebench" .) >&2

data="$build/tmpfs"
mkdir -p "$data"
mount_tmpfs='mount -t tmpfs -o size=256m servebench "$0" && exec "$@"'
for ns in "unshare --user --map-root-user --mount" "unshare --mount"; do
	if $ns sh -c "$mount_tmpfs" "$data" true 2>/dev/null; then
		exec $ns sh -c "$mount_tmpfs" "$data" "$build/servebench" --data "$data" "$@"
	fi
done
exec "$build/servebench" --data "$build/data" "$@"
