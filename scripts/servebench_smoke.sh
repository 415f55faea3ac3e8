#!/usr/bin/env bash
# servebench_smoke.sh — one second of each workload BENCHMARK.json
# declares, run through servebench/run.sh (which builds the benchmark from
# this checkout), checking the line a comparison of benchmark runs reads:
# the last line of stdout must be the JSON result, marked correct and
# carrying every end-to-end metric BENCHMARK.json bounds. A benchmark that
# does not build, prints after its result or drops a bounded metric fails
# here instead of yielding no comparable run.
#
# Usage: scripts/servebench_smoke.sh
#
# Tunables (env): SERVEBENCH_RUN, the runner (default bash
# servebench/run.sh); any command taking servebench's flags works.
set -uo pipefail

RUN="${SERVEBENCH_RUN:-bash servebench/run.sh}"

cd "$(dirname "$0")/.."
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

check='
import json, sys
workload, line = sys.argv[1], sys.argv[2]
if not line.strip():
    sys.exit(f"servebench-smoke {workload}: no output")
res = json.loads(line)
want = {m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
missing = sorted(want - set(res.get("metrics", {})))
correct = res.get("correct")
if correct is not True or missing:
    sys.exit(f"servebench-smoke {workload}: correct={correct}, missing {missing}")
print(f"servebench-smoke {workload}: last line is a correct result with all {len(want)} bounded metrics")
'

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for w in $workloads; do
	$RUN --workload "$w" --seed 1 --seconds 1 --trace 0 >"$out"
	status=$?
	python3 -c "$check" "$w" "$(tail -n 1 "$out")" || exit 1
	if [ "$status" -ne 0 ]; then
		echo "servebench-smoke $w: exit status $status" >&2
		exit 1
	fi
done
