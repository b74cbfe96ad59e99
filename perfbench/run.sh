#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-bert --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the checkout, so it stays off.
dune build --root . --build-dir .bench_build --cache=disabled ./perfbench/nimble_bench.exe 1>&2
bench=./.bench_build/default/perfbench/nimble_bench.exe
# Pin the run to the last CPU it may use, so that the machine-speed probe
# (perfbench/probe.ml) and every domain of the workload share one CPU: a
# slowdown of the CPU the serving engine's worker runs on then shows in
# the probe too. In a closed loop only one domain is busy at a time.
if command -v taskset >/dev/null 2>&1; then
  cpus=$(taskset -pc $$ | sed 's/.*: //')
  exec taskset -c "${cpus##*[,-]}" "$bench" "$@"
fi
exec "$bench" "$@"
