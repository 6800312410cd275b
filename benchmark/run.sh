#!/usr/bin/env bash
# Build the benchmark offline in release and run all five workloads for
# one seed. Exits non-zero as soon as a build or an output check fails.
#
#   benchmark/run.sh [seed] [seconds] [trace 0|1] [result-set.jsonl]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-10}"
trace="${3:-0}"
out="${4:-}"

here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/xpc-benchmark"

for workload in guest_alu guest_xcall closed_sweep open_serve figures_all; do
    args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
    if [ -n "$out" ]; then
        args+=(--out "$out")
    fi
    "$bin" "${args[@]}"
done
