#!/usr/bin/env bash
# Builds tawa-bench offline and runs the whole benchmark: the six
# workloads, each as an end-to-end run and a traced run in a fresh
# process, with the correctness gate. Prints every metric with its unit
# and sample count, writes benchmark/out/results.json (or --out FILE)
# and regenerates BENCHMARK.json from the metric tables.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="$CARGO_TARGET_DIR/release/tawa-bench"
"$bench" manifest > BENCHMARK.json
"$bench" suite "$@"
