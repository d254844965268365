#!/usr/bin/env bash
# The benchmark's own checks, for CI: its unit tests, then a smoke run of
# all six workloads with their traced runs (tiny inputs, one pass each)
# and a diff of the smoke results against themselves.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="$CARGO_TARGET_DIR/release/tawa-bench"
"$bench" suite --smoke --out benchmark/out/smoke.json > benchmark/out/smoke.log \
  || { cat benchmark/out/smoke.log; exit 1; }
"$bench" diff benchmark/out/smoke.json benchmark/out/smoke.json > /dev/null
echo "benchmark check: ok"
