#!/usr/bin/env bash
# A/A check: runs the full benchmark twice on the same build (three runs
# of every workload each time, seeds N, N+1, N+2) and fails if the two
# sets disagree beyond the benchmark's own bounds in either direction:
# deterministic metrics must be identical, end-to-end timings within
# their recorded bounds.
#
#   benchmark/aa.sh [--seed N] [--seconds S] [--runs R]
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench="$CARGO_TARGET_DIR/release/tawa-bench"
mkdir -p benchmark/out
"$bench" suite --runs 3 "$@" --out benchmark/out/aa-A.json > benchmark/out/aa-A.log
"$bench" suite --runs 3 "$@" --out benchmark/out/aa-B.json > benchmark/out/aa-B.log
"$bench" diff benchmark/out/aa-A.json benchmark/out/aa-B.json
"$bench" diff benchmark/out/aa-B.json benchmark/out/aa-A.json > /dev/null
echo "A/A: the two sets agree within the bounds"
