#!/usr/bin/env bash
# Builds the benchmark, and the cmmf-serve daemon it drives, from source and
# runs it with the given arguments, from the repository root:
#
#   bash cmmf-benchmark/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of stdout is the JSON summary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path cmmf-benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/cmmf-benchmark" "$@"
