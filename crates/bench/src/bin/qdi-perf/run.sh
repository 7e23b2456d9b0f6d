#!/usr/bin/env bash
# Builds the benchmark and the qdi-serve daemon it drives, then runs one
# workload. Run from the repository root:
#
#   bash crates/bench/src/bin/qdi-perf/run.sh --workload campaign_xor --seed 1 --seconds 10 --trace 0
#
# Both binaries land in "$CARGO_TARGET_DIR/release" (default: target), so
# qdi-perf finds qdi-serve next to itself. Build output goes to stderr;
# stdout carries only the benchmark's result line.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --quiet -p qdi-serve --bin qdi-serve >&2
exec "$CARGO_TARGET_DIR/release/qdi-perf" "$@"
