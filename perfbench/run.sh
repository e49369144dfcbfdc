#!/usr/bin/env bash
# Build the benchmark, then run it. The program pins itself: set-up on
# the last CPU, each timed round on the next CPU in turn.
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default perfbench/target).
set -euo pipefail
manifest=perfbench/Cargo.toml
cargo build --release --quiet --offline --manifest-path "$manifest"
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/sxv-perfbench" "$@"
