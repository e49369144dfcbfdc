#!/usr/bin/env bash
# Reproduce every result in EXPERIMENTS.md from scratch.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1. build =="
cargo build --workspace --release

echo "== 2. correctness: full test suite (incl. property tests) =="
cargo test --workspace --release

echo "== 3. Table 1 (naive / rewrite / optimize over D1–D4) =="
cargo run -p sxv-bench --bin table1 --release -- --json BENCH_table1.json

echo "== 3b. walk vs structural-join backends, warm cache, recursive views =="
cargo run -p sxv-bench --bin eval --release -- --json BENCH_eval.json

echo "== 4. maintenance ablation (virtual vs materialized views) =="
cargo run -p sxv-bench --bin maintenance --release

echo "== 4b. cold start: package load vs parse, D1-D7 =="
# Generates up to ~450 MB of XML and a ~1.5 GB package in a temp dir
# (cleaned up afterwards); pass --smoke for a D1-D2-only quick check.
cargo run -p sxv-bench --bin coldstart --release -- --json BENCH_coldstart.json

echo "== 5. algorithm scaling benches (Criterion) =="
cargo bench -p sxv-bench

echo "== 6. examples =="
for e in quickstart hospital_inference adex_classifieds recursive_views policy_registry auction_site; do
  echo "--- example: $e ---"
  cargo run --release --example "$e" > /dev/null
  echo "ok"
done

echo "all reproduction steps completed."
