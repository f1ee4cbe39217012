#!/usr/bin/env bash
# The repo benchmark, one command:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--quick] [--repeat K]
#       every workload of BENCHMARK.json, untraced then traced; prints each
#       metric as `workload metric value unit n=<samples>`, writes
#       benchmark/out/results.json and benchmark/out/trace-<workload>.jsonl,
#       exits nonzero on any correctness failure (or, with --repeat 2, when
#       the two sets disagree by more than the benchmark's own bounds)
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#
# Builds offline from source first; CARGO_TARGET_DIR is honoured.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --offline --release --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/nl2sql-benchmark" "$@"
