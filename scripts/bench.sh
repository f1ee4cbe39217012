#!/usr/bin/env bash
# Micro-benchmarks the repo benchmark (benchmark/run.sh) cannot resolve,
# written to BENCH_eval.json and validated: each compiled minidb query
# shape vs the AST interpreter (>= 2x per shape, >= 5x in aggregate; the
# correlated fallback control and the hash-join vs nested-loop ablation
# are recorded, not gated), the few-shot index vs a brute-force scan
# (>= 10x), and ns ceilings on a disabled obs span+counter pair and a
# labeled registry cell pair (250 each), sqlcheck analyze (2 000) and
# full-rule canonicalize (12 000) per gold query, the untraced ingress
# check (25) and a traced request's span + warehouse bookkeeping
# (30 000). Every gate holds on any core count; end-to-end throughput,
# latency and overhead questions belong to benchmark/run.sh.
#
#   ./scripts/bench.sh             # ~10 s, writes BENCH_eval.json
#
# Extra arguments are forwarded to the bench_eval binary (see
# `bench_eval --help`).

set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --offline --release -p nl2sql360-bench --bin bench_eval -- \
  --out BENCH_eval.json --validate "$@"
