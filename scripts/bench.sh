#!/usr/bin/env bash
# Evaluation performance benchmark: parallel corpus evaluation across
# worker counts, compiled query plans vs the AST interpreter,
# observability overhead (the same evaluation traced vs untraced — the
# trace-on/off delta lands in BENCH_eval.json under "trace"), registry
# recording overhead (ns/op of the labeled cells serve records every
# completion into, under "registry"), the equivalence engine (full-rule
# canonicalization ns/query plus a closed-loop serve run with canonical
# vs normalized cache keys, under "equiv" — gated on the µs the keys add
# per request, at most one canonicalization plus the paired runs' own
# interquartile range), and few-shot retrieval (the
# inverted index vs a brute-force scan of the 7000-question Spider pool,
# under "few_shot" — gated at >= 10x on any core count).
#
#   ./scripts/bench.sh             # full run, writes BENCH_eval.json
#   ./scripts/bench.sh --quick     # reduced smoke run
#
# Extra arguments are forwarded to the bench_eval binary (see
# `bench_eval --help`). The full run validates that compiled plans beat
# the interpreter, that the disabled-tracing path stays within 5% of the
# pre-tracing baseline, and that a labeled counter+histogram record pair
# stays under 250 ns; the >=2x 4-worker throughput target is
# enforced only on machines with >= 4 cores (see BENCH_eval.json
# "cores").

set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --offline --release -p nl2sql360-bench --bin bench_eval -- \
  --out BENCH_eval.json --validate "$@"
