#!/usr/bin/env bash
# Tier-1 gate: what must stay green on every commit.
#
#   ./scripts/check.sh            # build (workspace + benchmark/) + tests (the hard gate)
#   ./scripts/check.sh --lint     # also run clippy, warnings as errors
#   ./scripts/check.sh --bench    # also bench_eval's gates, report_full.txt and the repo benchmark
#   ./scripts/check.sh --cluster  # also smoke the distributed serve plane
#   ./scripts/check.sh --api      # also smoke the HTTP API end to end
#
# The build is fully offline (all external deps vendored under vendor/),
# so --offline is passed everywhere to fail fast instead of trying the
# network.

set -euo pipefail
cd "$(dirname "$0")/.."

lint=0
bench=0
cluster=0
api=0
for arg in "$@"; do
  case "$arg" in
    --lint) lint=1 ;;
    --bench) bench=1 ;;
    --cluster) cluster=1 ;;
    --api) api=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release (workspace)"
cargo build --offline --workspace --release

# benchmark/ is its own package outside the workspace and is frozen
# between benchmark PRs; building it here catches a change to the serve or
# cluster API it uses before the benchmark driver does.
echo "==> cargo build --release (benchmark/)"
cargo build --offline --release --manifest-path benchmark/Cargo.toml

# The run is kept in target/check-test.log so that a failure — the
# intermittent ones above all — can be named after the fact.
echo "==> cargo test (workspace)"
if ! cargo test --offline --workspace -q 2>&1 | tee target/check-test.log; then
  echo "==> test run failed; from target/check-test.log:" >&2
  grep -E 'FAILED|panicked at|^---- .* ----$|^error: test failed' target/check-test.log >&2 || true
  exit 1
fi

if [ "$lint" -eq 1 ]; then
  echo "==> cargo clippy (-D warnings)"
  cargo clippy --offline --workspace --all-targets -- -D warnings

  # Panic hygiene: sqlkit, sqlcheck, minidb, serve, cluster, obs,
  # nl2sql360, modelzoo and datagen deny clippy::unwrap_used in non-test
  # code (crate-level #![cfg_attr(not(test), deny(...))] attributes; this
  # run compiles the non-test targets so the deny is active).
  echo "==> cargo clippy (sqlkit + sqlcheck + minidb + serve + cluster + obs + nl2sql360 + modelzoo + datagen, unwrap_used denied)"
  cargo clippy --offline -p sqlkit -p sqlcheck -p minidb -p serve -p cluster -p obs -p nl2sql360 \
    -p modelzoo -p datagen --lib --bins -- -D warnings

  # One accept mechanism: every listener blocks in serve::accept_until and
  # is woken by serve::wake_listener. A poll creeping back in fails here.
  echo "==> no accept poll (ACCEPT_POLL / set_nonblocking under crates/*/src)"
  if grep -rn "ACCEPT_POLL\|set_nonblocking" crates/*/src; then
    echo "a listener polls again; use serve::accept_until + serve::wake_listener" >&2
    exit 1
  fi

  # One span constructor: every span is built by serve::trace::TraceStore::span,
  # so the serve pipeline and the scheduler spell no SpanRecord literal.
  echo "==> one span constructor (no SpanRecord literal in cluster/src or serve/src/lib.rs)"
  if grep -n "SpanRecord {" crates/cluster/src/*.rs crates/serve/src/lib.rs; then
    echo "build spans with TraceStore::span" >&2
    exit 1
  fi

  # One request-trace identity: serve::trace owns trace ids and parent
  # links; the obs recorder keeps anonymous timings and no second context.
  echo "==> one trace identity (no obs trace context or manual frames under crates/*/src)"
  if grep -rnE "obs::(TraceCtx|with_ctx|current_ctx|next_span_id|enter|exit)\b|span_mismatch" crates/*/src; then
    echo "request identity lives in serve::trace; obs spans stay anonymous" >&2
    exit 1
  fi

  # Prompt accounting without the prompt: translate prices a prompt from
  # its plan's lengths; the text is rendered only by build_prompt and tests.
  echo "==> no prompt text on the translate path (render( / build_prompt / .repeat( in translator.rs)"
  if grep -nE "render\(|build_prompt|\.repeat\(" crates/modelzoo/src/translator.rs; then
    echo "translate builds prompt text again; add up PromptPlan::chars instead" >&2
    exit 1
  fi

  # One AST walk: sqlkit::ast owns what an expression's children are, so
  # only it and the passes that do different work per variant (evaluation,
  # printing, normalizing, parsing, typing, rewriting, lowering, generation)
  # spell out a CASE node's fields; every other pass recurses through
  # Expr::for_each_child.
  echo "==> one AST walk (no Expr::Case field match outside ast.rs and the semantic passes)"
  if grep -rnE '\bExpr::Case \{ *[a-z_]' crates/*/src \
    | grep -vE '^crates/(sqlkit/src/(ast|parser|printer|normalize)|minidb/src/(eval|plan)|sqlcheck/src/(analyze|equiv)|datagen/src/query_gen)\.rs:'; then
    echo "a pass copies the Expr child layout; recurse through Expr::for_each_child instead" >&2
    exit 1
  fi

  # One per-database profile and one scorer: modelzoo::DbProfile is the
  # only code that builds a corpus database's catalog (EvalContext keeps
  # one per database for translation, repair, the static check and the
  # canonical key), and EvalContext::judge is the only code that compares a
  # prediction's result with gold (evaluator, AAS fitness, rewriter and
  # serve all call it); corruption's candidate check is the simulation's
  # own oracle, and the eval store's catalog describes no corpus database.
  echo "==> one profile, one scorer (no Catalog::from_database / results_equivalent elsewhere)"
  if find crates/modelzoo/src crates/nl2sql360/src crates/serve/src crates/cluster/src -name '*.rs' \
    | sort | xargs awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 }
      counting { print FILENAME ":" FNR ": " $0 }' \
    | grep -E 'Catalog::from_database|results_equivalent' \
    | grep -vE '^crates/(modelzoo/src/(dbprofile|corruption)|nl2sql360/src/executor)\.rs:|store\.database\(\)'; then
    echo "read EvalContext::catalog and score through EvalContext::judge" >&2
    exit 1
  fi

  # Each prediction executes at most once: the evaluator runs gold and the
  # suite instances' gold when EvalContext is built (with_test_suite), a
  # prediction on the suite instances in judge, and a prediction whose
  # outcome translation did not hand over in score; serve runs a raw
  # `/v1/sql` query (raw_sql) and, on a cache miss in translate_and_execute,
  # a prediction that is neither the gold query nor carries its outcome —
  # the `(None, None)` arm after the cache lookup. Any other run_query in
  # non-test nl2sql360 or serve code, or any Database::run (which parses SQL
  # text, then executes it) in serve — any `.run(` method call there —
  # executes something a second time: an HTTP NL reply's rows come from the
  # outcome the pipeline scored.
  echo "==> one execution per prediction (run_query in nl2sql360/src and serve/src, Database::run in serve/src)"
  flagged=$(find crates/nl2sql360/src crates/serve/src -name '*.rs' | sort \
    | xargs awk 'FNR == 1 { counting = 1; owner = ""; looked_up = 0 } /#\[cfg\(test\)\]/ { counting = 0 }
      /^[[:space:]]*\/\// { next }
      counting && match($0, /fn [a-z_0-9]+/) { owner = substr($0, RSTART + 3, RLENGTH - 3); looked_up = 0 }
      counting && /cache\.get\(/ { looked_up = 1 }
      counting && (/run_query/ || (FILENAME ~ /serve\/src/ && /\.run\(|Database::run\(/)) {
        arm = (looked_up && /\(None, None\) =>/) ? " miss arm" : ""
        print FILENAME ":" FNR ": " owner arm ": " $0 }' \
    | grep -vE '^crates/nl2sql360/src/executor\.rs:[0-9]+: (with_test_suite|judge|score): ' \
    | grep -vE '^crates/serve/src/(lib\.rs:[0-9]+: translate_and_execute miss arm|api\.rs:[0-9]+: raw_sql): ' || true)
  echo "    $(printf '%s' "$flagged" | grep -c .) site(s) flagged"
  if [ -n "$flagged" ]; then
    printf '%s\n' "$flagged"
    echo "score a prediction through EvalContext::score, and serve a miss from the outcome in hand" >&2
    exit 1
  fi

  # One pipeline, one dispatcher: translate_and_execute runs only inside
  # serve_one, and serve_one is entered only by Inner::serve, the dispatcher
  # behind ServiceHandle::query and the HTTP NL arm, so every request shares
  # the admission, the deadline check, the panic guard and the one
  # completion.
  echo "==> one pipeline, one dispatcher (translate_and_execute / serve_one callers in serve/src)"
  callers=$(find crates/serve/src -name '*.rs' | sort \
    | xargs awk 'FNR == 1 { counting = 1; owner = "" } /#\[cfg\(test\)\]/ { counting = 0 }
      /^[[:space:]]*\/\// { next }
      counting && match($0, /fn [a-z_0-9]+/) { owner = substr($0, RSTART + 3, RLENGTH - 3) }
      counting && /(translate_and_execute|serve_one)\(/ {
        callee = ($0 ~ /translate_and_execute\(/) ? "translate_and_execute" : "serve_one"
        print FILENAME ":" FNR ": " owner " -> " callee ": " $0 }')
  flagged=$(printf '%s\n' "$callers" | grep . \
    | grep -vE '^crates/serve/src/lib\.rs:[0-9]+: (serve_one -> translate_and_execute|serve -> serve_one): ' || true)
  echo "    $(printf '%s' "$flagged" | grep -c .) site(s) flagged"
  if [ -n "$flagged" ] || [ "$(printf '%s\n' "$callers" | grep -c -- '-> serve_one: ')" -ne 1 ]; then
    printf '%s\n' "$callers"
    echo "serve a request through Inner::serve, serve_one's one caller" >&2
    exit 1
  fi

  # No timed re-check on a stop path: the eval runner blocks until a
  # message wakes it, and an idle scheduler stream reader until shutdown
  # (or eviction) shuts its socket under the worker queue's lock.
  echo "==> no stop poll (recv_timeout / wait_timeout in serve/src/lib.rs, cluster/src/scheduler.rs)"
  if grep -n "recv_timeout\|wait_timeout" crates/serve/src/lib.rs crates/cluster/src/scheduler.rs; then
    echo "a stop path polls again; wake the waiter instead" >&2
    exit 1
  fi

  # One parallel map, from std: threads and channels are std's everywhere,
  # and the evaluator, the AAS fitness and evaluate_all fan out through
  # nl2sql360::executor::fan_out, the one scoped thread pool of
  # nl2sql360/src, instead of each keeping a claim loop of its own.
  echo "==> one fan-out, no stand-in (crossbeam; thread::scope in nl2sql360/src outside fan_out)"
  if find . -name Cargo.toml -not -path '*/target/*' | xargs grep -n crossbeam \
    || grep -rn crossbeam crates examples tests --include='*.rs'; then
    echo "use std::thread::scope and std::sync::mpsc" >&2
    exit 1
  fi
  flagged=$(find crates/nl2sql360/src -name '*.rs' | sort \
    | xargs awk 'FNR == 1 { counting = 1; owner = "" } /#\[cfg\(test\)\]/ { counting = 0 }
      /^[[:space:]]*\/\// { next }
      counting && match($0, /fn [a-z_0-9]+/) { owner = substr($0, RSTART + 3, RLENGTH - 3) }
      counting && /thread::scope/ { print FILENAME ":" FNR ": " owner ": " $0 }' \
    | grep -vE '^crates/nl2sql360/src/executor\.rs:[0-9]+: fan_out: ' || true)
  echo "    $(printf '%s' "$flagged" | grep -c .) site(s) flagged"
  if [ -n "$flagged" ]; then
    printf '%s\n' "$flagged"
    echo "map over indices with nl2sql360::executor::fan_out" >&2
    exit 1
  fi

  # One catalog scope: the static check, the canonicalizer and StaticRepair
  # resolve names through sqlcheck::scope, the one lookup rule over a
  # Catalog; none of them keeps a binder of its own or matches a name
  # against a binding or a column list itself.
  echo "==> one catalog scope (no binder or name matching in analyze.rs, equiv.rs, repair.rs)"
  flagged=$(awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 }
      /^[[:space:]]*\/\// { next }
      counting && /struct (Binding|Scope)[^A-Za-z0-9_]|enum Frame[^A-Za-z0-9_]|fn resolve\(|eq_ignore_ascii_case/ {
        print FILENAME ":" FNR ": " $0 }' \
    crates/sqlcheck/src/analyze.rs crates/sqlcheck/src/equiv.rs crates/modelzoo/src/repair.rs)
  echo "    $(printf '%s' "$flagged" | grep -c .) site(s) flagged"
  if [ -n "$flagged" ]; then
    printf '%s\n' "$flagged"
    echo "bind names with sqlcheck::scope::Scope::resolve" >&2
    exit 1
  fi

  # Every bench_eval gate holds on any core count: a gate armed only on
  # bigger machines is an unmeasured claim on the one that runs it.
  echo "==> no core-count-armed gate (cores >= in bench_eval)"
  if grep -n "cores >= " crates/bench/src/bin/bench_eval/*.rs; then
    echo "a bench_eval gate is armed by core count; gate an absolute cost instead" >&2
    exit 1
  fi

  # The size of the SQL front end and corpus generator, of the engine the
  # metrics stand on, of the method zoo, of the obs recorder and registry
  # every layer reports through, of the evaluator crate, its evaluation
  # context and the serve cache a prediction is translated and scored
  # through, of the files the request path's fixed costs and its one
  # completion / telemetry spine live in, and of the micro-benchmark
  # harness, always counted the same way: lines above each file's first
  # #[cfg(test)].
  echo "==> non-test lines"
  for path in crates/sqlkit/src crates/datagen/src \
    crates/minidb/src crates/sqlcheck/src crates/modelzoo/src crates/obs/src \
    crates/nl2sql360/src crates/nl2sql360/src/executor.rs crates/serve/src/cache.rs \
    crates/serve/src/http.rs crates/serve/src/lib.rs crates/serve/src/trace.rs \
    crates/serve/src/telemetry.rs crates/cluster/src/scheduler.rs crates/cluster/src/worker.rs \
    crates/bench/src/bin/bench_eval; do
    find "$path" -name '*.rs' | sort | xargs awk '
      FNR == 1 { counting = 1 }
      /#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { printf "%d", n }'
    echo " $path"
  done

  # Equivalence-engine self-test: the per-rule rewrite unit tests plus the
  # execution-soundness suite (canonical form == original by execution on
  # normal, NULL-dense, and empty content; every rule non-vacuous).
  echo "==> equiv self-test (rewrite rules + soundness suite)"
  cargo test --offline --release -p sqlcheck -q equiv::
  cargo test --offline --release -p sqlcheck -q --test equiv_soundness

  # Gold-SQL hygiene: the static analyzer must find zero diagnostics in
  # the generated corpora's gold queries, and the canonical-duplicate
  # sweep must find no two gold samples sharing a canonical form on the
  # same database (nonzero exit otherwise).
  echo "==> sqlcheck gold smoke (spider + bird, lint + canonical-dup sweep)"
  cargo run --offline --release -p sqlcheck --bin sqlcheck -- gold --corpus spider
  cargo run --offline --release -p sqlcheck --bin sqlcheck -- gold --corpus bird

  # Admin-endpoint smoke: drive real load with a live scraper thread
  # hitting /metrics, /healthz, and /readyz on an ephemeral loopback
  # port; loadgen exits nonzero if any scrape fails or returns a body
  # without the expected exposition families.
  echo "==> admin endpoint smoke (serve-loadgen --scrape)"
  cargo run --offline --release -p serve --bin serve-loadgen -- \
    --requests 300 --scrape
fi

if [ "$cluster" -eq 1 ]; then
  # Distributed serve smoke: boot a scheduler and two workers as real
  # processes on ephemeral loopback ports, push a 200-request burst
  # through the scheduler with the remote loadgen mode, and scrape
  # /metrics from all three processes. loadgen exits nonzero on any lost
  # request or failed scrape; the trap kills the processes either way.
  echo "==> cluster smoke (serve-scheduler + 2 serve-worker + loadgen burst)"
  cargo build --offline --release -p cluster -p serve --bins

  cluster_pids=()
  cleanup_cluster() {
    for pid in "${cluster_pids[@]:-}"; do
      kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
  }
  trap cleanup_cluster EXIT

  sched_banner=$(mktemp)
  ./target/release/serve-scheduler \
    --listen 127.0.0.1:0 --admin 127.0.0.1:0 > "$sched_banner" &
  cluster_pids+=($!)
  for _ in $(seq 1 100); do
    grep -q 'serve-scheduler listening' "$sched_banner" && break
    sleep 0.1
  done
  sched_client=$(sed -n 's/.*client=\([^ ]*\).*/\1/p' "$sched_banner")
  sched_admin=$(sed -n 's/.*admin=\([^ ]*\).*/\1/p' "$sched_banner")
  [ -n "$sched_client" ] || { echo "scheduler never printed its banner" >&2; exit 1; }

  worker_admins=()
  for wid in w1 w2; do
    banner=$(mktemp)
    ./target/release/serve-worker \
      --scheduler "$sched_client" --id "$wid" \
      --corpus-seed 42 --admin 127.0.0.1:0 > "$banner" &
    cluster_pids+=($!)
    for _ in $(seq 1 300); do
      grep -q "serve-worker $wid" "$banner" && break
      sleep 0.1
    done
    admin=$(sed -n 's/.*admin=\([^ ]*\).*/\1/p' "$banner")
    [ -n "$admin" ] || { echo "worker $wid never printed its banner" >&2; exit 1; }
    worker_admins+=("$admin")
  done

  # corpus-seed 42 matches loadgen's default, so the workers recognize
  # every generated question; scrape-addr covers all three processes
  ./target/release/serve-loadgen \
    --requests 200 --clients 8 \
    --endpoints "$sched_client" \
    --scrape-addr "$sched_admin,${worker_admins[0]},${worker_admins[1]}"

  # the same burst over one connection, open loop: every request is
  # routed by the connection's reader (claiming an idle worker stream or
  # queueing for a busy one) and answered by whichever stream reader
  # completes it; loadgen checks each id is answered exactly once
  ./target/release/serve-loadgen --open --requests 200 --endpoints "$sched_client"

  cleanup_cluster
  trap - EXIT
fi

if [ "$api" -eq 1 ]; then
  # HTTP API smoke: boot a standalone serve engine as a real process on an
  # ephemeral loopback port, then exercise the full /v1 surface with the
  # one-shot client — one NL translation (traced: the response's trace id
  # is followed through /slow, GET /v1/traces/<id>, and a SELECT over the
  # persisted trace_spans table), one raw-SQL query, a small eval run
  # submitted over POST /v1/evals/spider and polled to completion, and
  # finally the persisted run queried back through POST /v1/sql. A loadgen
  # burst over --http closes it out; the trap kills the server either way.
  echo "==> HTTP API smoke (serve-server + serve-apictl + loadgen --http)"
  cargo build --offline --release -p serve --bins

  api_pid=""
  cleanup_api() {
    [ -n "$api_pid" ] && kill "$api_pid" 2>/dev/null || true
    wait 2>/dev/null || true
  }
  trap cleanup_api EXIT

  api_banner=$(mktemp)
  ./target/release/serve-server --static-check --trace > "$api_banner" &
  api_pid=$!
  for _ in $(seq 1 300); do
    grep -q 'serve-server sample' "$api_banner" && break
    sleep 0.1
  done
  api_addr=$(sed -n 's/.*admin=\([^ ]*\).*/\1/p' "$api_banner")
  sample_db=$(sed -n 's/.*sample db_id=\([^ ]*\) .*/\1/p' "$api_banner")
  sample_q=$(sed -n 's/.*sample db_id=[^ ]* question=//p' "$api_banner")
  [ -n "$api_addr" ] && [ -n "$sample_db" ] && [ -n "$sample_q" ] \
    || { echo "serve-server never printed its banner" >&2; exit 1; }
  apictl=./target/release/serve-apictl

  echo "  POST /v1/sql (NL) db_id=$sample_db"
  nl_reply=$("$apictl" --addr "$api_addr" post /v1/sql \
    "{\"question\":\"$sample_q\",\"db_id\":\"$sample_db\",\"method\":\"C3SQL\"}")
  echo "$nl_reply" | grep -q '"pred_sql"' || { echo "NL request failed" >&2; exit 1; }

  # follow the trace id out of the response, through the slow log, the
  # trace endpoint, and finally the warehouse's trace_spans table
  trace_id=$(echo "$nl_reply" | sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p')
  [ -n "$trace_id" ] || { echo "traced response carried no trace_id: $nl_reply" >&2; exit 1; }
  echo "  GET /slow (entry carries trace_id=$trace_id)"
  "$apictl" --addr "$api_addr" get /slow | grep -q "$trace_id" \
    || { echo "slow log lost the trace id" >&2; exit 1; }
  echo "  GET /v1/traces/$trace_id (serve-apictl trace)"
  "$apictl" --addr "$api_addr" trace "$trace_id" | grep -q 'request' \
    || { echo "trace endpoint returned no span tree" >&2; exit 1; }
  echo "  POST /v1/sql (SELECT over trace_spans)"
  trace_rows=""
  for _ in $(seq 1 100); do
    trace_rows=$("$apictl" --addr "$api_addr" post /v1/sql \
      "{\"sql\":\"SELECT COUNT(*) FROM trace_spans WHERE trace_id = '$trace_id'\"}")
    echo "$trace_rows" | grep -q '"rows":\[\[0\]\]' || break
    sleep 0.1
  done
  echo "$trace_rows" | grep -q '"rows":\[\[[1-9]' \
    || { echo "trace never reached the warehouse: $trace_rows" >&2; exit 1; }

  echo "  POST /v1/sql (raw SQL over the eval store)"
  "$apictl" --addr "$api_addr" post /v1/sql '{"sql":"SELECT COUNT(*) FROM eval_runs"}' \
    | grep -q '"rows":\[\[0\]\]' || { echo "raw-SQL probe failed" >&2; exit 1; }

  echo "  POST /v1/evals/spider (C3SQL, subset 16)"
  "$apictl" --addr "$api_addr" --expect 202 post /v1/evals/spider \
    '{"method":"C3SQL","subset":16}' > /dev/null \
    || { echo "eval submission failed" >&2; exit 1; }
  run_status=""
  for _ in $(seq 1 600); do
    run_status=$("$apictl" --addr "$api_addr" get /v1/evals/1)
    echo "$run_status" | grep -q '"completed"' && break
    echo "$run_status" | grep -q '"failed"' && break
    sleep 0.1
  done
  echo "$run_status" | grep -q '"completed"' \
    || { echo "eval run never completed: $run_status" >&2; exit 1; }

  echo "  POST /v1/sql (query the persisted run back)"
  "$apictl" --addr "$api_addr" post /v1/sql \
    '{"sql":"SELECT method, samples FROM eval_runs"}' \
    | grep -q '"C3SQL",16' || { echo "persisted run not queryable" >&2; exit 1; }

  # four callers at once, one per handler thread of serve::http; loadgen
  # exits nonzero on any lost request
  echo "  serve-loadgen --http burst (200 requests, 4 concurrent clients)"
  ./target/release/serve-loadgen --http --endpoints "$api_addr" \
    --requests 200 --clients 4

  cleanup_api
  trap - EXIT
fi

if [ "$bench" -eq 1 ]; then
  # Parity first: the bind step's crafted cases (both executors, every
  # budget, full and emptied tables), the compiled executor's unit tests
  # (incl. the crafted join tables swept over every budget), the two-way
  # (interpreter / compiled) differential proptests, including the
  # NULL-dense and empty-table corpora, "nothing declines" over the tiny
  # corpora and sqlcheck <=> minidb on names. A perf number from an
  # executor that diverges observationally is meaningless.
  echo "==> parity suite (minidb bind + plan + vector tests, plan_parity, compile_coverage, sqlcheck differential)"
  cargo test --offline --release -p minidb -q bind::
  cargo test --offline --release -p minidb -q plan::
  cargo test --offline --release -p minidb -q vector::
  cargo test --offline --release -p datagen -q --test plan_parity
  cargo test --offline --release -p nl2sql360 -q --test compile_coverage
  cargo test --offline --release -p sqlcheck -q --test differential

  # The micro gates benchmark/ cannot resolve, every one armed on any
  # core count: each compiled query shape >= 2x the interpreter and >= 5x
  # in aggregate, the few-shot index >= 10x the scan, and absolute ns
  # ceilings on the obs / registry hot paths, the static analyzer, the
  # canonicalizer and a traced request's bookkeeping.
  echo "==> bench_eval gates (--validate)"
  cargo run --offline --release -p nl2sql360-bench --bin bench_eval -- \
    --out target/BENCH_eval_check.json --validate

  # The paper-vs-measured record is a build product: the full-scale
  # report (seed 42) is deterministic, so any change to what it prints
  # must arrive as a reviewed diff of report_full.txt.
  echo "==> report_full.txt is current (report, full scale, seed 42)"
  report_now=$(mktemp)
  env -u NL2SQL360_SCALE -u NL2SQL360_SEED ./target/release/report > "$report_now"
  if ! diff -u report_full.txt "$report_now"; then
    rm -f "$report_now"
    echo "regenerate report_full.txt: target/release/report > report_full.txt" >&2
    exit 1
  fi
  rm -f "$report_now"

  # The repo benchmark's few-shot workload, smoke-sized: its exit code is
  # the correctness check (SuperSQL logs at workers(nproc) byte-identical
  # to workers(1), traced replay equal to the recorded outcomes).
  echo "==> repo benchmark smoke (eval_fewshot --quick)"
  benchmark/run.sh --quick --workload eval_fewshot

  # And the engine-only workload: set-up checks every BIRD gold query's
  # rows, order flag and work units against the interpreter, every timed
  # run its row count and work units.
  echo "==> repo benchmark smoke (sql_exec --quick)"
  benchmark/run.sh --quick --workload sql_exec
fi

echo "==> tier-1 gate passed"
