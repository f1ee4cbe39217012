//! Per-operator work attribution reconciles with VES work accounting, and
//! the dispatch counters see every `run_query`. Uses the process-global
//! obs recorder, so this lives in its own integration-test binary and
//! serializes its tests on one lock.

use minidb::{Database, TableBuilder, Value};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

fn demo_db() -> Database {
    let mut db = Database::new("obs_demo");
    let users = TableBuilder::new("users")
        .column_int("id")
        .column_text("name")
        .rows((0..40).map(|i| vec![Value::Int(i), Value::text(format!("u{i}"))]))
        .build();
    let orders = TableBuilder::new("orders")
        .column_int("id")
        .column_int("user_id")
        .column_int("total")
        .rows((0..120).map(|i| vec![Value::Int(i), Value::Int(i % 40), Value::Int(i * 3)]))
        .build();
    db.add_table(users).unwrap();
    db.add_table(orders).unwrap();
    db
}

const WORK_COUNTERS: &[&str] = &[
    "minidb.work.scan",
    "minidb.work.filter",
    "minidb.work.join",
    "minidb.work.group",
    "minidb.work.sort",
    "minidb.work.project",
    "minidb.work.set_op",
];

fn op_sum(snap: &obs::Snapshot) -> u64 {
    WORK_COUNTERS.iter().map(|c| snap.counter(c)).sum()
}

#[test]
fn per_op_work_sums_to_ves_work_on_both_paths() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = demo_db();
    let sql = "SELECT T2.name, COUNT(*) FROM orders AS T1 JOIN users AS T2 \
               ON T1.user_id = T2.id WHERE T1.total > 30 GROUP BY T2.name \
               ORDER BY COUNT(*) DESC LIMIT 5";
    let query = sqlkit::parse_query(sql).unwrap();

    // interpreter path
    obs::reset();
    let interp = {
        let _on = obs::enable();
        minidb::exec::execute(&db, &query).unwrap()
    };
    let snap = obs::snapshot();
    assert!(interp.work > 0);
    assert_eq!(op_sum(&snap), interp.work, "interpreter per-op work must sum to rs.work");
    assert_eq!(snap.counter("minidb.work.total"), interp.work);
    assert!(snap.counter("minidb.work.scan") > 0);
    assert!(snap.counter("minidb.work.join") > 0);
    assert!(snap.counter("minidb.work.group") > 0);
    assert!(snap.events.iter().any(|e| e.name == "minidb.exec.interpret"));

    // compiled path: identical totals, identical attribution sum
    obs::reset();
    let plan = minidb::compile(&db, &query).expect("join+group compiles");
    let compiled = {
        let _on = obs::enable();
        plan.execute(&db).unwrap()
    };
    let snap = obs::snapshot();
    assert_eq!(compiled.work, interp.work, "plan parity on work units");
    assert_eq!(op_sum(&snap), compiled.work, "compiled per-op work must sum to rs.work");
    assert!(snap.events.iter().any(|e| e.name == "minidb.exec.compiled"));
    obs::reset();
}

/// A sub-plan runs once and its recorded charges are replayed per
/// evaluation, so not just the total but every operator class's share must
/// match the interpreter, which re-executes the subquery per outer row.
#[test]
fn replayed_subquery_work_keeps_the_interpreters_per_op_attribution() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = demo_db();
    let sql = "SELECT name FROM users WHERE id IN \
               (SELECT user_id FROM orders WHERE total > 100 GROUP BY user_id) \
               AND id > (SELECT AVG(user_id) FROM orders)";
    let query = sqlkit::parse_query(sql).unwrap();
    let per_op = |snap: &obs::Snapshot| -> Vec<u64> {
        WORK_COUNTERS.iter().map(|c| snap.counter(c)).collect()
    };

    obs::reset();
    let interp = {
        let _on = obs::enable();
        minidb::exec::execute(&db, &query).unwrap()
    };
    let interp_ops = per_op(&obs::snapshot());

    obs::reset();
    let plan = minidb::compile(&db, &query).expect("uncorrelated subqueries compile");
    let compiled = {
        let _on = obs::enable();
        plan.execute(&db).unwrap()
    };
    let snap = obs::snapshot();
    assert_eq!(compiled, interp);
    assert_eq!(per_op(&snap), interp_ops, "per-operator work, in WORK_COUNTERS order");
    assert_eq!(op_sum(&snap), compiled.work);
    assert!(snap.counter("minidb.work.group") > 0, "the sub-plan's grouping was charged");
    obs::reset();
}

/// A hash chain and a `!=` nested loop dispatch compiled, and bulk
/// charging attributes their work to the interpreter's operator classes.
#[test]
fn join_chains_and_non_equi_joins_dispatch_compiled_with_the_interpreters_attribution() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = demo_db();
    let per_op = |snap: &obs::Snapshot| -> Vec<u64> {
        WORK_COUNTERS.iter().map(|c| snap.counter(c)).collect()
    };
    for sql in [
        "SELECT T2.name, T3.total FROM orders AS T1 JOIN users AS T2 ON T1.user_id = T2.id \
         JOIN orders AS T3 ON T3.user_id = T2.id WHERE T1.total < 60 AND T3.total > 200",
        "SELECT T2.name, COUNT(*) FROM orders AS T1 JOIN users AS T2 ON T1.user_id != T2.id \
         WHERE T1.total > 300 GROUP BY T2.name ORDER BY T2.name LIMIT 3",
    ] {
        let query = sqlkit::parse_query(sql).unwrap();
        obs::reset();
        let interp = {
            let _on = obs::enable();
            minidb::exec::execute(&db, &query).unwrap()
        };
        let interp_ops = per_op(&obs::snapshot());

        obs::reset();
        let ran = {
            let _on = obs::enable();
            db.run_query(&query).unwrap()
        };
        let snap = obs::snapshot();
        assert_eq!(ran, interp, "`{sql}`");
        assert_eq!(snap.counter("minidb.dispatch.compiled"), 1, "`{sql}`");
        assert_eq!(snap.counter("minidb.dispatch.interpreter"), 0, "`{sql}`");
        assert_eq!(per_op(&snap), interp_ops, "`{sql}` per-operator work");
        assert!(snap.counter("minidb.work.join") > 0, "`{sql}`");
    }
    obs::reset();
}

/// Names bind before rows move: a statement that names a missing column —
/// here behind a 4 800-pair cross join the old lazy contract materialized
/// first — charges none of the seven operator classes, on `run_query`, on
/// the compiled plan and on the interpreter.
#[test]
fn a_name_error_charges_no_work_on_either_executor() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = demo_db();
    let query = sqlkit::parse_query("SELECT nosuch FROM users, orders").unwrap();
    let plan = minidb::compile(&db, &query).expect("a name error compiles to the plan that raises it");
    let expect = Err(minidb::ExecError::UnknownColumn("nosuch".into()));
    let runs: [&dyn Fn() -> minidb::ExecResult<minidb::ResultSet>; 3] = [
        &|| db.run_query(&query),
        &|| plan.execute_with_budget(&db, 1),
        &|| minidb::exec::execute_with_budget(&db, &query, 1),
    ];
    for run in runs {
        obs::reset();
        let outcome = {
            let _on = obs::enable();
            run()
        };
        let snap = obs::snapshot();
        assert_eq!(outcome, expect);
        for counter in WORK_COUNTERS {
            assert_eq!(snap.counter(counter), 0, "{counter}");
        }
        assert_eq!(snap.counter("minidb.work.total"), 0);
    }
    obs::reset();
}

#[test]
fn dispatch_counters_split_compiled_vs_interpreter() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = demo_db();
    obs::reset();
    {
        let _on = obs::enable();
        // compilable query -> compiled dispatch
        db.run("SELECT id FROM users WHERE id > 10").unwrap();
        // an uncorrelated subquery is a sub-plan slot -> compiled dispatch,
        // once for the statement (the sub-plan is not a dispatch of its own)
        db.run("SELECT name FROM users WHERE id IN (SELECT user_id FROM orders WHERE total > 300)")
            .unwrap();
        // a correlated subquery does not lower -> interpreter dispatch
        db.run(
            "SELECT name FROM users WHERE id IN \
             (SELECT user_id FROM orders WHERE orders.user_id = users.id)",
        )
        .unwrap();
        db.run("SELECT COUNT(*) FROM orders").unwrap();
    }
    let snap = obs::snapshot();
    assert_eq!(snap.counter("minidb.dispatch.compiled"), 3, "scans and uncorrelated subqueries");
    assert_eq!(snap.counter("minidb.dispatch.interpreter"), 1, "correlated subqueries fall back");
    obs::reset();
}

#[test]
fn disabled_recorder_observes_nothing_from_minidb() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = demo_db();
    obs::reset();
    obs::set_enabled(false);
    db.run("SELECT COUNT(*) FROM orders").unwrap();
    let snap = obs::snapshot();
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
}
