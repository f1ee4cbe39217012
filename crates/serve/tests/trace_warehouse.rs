//! End-to-end pins for the in-process tracing + telemetry-warehouse
//! plane:
//!
//! * a traced request yields a span tree readable through the handle AND
//!   `GET /v1/traces/<id>`, with the pipeline stages (queue → execute →
//!   compare) parented under one root;
//! * the warehouse flusher persists exactly those spans into the
//!   `trace_spans` table, so `SELECT count(*)` over SQL agrees with the
//!   live store;
//! * slow-log entries carry the request's trace id;
//! * with tracing off, no ids are minted and the trace endpoint refuses.

use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind, Sample};
use minidb::Value;
use nl2sql360::EvalContext;
use serve::{QueryRequest, ServeConfig, Service};

fn request(sample: &Sample, method: &str) -> QueryRequest {
    QueryRequest {
        method: method.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[0].clone(),
        deadline: None,
        trace: None,
    }
}

fn corpus() -> Corpus {
    generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91))
}

fn count_of(rs: &minidb::ResultSet) -> i64 {
    match rs.rows.first().and_then(|r| r.first()) {
        Some(Value::Int(n)) => *n,
        other => panic!("expected one integer cell, got {other:?}"),
    }
}

#[test]
fn traced_request_yields_span_tree_and_warehouse_rows() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let config = ServeConfig::builder()
        .workers(2)
        .request_tracing(true)
        .warehouse(true)
        .admin_addr("127.0.0.1:0".parse().expect("loopback addr"))
        .build()
        .expect("valid config");
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        let resp = handle.query(request(&corpus.dev[0], "C3SQL")).expect("served");
        assert_eq!(resp.trace_id.len(), 16, "traced response must carry a hex id");

        let spans = handle.trace_spans(&resp.trace_id).expect("trace recorded");
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for required in ["request", "queue", "execute", "compare"] {
            assert!(names.contains(&required), "missing span {required:?} in {names:?}");
        }
        // exactly one root, and every child's parent is a recorded span
        let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(roots.len(), 1, "one root span: {spans:?}");
        assert_eq!(roots[0].name, "request");
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert!(
                s.parent_id == 0 || ids.contains(&s.parent_id),
                "span {s:?} parents outside the tree"
            );
        }

        // the HTTP endpoint serves the same assembled tree
        let admin = handle.admin_addr().expect("admin bound");
        let (status, body) =
            serve::http::http_get(admin, &format!("/v1/traces/{}", resp.trace_id))
                .expect("trace fetch");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&resp.trace_id), "{body}");
        assert!(body.contains(&format!("\"span_count\":{}", spans.len())), "{body}");

        // slow log attribution: the entry carries the same trace id
        assert!(
            handle.slow_queries().iter().any(|e| e.trace_id == resp.trace_id),
            "slow-log entry lost its trace id"
        );

        // warehouse: after a forced flush, SQL over trace_spans agrees
        // with the live store span for span
        handle.flush_warehouse();
        let rs = handle
            .store_sql(&format!(
                "SELECT COUNT(*) FROM trace_spans WHERE trace_id = '{}'",
                resp.trace_id
            ))
            .expect("trace_spans query");
        assert_eq!(count_of(&rs) as usize, spans.len());
        let rs = handle
            .store_sql("SELECT COUNT(*) FROM metrics_history")
            .expect("metrics_history query");
        assert!(count_of(&rs) >= 1, "flush persisted no metrics snapshot");
    });
}

#[test]
fn untraced_service_mints_no_ids_and_refuses_trace_lookups() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let config = ServeConfig::builder()
        .workers(2)
        .admin_addr("127.0.0.1:0".parse().expect("loopback addr"))
        .build()
        .expect("valid config");
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        let resp = handle.query(request(&corpus.dev[0], "C3SQL")).expect("served");
        assert!(resp.trace_id.is_empty(), "tracing off must mint no ids");
        assert!(handle.trace_spans("00000000000000ab").is_none());
        let admin = handle.admin_addr().expect("admin bound");
        let (status, body) = serve::http::http_get(admin, "/v1/traces/00000000000000ab")
            .expect("trace fetch");
        assert_eq!(status, 404, "{body}");
        // the warehouse tables exist but hold nothing
        let rs = handle.store_sql("SELECT COUNT(*) FROM trace_spans").expect("query");
        assert_eq!(count_of(&rs), 0);
    });
}
