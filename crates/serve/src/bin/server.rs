//! `serve-server`: a standalone serve engine exposing the HTTP API.
//!
//! Regenerates its corpus from `--corpus-seed`, boots the engine with the
//! admin/API listener bound, prints one parseable banner line, then serves
//! until killed:
//!
//! ```text
//! serve-server admin=127.0.0.1:PORT corpus=Spider seed=N
//! ```
//!
//! This is the process behind `scripts/check.sh --api`: everything the
//! engine does — `POST /v1/sql`, `POST /v1/evals/<corpus>`, the admin
//! plane — is reachable on the printed address.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use nl2sql360::EvalContext;
use serve::{ServeConfig, Service};
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "serve-server: a standalone serve engine with the HTTP API bound

USAGE:
    serve-server [OPTIONS]

OPTIONS:
    --admin ADDR          API/admin listener [default: 127.0.0.1:0]
    --corpus-seed N       corpus generation seed [default: 42]
    --corpus KIND         spider | bird [default: spider]
    --methods A,B,C       methods to serve [default: C3SQL,DINSQL,DAILSQL(SC),SuperSQL]
    --queue N             requests in flight before Overloaded [default: 256]
    --static-check        enable the sqlcheck admission gate
    --trace               mint per-request trace ids, serve GET /v1/traces/<id>,
                          and run the telemetry warehouse (trace_spans +
                          metrics_history queryable via POST /v1/sql)
    -h, --help            print this help
";

struct Args {
    admin: SocketAddr,
    corpus_seed: u64,
    corpus_kind: CorpusKind,
    methods: Vec<String>,
    config: ServeConfig,
}

fn parse_args() -> Args {
    let mut out = Args {
        admin: "127.0.0.1:0".parse().expect("loopback literal parses"),
        corpus_seed: 42,
        corpus_kind: CorpusKind::Spider,
        methods: ["C3SQL", "DINSQL", "DAILSQL(SC)", "SuperSQL"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        config: ServeConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--admin" => out.admin = parse_addr(&value("--admin")),
            "--corpus-seed" => out.corpus_seed = parse_num(&value("--corpus-seed")),
            "--corpus" => {
                out.corpus_kind = match value("--corpus").as_str() {
                    "spider" => CorpusKind::Spider,
                    "bird" => CorpusKind::Bird,
                    other => {
                        eprintln!("unknown corpus kind {other:?} (want spider|bird)");
                        std::process::exit(2);
                    }
                }
            }
            "--methods" => {
                out.methods = value("--methods").split(',').map(str::to_string).collect()
            }
            "--queue" => out.config.queue_capacity = parse_num(&value("--queue")) as usize,
            "--static-check" => out.config.static_check = true,
            "--trace" => {
                out.config.request_tracing = true;
                out.config.warehouse = true;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    out.config.admin_addr = Some(out.admin);
    out
}

fn parse_addr(s: &str) -> SocketAddr {
    s.parse().unwrap_or_else(|e| {
        eprintln!("bad address {s:?}: {e}");
        std::process::exit(2);
    })
}

fn parse_num(s: &str) -> u64 {
    s.parse().unwrap_or_else(|e| {
        eprintln!("bad number {s:?}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = parse_args();
    let corpus = generate_corpus(args.corpus_kind, &CorpusConfig::tiny(args.corpus_seed));
    let ctx = EvalContext::new(&corpus);
    let methods: Vec<&str> = args.methods.iter().map(String::as_str).collect();
    Service::run_with_methods(args.config, &ctx, &methods, |handle| {
        let admin = handle.admin_addr().expect("admin endpoint bound");
        println!(
            "serve-server admin={admin} corpus={} seed={}",
            corpus.kind.name(),
            args.corpus_seed
        );
        // A known-good NL request for scripted smokes: the first dev
        // question (everything after "question=" is the question text).
        if let Some(sample) = corpus.dev.first() {
            println!(
                "serve-server sample db_id={} question={}",
                sample.db_id, sample.variants[0]
            );
        }
        let _ = std::io::stdout().flush();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    })
}
