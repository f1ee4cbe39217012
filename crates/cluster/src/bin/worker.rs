//! `serve-worker`: one in-process serve engine as a cluster member.
//!
//! Regenerates its corpus from `--corpus-seed` (deterministic, so every
//! worker and client started with the same seed agrees on the question
//! set), registers with the scheduler, prints one parseable line with the
//! bound addresses, then serves until killed:
//!
//! ```text
//! serve-worker WID serve=127.0.0.1:PORT admin=127.0.0.1:PORT
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use cluster::{Worker, WorkerConfig};
use serve::ServeConfig;
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "serve-worker: a serve engine worker for serve-scheduler

USAGE:
    serve-worker --scheduler ADDR [OPTIONS]

OPTIONS:
    --scheduler ADDR      the scheduler's client/control address (required)
    --id WID              worker identity [default: w0]
    --listen ADDR         Execute listener [default: 127.0.0.1:0]
    --admin ADDR          engine admin endpoint; 'none' disables [default: 127.0.0.1:0]
    --corpus-seed N       corpus generation seed [default: 7]
    --corpus KIND         spider | bird [default: spider]
    --methods A,B,C       methods to serve [default: C3SQL,DINSQL,DAILSQL(SC),SuperSQL]
    --workers N           engine worker threads [default: cores]
    --queue N             engine admission-queue capacity [default: 256]
    --heartbeat-ms N      heartbeat interval [default: 500]
    --static-check        enable the sqlcheck admission gate
    --trace               trace requests through this engine so forwarded
                          hops ship their span subtrees back to the scheduler
    -h, --help            print this help
";

fn parse_args() -> WorkerConfig {
    let mut config = WorkerConfig::default();
    let mut serve_config = ServeConfig {
        admin_addr: Some("127.0.0.1:0".parse().expect("loopback literal parses")),
        ..ServeConfig::default()
    };
    let mut scheduler_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scheduler" => {
                config.scheduler = value("--scheduler");
                scheduler_set = true;
            }
            "--id" => config.worker_id = value("--id"),
            "--listen" => config.listen = parse_addr(&value("--listen")),
            "--admin" => {
                let v = value("--admin");
                serve_config.admin_addr = if v == "none" { None } else { Some(parse_addr(&v)) };
            }
            "--corpus-seed" => config.corpus_seed = parse_num(&value("--corpus-seed")),
            "--corpus" => {
                config.corpus_kind = match value("--corpus").as_str() {
                    "spider" => datagen::CorpusKind::Spider,
                    "bird" => datagen::CorpusKind::Bird,
                    other => {
                        eprintln!("unknown corpus kind {other:?} (want spider|bird)");
                        std::process::exit(2);
                    }
                }
            }
            "--methods" => {
                config.methods = value("--methods").split(',').map(str::to_string).collect()
            }
            "--workers" => serve_config.workers = parse_num(&value("--workers")) as usize,
            "--queue" => serve_config.queue_capacity = parse_num(&value("--queue")) as usize,
            "--heartbeat-ms" => {
                config.heartbeat = Duration::from_millis(parse_num(&value("--heartbeat-ms")))
            }
            "--static-check" => serve_config.static_check = true,
            "--trace" => serve_config.request_tracing = true,
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
    if !scheduler_set {
        eprintln!("--scheduler is required\n\n{USAGE}");
        std::process::exit(2);
    }
    config.serve = serve_config;
    config
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
    let config = parse_args();
    let worker_id = config.worker_id.clone();
    Worker::run(config, |runtime| {
        let admin = runtime
            .admin_addr
            .map(|a| a.to_string())
            .unwrap_or_else(|| "none".to_string());
        println!("serve-worker {worker_id} serve={} admin={admin}", runtime.serve_addr);
        let _ = std::io::stdout().flush();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    })
}
