//! `serve-scheduler`: the cluster front door as a process.
//!
//! Binds the client/control listener and the admin endpoint, prints one
//! parseable line with the bound addresses, then runs until killed:
//!
//! ```text
//! serve-scheduler listening client=127.0.0.1:PORT admin=127.0.0.1:PORT
//! ```
//!
//! Workers register themselves (`serve-worker --scheduler <client
//! addr>`); clients are `serve-loadgen --endpoints <client addr>` or any
//! `serve::proto::ClusterClient`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use cluster::{Scheduler, SchedulerConfig};
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "serve-scheduler: route NL2SQL requests across serve workers

USAGE:
    serve-scheduler [OPTIONS]

OPTIONS:
    --listen ADDR              client + worker-control listener [default: 127.0.0.1:0]
    --admin ADDR               admin HTTP endpoint; 'none' disables [default: 127.0.0.1:0]
    --heartbeat-timeout-ms N   evict a worker after N ms of silence [default: 3000]
    --reap-interval-ms N       reaper sweep interval [default: 250]
    --max-attempts N           forward attempts per request [default: 3]
    --streams-per-worker N     concurrent forward streams per worker [default: 2]
    --vnodes N                 ring virtual nodes per worker [default: 64]
    --forward-timeout-ms N     per-forward reply deadline [default: 30000]
    --trace                    mint per-request trace ids, merge worker spans,
                               and serve GET /v1/traces/<id> on the admin port
    --warehouse                persist span trees + cluster metric snapshots
                               into the telemetry warehouse (implies --trace);
                               queryable via POST /v1/sql raw-SQL bodies
    -h, --help                 print this help
";

fn parse_args() -> SchedulerConfig {
    let mut config = SchedulerConfig {
        admin_addr: Some("127.0.0.1:0".parse().expect("loopback literal parses")),
        ..SchedulerConfig::default()
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
            "--listen" => config.listen = parse_addr(&value("--listen")),
            "--admin" => {
                let v = value("--admin");
                config.admin_addr = if v == "none" { None } else { Some(parse_addr(&v)) };
            }
            "--heartbeat-timeout-ms" => {
                config.heartbeat_timeout =
                    Duration::from_millis(parse_num(&value("--heartbeat-timeout-ms")))
            }
            "--reap-interval-ms" => {
                config.reap_interval = Duration::from_millis(parse_num(&value("--reap-interval-ms")))
            }
            "--max-attempts" => config.max_attempts = parse_num(&value("--max-attempts")) as u32,
            "--streams-per-worker" => {
                config.streams_per_worker = parse_num(&value("--streams-per-worker")) as usize
            }
            "--vnodes" => config.vnodes = parse_num(&value("--vnodes")) as usize,
            "--forward-timeout-ms" => {
                config.forward_timeout =
                    Duration::from_millis(parse_num(&value("--forward-timeout-ms")))
            }
            "--trace" => config.request_tracing = true,
            "--warehouse" => {
                config.request_tracing = true;
                config.warehouse = true;
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
    Scheduler::run(config, |handle| {
        let admin = handle
            .admin_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|| "none".to_string());
        println!("serve-scheduler listening client={} admin={admin}", handle.client_addr());
        let _ = std::io::stdout().flush();
        // run until killed; the spawners (check.sh --cluster, the kill
        // test) stop this process with a signal
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    })
}
