//! Deterministic load generator for the serve subsystem.
//!
//! Generates a seeded request mix over a synthetic corpus, drives the
//! service closed-loop (N client threads, one request in flight each;
//! in-process, over HTTP, or through a scheduler) or, through a scheduler
//! (`--open --endpoints`), open-loop (submit everything on one connection,
//! then collect), and prints a throughput/latency report. The *outcome*
//! section (per-request ex/em/errors, EX/EM totals, lost count) is
//! deterministic for a given seed and request count — independent of the
//! client count and cache timing. Only the performance section varies run
//! to run.
//!
//! ```text
//! serve-loadgen --requests 2000 --clients 8 --seed 7
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use nl2sql360::EvalContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{QueryError, QueryRequest, ServeConfig, Service, WindowReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const DEFAULT_METHODS: &[&str] = &["C3SQL", "DINSQL", "DAILSQL(SC)", "SuperSQL"];

struct Args {
    requests: usize,
    seed: u64,
    corpus_seed: u64,
    clients: usize,
    queue: usize,
    deadline_ms: Option<u64>,
    /// Remote mode only (`--endpoints`): submit the whole burst on one
    /// connection, then collect.
    open_loop: bool,
    scrape: bool,
    /// In-process mode: enable request tracing on the embedded engine so
    /// responses carry trace ids and the report can name exemplar traces.
    /// Remote modes report exemplars whenever the server traces.
    trace: bool,
    /// With `--endpoints`: drive `POST /v1/sql` over HTTP instead of the
    /// binary cluster protocol. Endpoints are then admin/API addresses
    /// (a worker's or the scheduler's), not Execute listeners.
    http: bool,
    /// In-process mode: key the execution cache on canonical SQL form, so
    /// the report's hit rate shows how many restyled duplicates the
    /// `sqlcheck::equiv` canonicalizer unifies (outcomes are unchanged).
    canonical_key: bool,
    /// Remote mode: drive these scheduler endpoints over TCP instead of
    /// an in-process service (clients round-robin across them).
    endpoints: Vec<String>,
    /// Extra admin endpoints to scrape once after the run (scheduler +
    /// worker `/metrics`), any mode.
    scrape_addrs: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            requests: 2000,
            seed: 7,
            corpus_seed: 42,
            clients: 16,
            queue: 256,
            deadline_ms: None,
            open_loop: false,
            scrape: false,
            trace: false,
            http: false,
            canonical_key: false,
            endpoints: Vec::new(),
            scrape_addrs: Vec::new(),
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = "usage: serve-loadgen [--requests N] [--seed N] \
                 [--corpus-seed N] [--clients N] [--queue N] \
                 [--deadline-ms N] [--open] [--scrape] [--trace] [--http] \
                 [--canonical-key] [--endpoints ADDR,ADDR,...] \
                 [--scrape-addr ADDR,ADDR,...]";
    while i < argv.len() {
        let need_value = |i: usize| -> &str {
            argv.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value for {}\n{usage}", argv[i]);
                std::process::exit(2);
            })
        };
        let parse = |s: &str| -> u64 {
            s.parse().unwrap_or_else(|_| {
                eprintln!("not a number: {s}\n{usage}");
                std::process::exit(2);
            })
        };
        match argv[i].as_str() {
            "--requests" => args.requests = parse(need_value(i)) as usize,
            "--seed" => args.seed = parse(need_value(i)),
            "--corpus-seed" => args.corpus_seed = parse(need_value(i)),
            "--clients" => args.clients = (parse(need_value(i)) as usize).max(1),
            "--queue" => args.queue = (parse(need_value(i)) as usize).max(1),
            "--deadline-ms" => args.deadline_ms = Some(parse(need_value(i))),
            "--endpoints" => {
                args.endpoints =
                    need_value(i).split(',').map(str::trim).map(str::to_string).collect()
            }
            "--scrape-addr" => {
                args.scrape_addrs =
                    need_value(i).split(',').map(str::trim).map(str::to_string).collect()
            }
            "--open" => {
                args.open_loop = true;
                i += 1;
                continue;
            }
            "--scrape" => {
                args.scrape = true;
                i += 1;
                continue;
            }
            "--trace" => {
                args.trace = true;
                i += 1;
                continue;
            }
            "--http" => {
                args.http = true;
                i += 1;
                continue;
            }
            "--canonical-key" => {
                args.canonical_key = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag: {other}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if args.open_loop && args.endpoints.is_empty() {
        // an in-process caller is served on its own thread, so there is no
        // queue for an open loop to fill; a scheduler connection has one
        eprintln!("--open drives a scheduler: give it --endpoints ADDR\n{usage}");
        std::process::exit(2);
    }
    args
}

/// How many exemplar slow traces the report names.
const EXEMPLARS: usize = 5;

/// Outcome tally; everything here is seed-deterministic except
/// `exemplars`, which belongs to the timing-dependent report section.
#[derive(Default)]
struct Tally {
    ok: u64,
    ex: u64,
    em: u64,
    cache_hits: u64,
    overloaded: u64,
    deadline: u64,
    refused: u64,
    other_err: u64,
    /// `(latency_us, trace_id)` of the slowest traced requests seen,
    /// slowest first, at most [`EXEMPLARS`] entries. Empty when the
    /// server does not trace.
    exemplars: Vec<(u64, String)>,
}

impl Tally {
    fn absorb(&mut self, reply: &Result<serve::QueryResponse, QueryError>) {
        match reply {
            Ok(resp) => {
                self.ok += 1;
                self.ex += resp.ex as u64;
                self.em += resp.em as u64;
                self.cache_hits += resp.cache_hit as u64;
                if !resp.trace_id.is_empty() {
                    self.note_exemplar(resp.latency.as_micros() as u64, &resp.trace_id);
                }
            }
            Err(QueryError::Overloaded) => self.overloaded += 1,
            Err(QueryError::DeadlineExceeded) => self.deadline += 1,
            Err(QueryError::TranslationRefused) => self.refused += 1,
            Err(_) => self.other_err += 1,
        }
    }

    /// Keep the top-[`EXEMPLARS`] slowest traced requests.
    fn note_exemplar(&mut self, latency_us: u64, trace_id: &str) {
        self.exemplars.push((latency_us, trace_id.to_string()));
        self.exemplars.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        self.exemplars.truncate(EXEMPLARS);
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.ex += other.ex;
        self.em += other.em;
        self.cache_hits += other.cache_hits;
        self.overloaded += other.overloaded;
        self.deadline += other.deadline;
        self.refused += other.refused;
        self.other_err += other.other_err;
        for (latency_us, trace_id) in other.exemplars {
            self.note_exemplar(latency_us, &trace_id);
        }
    }

    fn resolved(&self) -> u64 {
        self.ok + self.overloaded + self.deadline + self.refused + self.other_err
    }
}

/// Print the slowest traced requests so an operator can jump straight to
/// `serve-apictl trace <id>` / `GET /v1/traces/<id>`. Quiet when the
/// server did not trace anything.
fn print_exemplars(tally: &Tally) {
    if tally.exemplars.is_empty() {
        return;
    }
    println!("  slowest traced requests (exemplars):");
    for (latency_us, trace_id) in &tally.exemplars {
        println!(
            "    {} trace={trace_id}  (serve-apictl trace {trace_id})",
            fmt_duration(Some(Duration::from_micros(*latency_us)))
        );
    }
}

fn print_window(w: &WindowReport) {
    println!(
        "    last {:>3}s: {} req ({:.0} qps), {:.1}% errors, p50/p95/p99 {} / {} / {}",
        w.window.as_secs(),
        w.requests,
        w.qps,
        100.0 * w.error_rate,
        fmt_duration(w.p50),
        fmt_duration(w.p95),
        fmt_duration(w.p99)
    );
}

fn fmt_duration(d: Option<Duration>) -> String {
    match d {
        None => "-".to_string(),
        Some(d) if d < Duration::from_millis(1) => format!("{}µs", d.as_micros()),
        Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1e3),
    }
}

/// One-shot `/metrics` scrape of every `--scrape-addr` endpoint after the
/// run; any failure is fatal so scripted smokes can't silently skip it.
fn scrape_admin_endpoints(addrs: &[String]) {
    for addr in addrs {
        let parsed: std::net::SocketAddr = addr.parse().unwrap_or_else(|e| {
            eprintln!("FATAL: --scrape-addr {addr}: {e}");
            std::process::exit(1);
        });
        match serve::http::http_get(parsed, "/metrics") {
            Ok((200, body)) if !body.trim().is_empty() => {
                println!("  scrape {addr}: 200, {} bytes of /metrics", body.len());
            }
            Ok((status, body)) => {
                eprintln!(
                    "FATAL: scrape {addr}/metrics: status {status}, {} bytes",
                    body.len()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("FATAL: scrape {addr}/metrics: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// HTTP mode: drive `POST /v1/sql` on admin/API endpoints, one request
/// per connection (the API speaks HTTP/1.0 with `Connection: close`), so
/// this is always closed-loop. The reply status carries the outcome:
/// 200 parses into ex/em/cache-hit tallies, the refusal statuses map back
/// onto the same buckets as in-process [`QueryError`]s, and any transport
/// error or unexpected status is fatal.
fn run_http(args: &Args, requests: &[QueryRequest]) -> Tally {
    fn absorb_http(tally: &mut Tally, endpoint: &str, status: u16, body: &str) {
        match status {
            200 => {
                let parsed: serde::Value =
                    serde_json::from_str(body).unwrap_or_else(|e| {
                        eprintln!("FATAL: {endpoint} answered 200 with bad JSON: {e}");
                        std::process::exit(1);
                    });
                let flag = |key: &str| matches!(parsed.get(key), Some(serde::Value::Bool(true)));
                tally.ok += 1;
                tally.ex += flag("ex") as u64;
                tally.em += flag("em") as u64;
                tally.cache_hits += flag("cache_hit") as u64;
                if let (Some(serde::Value::Int(us)), Some(serde::Value::Str(id))) =
                    (parsed.get("latency_us"), parsed.get("trace_id"))
                {
                    tally.note_exemplar((*us).max(0) as u64, id);
                }
            }
            503 => tally.overloaded += 1,
            504 => tally.deadline += 1,
            422 => tally.refused += 1,
            404 | 500 => tally.other_err += 1,
            other => {
                eprintln!("FATAL: {endpoint} answered status {other}: {body}");
                std::process::exit(1);
            }
        }
    }

    let clients = args.clients.min(requests.len().max(1));
    let chunk = requests.len().div_ceil(clients).max(1);
    let mut tally = Tally::default();
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .enumerate()
            .map(|(i, chunk)| {
                let endpoint = &args.endpoints[i % args.endpoints.len()];
                scope.spawn(move || {
                    let addr: std::net::SocketAddr = endpoint.parse().unwrap_or_else(|e| {
                        eprintln!("FATAL: --endpoints {endpoint}: {e}");
                        std::process::exit(1);
                    });
                    let mut local = Tally::default();
                    for req in chunk {
                        let mut fields = vec![
                            ("question".to_string(), serde::Value::Str(req.question.clone())),
                            ("db_id".to_string(), serde::Value::Str(req.db_id.clone())),
                            ("method".to_string(), serde::Value::Str(req.method.clone())),
                        ];
                        if let Some(d) = req.deadline {
                            fields.push((
                                "deadline_ms".to_string(),
                                serde::Value::Int(d.as_millis() as i64),
                            ));
                        }
                        let body = serde_json::to_string(&serde::Value::Map(fields))
                            .unwrap_or_default();
                        match serve::http::http_post(addr, "/v1/sql", &body) {
                            Ok((status, reply)) => {
                                absorb_http(&mut local, endpoint, status, &reply)
                            }
                            Err(e) => {
                                eprintln!("FATAL: POST {endpoint}/v1/sql: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect::<Vec<_>>()
    });
    for t in tallies {
        tally.merge(t);
    }
    tally
}

/// Remote mode: drive scheduler endpoints over loopback TCP with
/// [`serve::proto::ClusterClient`] connections instead of an in-process
/// service. Any transport error is fatal — a lost connection means lost
/// requests, which is exactly what the zero-lost pin exists to catch.
fn run_remote(args: &Args, requests: &[QueryRequest]) -> Tally {
    fn connect(endpoint: &str) -> serve::proto::ClusterClient {
        let mut client =
            serve::proto::ClusterClient::connect(endpoint, Duration::from_secs(5))
                .unwrap_or_else(|e| {
                    eprintln!("FATAL: connect {endpoint}: {e}");
                    std::process::exit(1);
                });
        client
            .set_reply_timeout(Some(Duration::from_secs(120)))
            .expect("reply timeout set");
        client
    }

    let mut tally = Tally::default();
    if args.open_loop {
        // one connection: submit the whole burst, then collect every reply
        // and require each id to be answered exactly once
        let mut client = connect(&args.endpoints[0]);
        let mut ids = std::collections::BTreeSet::new();
        for req in requests {
            let id = client.submit(req.clone()).unwrap_or_else(|e| {
                eprintln!("FATAL: submit: {e}");
                std::process::exit(1);
            });
            assert!(ids.insert(id), "scheduler reused request id {id}");
        }
        for _ in 0..requests.len() {
            let (id, reply) = client.next_reply().unwrap_or_else(|e| {
                eprintln!("FATAL: reply: {e}");
                std::process::exit(1);
            });
            assert!(ids.remove(&id), "request {id} answered twice or never submitted");
            tally.absorb(&reply);
        }
        assert!(ids.is_empty(), "{} requests were never answered", ids.len());
    } else {
        // closed loop: each client thread owns one connection,
        // round-robined across the endpoints
        let clients = args.clients.min(requests.len().max(1));
        let chunk = requests.len().div_ceil(clients).max(1);
        let tallies = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .chunks(chunk)
                .enumerate()
                .map(|(i, chunk)| {
                    let endpoint = &args.endpoints[i % args.endpoints.len()];
                    scope.spawn(move || {
                        let mut client = connect(endpoint);
                        let mut local = Tally::default();
                        for req in chunk {
                            let reply = client.query(req.clone()).unwrap_or_else(|e| {
                                eprintln!("FATAL: query via {endpoint}: {e}");
                                std::process::exit(1);
                            });
                            local.absorb(&reply);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect::<Vec<_>>()
        });
        for t in tallies {
            tally.merge(t);
        }
    }
    tally
}

fn main() {
    let args = parse_args();
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(args.corpus_seed));
    let ctx = EvalContext::new(&corpus);

    // Pre-generate the request mix from one seeded stream so the set of
    // submitted requests never depends on thread scheduling.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let deadline = args.deadline_ms.map(Duration::from_millis);
    let requests: Vec<QueryRequest> = (0..args.requests)
        .map(|_| {
            let method = DEFAULT_METHODS[rng.gen_range(0..DEFAULT_METHODS.len())];
            let sample = &corpus.dev[rng.gen_range(0..corpus.dev.len())];
            let variant = rng.gen_range(0..sample.variants.len());
            QueryRequest {
                method: method.to_string(),
                db_id: sample.db_id.clone(),
                question: sample.variants[variant].clone(),
                deadline,
                trace: None,
            }
        })
        .collect();

    if args.http && args.endpoints.is_empty() {
        eprintln!("--http needs --endpoints with admin/API addresses");
        std::process::exit(2);
    }
    if !args.endpoints.is_empty() {
        if args.http && args.open_loop {
            eprintln!("--http is one request per connection; --open does not apply");
            std::process::exit(2);
        }
        let mode = match (args.http, args.open_loop) {
            (true, _) => "http closed-loop",
            (false, true) => "open-loop",
            (false, false) => "closed-loop",
        };
        let started = Instant::now();
        let tally =
            if args.http { run_http(&args, &requests) } else { run_remote(&args, &requests) };
        let wall = started.elapsed();

        println!(
            "serve-loadgen report ({})",
            if args.http { "remote http mode" } else { "remote cluster mode" }
        );
        println!(
            "  corpus: Spider tiny(seed={})  dev samples: {}  methods: {}",
            args.corpus_seed,
            corpus.dev.len(),
            DEFAULT_METHODS.join(", ")
        );
        println!(
            "  endpoints: {}  {} / {} clients, {} requests, seed {}",
            args.endpoints.join(", "),
            mode,
            args.clients,
            args.requests,
            args.seed
        );
        println!("outcomes (seed-deterministic; scheduling-independent):");
        println!(
            "  ok: {}  overloaded: {}  deadline: {}  refused: {}  other: {}",
            tally.ok, tally.overloaded, tally.deadline, tally.refused, tally.other_err
        );
        let pct =
            |n: u64| if tally.ok == 0 { 0.0 } else { 100.0 * n as f64 / tally.ok as f64 };
        println!(
            "  EX: {} ({:.1}% of ok)  EM: {} ({:.1}% of ok)",
            tally.ex,
            pct(tally.ex),
            tally.em,
            pct(tally.em)
        );
        println!("performance (timing-dependent):");
        println!(
            "  wall: {:.3}s  throughput: {:.0} req/s",
            wall.as_secs_f64(),
            tally.resolved() as f64 / wall.as_secs_f64().max(1e-9)
        );
        print_exemplars(&tally);
        scrape_admin_endpoints(&args.scrape_addrs);
        assert_eq!(
            tally.resolved(),
            args.requests as u64,
            "every submitted request must resolve exactly once"
        );
        println!("  lost requests: 0");
        return;
    }

    let mut config = ServeConfig { queue_capacity: args.queue, ..ServeConfig::default() };
    if args.scrape {
        config.admin_addr = Some("127.0.0.1:0".parse().expect("loopback addr"));
    }
    if args.trace {
        config.request_tracing = true;
    }
    if args.canonical_key {
        config.canonical_cache_key = true;
    }

    let started = Instant::now();
    let (tally, metrics, windows, scrape_result) =
        Service::run_with_methods(config, &ctx, DEFAULT_METHODS, |handle| {
            let stop_scraper = AtomicBool::new(false);
            let (tally, scrape_result) = std::thread::scope(|scope| {
                // Mid-run scraper: polls the live admin endpoint the way an
                // external Prometheus would, while traffic is in flight.
                let scraper = args.scrape.then(|| {
                    let addr = handle.admin_addr().expect("admin endpoint bound");
                    let stop = &stop_scraper;
                    scope.spawn(move || -> Result<u64, String> {
                        let mut scrapes = 0u64;
                        loop {
                            let (status, body) = serve::http::http_get(addr, "/metrics")
                                .map_err(|e| format!("GET /metrics: {e}"))?;
                            if status != 200 || !body.contains("serve_requests_total{") {
                                return Err(format!(
                                    "bad /metrics scrape: status {status}, {} bytes",
                                    body.len()
                                ));
                            }
                            for path in ["/healthz", "/readyz"] {
                                let (status, _) = serve::http::http_get(addr, path)
                                    .map_err(|e| format!("GET {path}: {e}"))?;
                                // readyz may legitimately be 503 under load
                                if status != 200 && !(path == "/readyz" && status == 503) {
                                    return Err(format!("GET {path}: status {status}"));
                                }
                            }
                            scrapes += 1;
                            if stop.load(Ordering::Acquire) {
                                return Ok(scrapes);
                            }
                            std::thread::sleep(Duration::from_millis(50));
                        }
                    })
                });

                // closed loop: each client thread keeps one request in
                // flight
                let mut tally = Tally::default();
                let clients = args.clients.min(requests.len().max(1));
                let chunk = requests.len().div_ceil(clients).max(1);
                let tallies = std::thread::scope(|clients_scope| {
                    let handles: Vec<_> = requests
                        .chunks(chunk)
                        .map(|chunk| {
                            clients_scope.spawn(move || {
                                let mut local = Tally::default();
                                for req in chunk {
                                    local.absorb(&handle.query(req.clone()));
                                }
                                local
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client panicked"))
                        .collect::<Vec<_>>()
                });
                for t in tallies {
                    tally.merge(t);
                }
                stop_scraper.store(true, Ordering::Release);
                let scrape_result = scraper.map(|s| s.join().expect("scraper panicked"));
                (tally, scrape_result)
            });
            let windows = [1u64, 10, 60]
                .map(|s| handle.window_report(Duration::from_secs(s)));
            (tally, handle.metrics(), windows, scrape_result)
        });
    let wall = started.elapsed();

    println!("serve-loadgen report");
    println!(
        "  corpus: Spider tiny(seed={})  dev samples: {}  methods: {}",
        args.corpus_seed,
        corpus.dev.len(),
        DEFAULT_METHODS.join(", ")
    );
    println!(
        "  config: in-flight cap {}, closed-loop / {} clients, {} requests, seed {}",
        args.queue, args.clients, args.requests, args.seed
    );
    // each client keeps at most one request in flight, so with no more
    // clients than the in-flight cap nobody is refused and the whole
    // outcome block reproduces bit-for-bit; deadline expiry is
    // timing-dependent by nature
    if args.deadline_ms.is_some() || args.clients > args.queue {
        println!("outcomes (admission/deadline are timing-dependent in this mode):");
    } else {
        println!("outcomes (seed-deterministic):");
    }
    println!(
        "  ok: {}  overloaded: {}  deadline: {}  refused: {}  other: {}",
        tally.ok, tally.overloaded, tally.deadline, tally.refused, tally.other_err
    );
    let pct = |n: u64| if tally.ok == 0 { 0.0 } else { 100.0 * n as f64 / tally.ok as f64 };
    println!(
        "  EX: {} ({:.1}% of ok)  EM: {} ({:.1}% of ok)",
        tally.ex,
        pct(tally.ex),
        tally.em,
        pct(tally.em)
    );
    println!("performance (timing-dependent):");
    println!(
        "  wall: {:.3}s  throughput: {:.0} req/s",
        wall.as_secs_f64(),
        tally.resolved() as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!(
        "  latency p50/p95/p99: {} / {} / {}",
        fmt_duration(metrics.p50),
        fmt_duration(metrics.p95),
        fmt_duration(metrics.p99)
    );
    println!(
        "    queue-wait p50/p95/p99: {} / {} / {}",
        fmt_duration(metrics.queue_p50),
        fmt_duration(metrics.queue_p95),
        fmt_duration(metrics.queue_p99)
    );
    println!(
        "    exec p50/p95/p99: {} / {} / {}",
        fmt_duration(metrics.exec_p50),
        fmt_duration(metrics.exec_p95),
        fmt_duration(metrics.exec_p99)
    );
    println!("  cache hit rate: {:.1}%", 100.0 * metrics.cache_hit_rate);
    print_exemplars(&tally);
    println!("  windowed (sampled at shutdown):");
    for w in &windows {
        print_window(w);
    }
    if !metrics.exec_failures.is_empty() {
        let kinds: Vec<String> = metrics
            .exec_failures
            .iter()
            .map(|(k, n)| format!("{}: {n}", k.label()))
            .collect();
        println!("  exec failures by kind: {}", kinds.join("  "));
    }

    if let Some(result) = scrape_result {
        match result {
            Ok(scrapes) => println!(
                "  scrape: {scrapes} live scrape rounds of /metrics + /healthz + /readyz"
            ),
            Err(e) => {
                eprintln!("FATAL: admin endpoint scrape failed: {e}");
                std::process::exit(1);
            }
        }
    }

    scrape_admin_endpoints(&args.scrape_addrs);

    let lost = metrics.lost();
    println!("  lost requests: {lost}");
    assert_eq!(
        tally.resolved(),
        args.requests as u64,
        "every submitted request must resolve exactly once"
    );
    if lost != 0 {
        eprintln!("FATAL: {lost} requests entered the service but were never answered");
        std::process::exit(1);
    }
}
