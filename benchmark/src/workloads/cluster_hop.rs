//! `cluster_hop`: the service reached through the cluster's scheduler.
//!
//! An embedded `cluster::Scheduler` and one `cluster::Worker` run as
//! threads over loopback TCP; closed-loop `ClusterClient` connections
//! cycle the request list in order, the light methods dealt round-robin.
//! The worker's engine keeps the default `ServeConfig`, whose cache holds
//! the whole request population — the opposite cache regime from
//! `serve_zipf`. An op is one `ClusterClient::query`.

use super::serve_zipf::with_service;
use crate::layers::{p50_us, Layers};
use crate::load::{self, Window};
use crate::report::Report;
use crate::seeded::SplitMix64;
use crate::setup::{
    self, timed, Args, Outcome, Phase, SetupTime, CLUSTER_DEV_SAMPLES, CORPUS_SEED,
};
use crate::stages::{names, ExecProfile, Key, Pipeline, RequestSet, LIGHT_METHODS};
use crate::stats;
use crate::trace::{Node, Recorder};
use cluster::{Scheduler, SchedulerConfig, Worker, WorkerConfig};
use datagen::CorpusKind;
use nl2sql360::EvalContext;
use serve::proto::{read_frame, write_frame, ClusterClient, Message};
use serve::{QueryReply, ServeConfig, ServiceHandle};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "cluster_hop";

fn connect(addr: &str) -> ClusterClient {
    let mut client = ClusterClient::connect(addr, Duration::from_secs(5))
        .expect("the scheduler accepts clients");
    client.set_reply_timeout(Some(Duration::from_secs(60))).expect("a timeout can be set");
    client
}

/// One timed `ClusterClient::query` of request `i`, checked. A transport
/// error is a failed op.
fn query(
    client: &mut ClusterClient,
    set: &RequestSet,
    i: usize,
) -> (Duration, bool, Option<QueryReply>) {
    let request = set.requests[i].clone();
    let (reply, took) = timed(|| client.query(request));
    match reply {
        Ok(reply) => (took, set.expected[i].matches(&reply), Some(reply)),
        Err(_) => (took, false, None),
    }
}

/// A caller's state: its connection and where in the list it is.
struct Caller<C> {
    via: C,
    next: usize,
}

/// Closed-loop clients through the scheduler at `addr`.
fn drive_cluster(
    addr: &str,
    set: &RequestSet,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Window {
    let len = set.requests.len();
    load::closed_loop(
        load::callers(),
        warmup,
        window,
        |c| Caller { via: connect(addr), next: load::start_of(seed, c, len) },
        |caller| {
            let (took, ok, _) = query(&mut caller.via, set, caller.next % len);
            caller.next += 1;
            (took, ok)
        },
    )
}

/// The same loop against an in-process service.
fn drive_in_process(
    handle: &ServiceHandle<'_>,
    set: &RequestSet,
    seed: u64,
    warmup: Duration,
    window: Duration,
) -> Window {
    let len = set.requests.len();
    load::closed_loop(
        load::callers(),
        warmup,
        window,
        |c| Caller { via: (), next: load::start_of(seed, c, len) },
        |caller| {
            let i = caller.next % len;
            caller.next += 1;
            let (reply, took) = timed(|| handle.query(set.requests[i].clone()));
            (took, set.expected[i].matches(&reply))
        },
    )
}

/// Bytes and time to frame one request/reply pair through memory. The
/// reply's run-dependent fields are fixed first, so the byte count is a
/// function of the inputs alone.
fn frame_pair(id: u64, request: &serve::QueryRequest, reply: QueryReply) -> (usize, Duration) {
    let reply = reply.map(|r| serve::QueryResponse {
        latency: Duration::ZERO,
        cache_hit: false,
        batch_size: 1,
        ..r
    });
    let submit = Message::Submit { id, request: request.clone() };
    let result = Message::SubmitResult { id, reply };
    let mut wire = Vec::with_capacity(1024);
    let ((), took) = timed(|| {
        for message in [&submit, &result] {
            write_frame(&mut wire, message).expect("a Vec accepts writes");
        }
        let mut reader = wire.as_slice();
        for _ in 0..2 {
            std::hint::black_box(read_frame(&mut reader).expect("a frame just written reads back"));
        }
    });
    (wire.len(), took)
}

/// Set up, then do what `phase` asks.
pub fn run(args: &Args, phase: Phase) -> (SetupTime, Outcome) {
    let (corpus, gen) = setup::generate(setup::cluster());
    let (ctx, context) = timed(|| EvalContext::new(&corpus));
    let ((pipeline, set), reference) = timed(|| {
        let pipeline = Pipeline::new(&ctx, &LIGHT_METHODS, false, Key::Normalized);
        let set = pipeline.request_set();
        (pipeline, set)
    });

    let booting = Instant::now();
    let scheduler =
        SchedulerConfig { streams_per_worker: load::callers(), ..SchedulerConfig::default() };
    let (address, addressed) = std::sync::mpsc::channel::<String>();
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            let Ok(scheduler) = addressed.recv() else { return };
            let config = WorkerConfig {
                worker_id: "bench-w0".to_string(),
                scheduler,
                corpus_seed: CORPUS_SEED,
                corpus_dev_samples: Some(CLUSTER_DEV_SAMPLES),
                methods: LIGHT_METHODS.iter().map(|m| m.to_string()).collect(),
                serve: ServeConfig::default(),
                ..WorkerConfig::default()
            };
            Worker::run(config, |_| {
                let _ = stopped.recv();
            })
        });
        let out = Scheduler::run(scheduler, |sched| {
            let addr = sched.client_addr().to_string();
            address.send(addr.clone()).expect("the worker thread waits for the address");
            let registered =
                cluster::worker::wait_for(Duration::from_secs(60), || sched.ready_workers() == 1);
            assert!(registered, "the worker never registered with the scheduler");
            let setup = SetupTime::ended(gen, context, reference, booting.elapsed());
            let outcome = match phase {
                Phase::Measure => {
                    let window =
                        drive_cluster(&addr, &set, args.seed, args.warmup(), args.window());
                    let undisturbed = sched.requeued_total() == 0 && sched.reaped_total() == 0;
                    Outcome::Round(Window { invariants_held: undisturbed, ..window })
                }
                Phase::Trace => {
                    Outcome::Traced(trace(args, &ctx, &pipeline, &set, &addr, &setup, sched))
                }
            };
            (setup, outcome)
        });
        // the scheduler is down; only now may the worker go
        drop(stop);
        worker.join().expect("the worker exits cleanly");
        out
    })
}

/// The traced run: cluster against in-process on adjacent loaded rounds,
/// then the single-caller slice.
fn trace(
    args: &Args,
    ctx: &EvalContext<'_>,
    pipeline: &Pipeline<'_>,
    set: &RequestSet,
    addr: &str,
    setup: &SetupTime,
    sched: &cluster::SchedulerHandle,
) -> Report {
    let mut layers = Layers::new();
    layers.setup(CorpusKind::Spider, setup);
    let (mut attempted, mut failed) = (0, 0);
    let len = set.requests.len();
    let slice: Vec<usize> = {
        let start = SplitMix64::new(args.seed, 100).below(len);
        (0..args.slice).map(|k| (start + k) % len).collect()
    };
    let mut rec = Recorder::new();
    let mut frames: Vec<(usize, Duration)> = Vec::new();

    // the engine a worker embeds, in this process, on the same corpus
    with_service(ServeConfig::default(), ctx, |handle, _| {
        let pairs = 3;
        let round = args.part(0.5) / (2 * pairs);
        let (mut qps_ratio, mut hop_us) = (Vec::new(), Vec::new());
        for _ in 0..pairs {
            let via_cluster = drive_cluster(addr, set, args.seed, round / 4, round * 3 / 4);
            let in_process = drive_in_process(handle, set, args.seed, round / 4, round * 3 / 4);
            for s in [&via_cluster, &in_process] {
                attempted += s.latency_ns.len() as u64;
                failed += s.failed;
            }
            qps_ratio
                .push(via_cluster.latency_ns.len() as f64 / in_process.latency_ns.len() as f64);
            hop_us.push(p50_us(&via_cluster.latency_ns) - p50_us(&in_process.latency_ns));
        }
        layers.set("cluster.qps_ratio", stats::median(&qps_ratio), u64::from(pairs));
        layers.set("cluster.hop_us", stats::median(&hop_us), u64::from(pairs));

        let mut client = connect(addr);
        let mut whole_call = |traced: bool| -> Vec<u64> {
            let epoch = Instant::now();
            let now = || epoch.elapsed().as_nanos() as u64;
            slice
                .iter()
                .map(|&i| {
                    let op_start = now();
                    let (took, ok, reply) = query(&mut client, set, i);
                    let call_end = now();
                    attempted += 1;
                    failed += u64::from(!ok);
                    let took = took.as_nanos() as u64;
                    if let (true, Some(reply)) = (traced, reply) {
                        // what the worker does with the request: the same
                        // in-process query, whose stages are replayed in turn
                        let request = set.requests[i].clone();
                        let (local, local_took) = timed(|| handle.query(request));
                        let hit = local.as_ref().is_ok_and(|r| r.cache_hit);
                        let mut stages = Vec::new();
                        pipeline.run(set.ops[i], hit, &mut stages, &mut ExecProfile::default());
                        let served = Node {
                            name: names::SERVE_QUERY,
                            start_ns: None,
                            dur_ns: local_took.as_nanos() as u64,
                            children: stages,
                        };
                        let whole = Node::in_place(
                            names::CLUSTER_QUERY,
                            call_end - took,
                            call_end,
                            vec![served],
                        );
                        rec.op(op_start, call_end, &[whole]);
                        frames.push(frame_pair(i as u64, &set.requests[i], reply));
                    }
                    took
                })
                .collect()
        };
        whole_call(false);
        let untraced = whole_call(false);
        let traced = whole_call(true);
        layers.trace_overhead(&untraced, &traced);
        layers.service(&handle.metrics());
    });

    layers.spans(NAME, &rec, &args.out_dir).expect("trace file is writable");
    layers.set_p50_us("serve.dispatch_us", &rec.self_times_of(names::SERVE_QUERY));
    let frame_ns: Vec<u64> = frames.iter().map(|(_, took)| took.as_nanos() as u64).collect();
    layers.set_p50_us("serve.proto_frame_us", &frame_ns);
    let frame_bytes: u64 = frames.iter().map(|&(bytes, _)| bytes as u64).sum();
    layers.set(
        "serve.proto_frame_bytes",
        frame_bytes as f64 / frames.len().max(1) as f64,
        frames.len() as u64,
    );
    layers.set("cluster.forwarded", sched.forwarded_total() as f64, attempted);
    layers.set("cluster.requeued", sched.requeued_total() as f64, attempted);
    layers.set("cluster.reaped", sched.reaped_total() as f64, attempted);

    layers.nl_counts(pipeline, set, &slice);

    Report {
        attempted,
        failed,
        invariants_held: sched.requeued_total() == 0 && sched.reaped_total() == 0,
        metrics: layers.into_metrics(),
        beside: Vec::new(),
    }
}
