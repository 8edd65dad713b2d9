//! The four workloads, their shared set-up, and the pinned settings
//! they run under.
//!
//! Every workload: warm up, then measure one window cut into slices of
//! [`SLICE`](crate::loadgen::SLICE). The harness
//! reaches the system only through its public entry points and times
//! those calls from outside.

use crate::client::{infer_head, put_request, Conn};
use crate::loadgen::{
    nanos, poisson_schedule, summarize, By, ClientLog, Expect, InferClient, Rec, WindowStats,
    MAX_LAG,
};
use crate::metrics::Metric;
use crate::models::{
    assert_matches_emulator, deep_mlp, expected_outputs, mnist_tiny, padded_artifact, Composed,
    RowPool, Upload, MODEL_SEED, OTHER_MODEL_SEED, ROWS,
};
use crate::stats::{percentile, Summary};
use crate::trace::{self_times, Span, Tracer};
use rapidnn::gateway::{Gateway, GatewayConfig, RegistryConfig};
use rapidnn::serve::{Engine, EngineConfig, ServerStats, Ticket};
use rapidnn::tensor::SeededRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

// Pinned settings: the shipped defaults with thread counts fixed for a
// 2-core box. Identical on every commit and recorded in the output.
pub const GATEWAY_WORKERS: usize = 2;
pub const MAX_INFLIGHT: usize = 256;
pub const WARMUP_SAMPLES: usize = 8;
pub const ENGINE_WORKERS: usize = 1;
pub const QUEUE_CAPACITY: usize = 1024;
pub const MAX_BATCH_SIZE: usize = 32;
pub const MAX_WAIT: Duration = Duration::from_millis(1);
/// Client threads and connections; at most `nproc` on the 2-core box.
pub const CLIENTS: usize = 2;
pub const WARMUP: Duration = Duration::from_secs(2);
pub const BASE_RATE: f64 = 500.0;
pub const RUNG_RATES: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
/// A request meets the limit when its correct 200 is read within this
/// long of the instant it was due.
pub const SLO_LATENCY: Duration = Duration::from_millis(5);
pub const SLO_SHARE: f64 = 0.95;
pub const OFFLINE_BATCH_ROWS: usize = 64;
pub const OFFLINE_IN_FLIGHT: usize = 4;
pub const SWAP_PERIOD: Duration = Duration::from_millis(50);
/// The one name every workload serves its model under.
pub const MODEL_NAME: &str = "m";
/// Spawning and connecting happen before an open-loop phase's first
/// arrival is due.
const PHASE_LEAD: Duration = Duration::from_millis(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OnlineSmall,
    OnlineWideOpen,
    OfflineBatch,
    SwapUnderLoad,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OnlineSmall,
        Workload::OnlineWideOpen,
        Workload::OfflineBatch,
        Workload::SwapUnderLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineSmall => "online_small",
            Workload::OnlineWideOpen => "online_wide_open",
            Workload::OfflineBatch => "offline_batch",
            Workload::SwapUnderLoad => "swap_under_load",
        }
    }

    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OnlineSmall => "closed loop, 2 connections, 64-byte rows, deep-mlp f32: the kernel is ~1% of the round trip, so socket, HTTP, admission and the batcher hold do the work; a kernel change must show nothing",
            Workload::OnlineWideOpen => "open loop, seeded Poisson arrivals at 500 rps then a rate ladder, 3136-byte rows, mnist-tiny int16: per-byte parse/copy and the 784-feature encode matter, and a stall is charged to later requests",
            Workload::OfflineBatch => "no gateway: 4 submit_batch calls of 64 mnist-tiny int16 rows kept in flight: the kernels do the work and the batcher never holds, so a kernel change shows and a batcher change must not cost",
            Workload::SwapUnderLoad => "closed-loop inference on one connection while another PUTs the same model every 50 ms (f32, int16, optimize): the write path beside the read path, so a gain for one that costs the other shows",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Every field is pinned today; the struct update keeps the harness
// compiling when the engine grows one.
#[allow(clippy::needless_update)]
pub fn engine_config(max_batch_size: usize, stages: usize) -> EngineConfig {
    EngineConfig {
        workers: ENGINE_WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        max_batch_size,
        max_wait: MAX_WAIT,
        stages,
        ..EngineConfig::default()
    }
}

pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: GATEWAY_WORKERS,
        registry: RegistryConfig {
            engine: engine_config(MAX_BATCH_SIZE, 0),
            max_inflight: MAX_INFLIGHT,
            warmup_samples: WARMUP_SAMPLES,
            ..RegistryConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub window: Duration,
    pub warmup: Duration,
    /// Set-ups per batch; an untraced run times one batch before the
    /// window and one after it.
    pub setup_reps: usize,
    pub replay_rows: usize,
}

impl Plan {
    /// `--quick` divides every window by 10 for a smoke run.
    pub fn new(seconds: f64, quick: bool) -> Plan {
        let scale: u32 = if quick { 10 } else { 1 };
        Plan {
            window: Duration::from_secs_f64(seconds) / scale,
            warmup: WARMUP / scale,
            setup_reps: if quick { 2 } else { 15 },
            replay_rows: 1000 / scale as usize,
        }
    }

    pub fn halved(self) -> Plan {
        Plan {
            window: self.window / 2,
            ..self
        }
    }
}

/// Everything a workload runs against: a bound gateway serving the
/// workload's model, and what was uploaded to it.
pub struct Fixture {
    pub workload: Workload,
    pub gateway: Gateway,
    /// The model variant 0 was compiled from.
    pub composed: Composed,
    /// What the workload uploads; set-up uploads variant 0, and
    /// `swap_under_load` rotates through all three.
    pub uploads: Vec<Upload>,
    /// `offline_batch`'s own engine (the workload has no gateway in its
    /// path; the gateway above serves the traced run's layer replay).
    pub engine: Option<Engine>,
    /// `swap_under_load`: the variant each generation serves, and how
    /// many PUTs earlier runs on this fixture have sent.
    generation_variant: Vec<u8>,
    puts_sent: usize,
}

impl Fixture {
    pub fn features(&self) -> usize {
        self.composed.model.input_features()
    }

    /// Rows are uniform in `±` this: the ranges the legacy benches drew
    /// from for deep-mlp and mnist-tiny.
    fn row_range(&self) -> f32 {
        match self.workload {
            Workload::OnlineSmall => 2.0,
            _ => 1.0,
        }
    }

    /// PUTs `upload` over a fresh connection and returns the reply's
    /// status.
    pub fn upload(&self, upload: &Upload) -> std::io::Result<u16> {
        let mut conn = Conn::open(self.gateway.local_addr())?;
        let (reply, _) = conn.round_trip(&put_request(MODEL_NAME, upload))?;
        Ok(reply.status)
    }
}

/// Composes and compiles the workload's model, binds the gateway and
/// uploads the model over HTTP: everything `setup_s` times.
pub fn set_up(workload: Workload) -> Fixture {
    let (composed, uploads) = match workload {
        Workload::OnlineSmall => {
            let composed = deep_mlp(MODEL_SEED);
            let uploads = vec![Upload::plain(composed.model.to_bytes())];
            (composed, uploads)
        }
        Workload::OnlineWideOpen | Workload::OfflineBatch => {
            let composed = mnist_tiny(MODEL_SEED);
            let uploads = vec![Upload {
                int16: true,
                ..Upload::plain(composed.model.to_bytes())
            }];
            (composed, uploads)
        }
        Workload::SwapUnderLoad => {
            let a = mnist_tiny(MODEL_SEED);
            let b = mnist_tiny(OTHER_MODEL_SEED);
            let uploads = vec![
                Upload::plain(a.model.to_bytes()),
                Upload {
                    int16: true,
                    ..Upload::plain(b.model.to_bytes())
                },
                Upload {
                    optimize: true,
                    ..Upload::plain(padded_artifact(&a))
                },
            ];
            (a, uploads)
        }
    };
    let engine = (workload == Workload::OfflineBatch)
        .then(|| Engine::start(uploads[0].prepared(), engine_config(OFFLINE_BATCH_ROWS, 0)));
    let fixture = Fixture {
        workload,
        gateway: Gateway::bind(gateway_config()).expect("gateway binds a loopback port"),
        composed,
        uploads,
        engine,
        generation_variant: vec![0],
        puts_sent: 0,
    };
    let status = fixture
        .upload(&fixture.uploads[0])
        .expect("upload round trip");
    assert_eq!(status, 201, "set-up upload was not accepted");
    fixture
}

/// The seeded inputs of one run and the answers they must get.
pub struct Inputs {
    pub rows: RowPool,
    pub expect: Expect,
}

/// Generates the request rows from `seed` and computes every variant's
/// expected outputs with `CompiledModel::infer` on the identically
/// prepared model; f32 variants of the composed model are also checked
/// against the composer's emulator.
pub fn inputs_for(fixture: &Fixture, seed: u64) -> Inputs {
    let rows = RowPool::generate(seed, fixture.features(), fixture.row_range());
    let width = fixture.composed.model.output_features() * 4;
    let variants: Vec<Vec<u8>> = fixture
        .uploads
        .iter()
        .map(|upload| expected_outputs(&upload.prepared(), &rows))
        .collect();
    for (upload, expected) in fixture.uploads.iter().zip(&variants) {
        // Every f32 upload is of the composed model (the swap
        // rotation's other model, B, goes up as int16).
        if !upload.int16 {
            assert_matches_emulator(&fixture.composed.net, &rows, expected, 64);
        }
    }
    Inputs {
        rows,
        expect: Expect { width, variants },
    }
}

/// What one run of a workload measured.
pub struct Run {
    /// The measured window (for `online_wide_open`, the base rate).
    pub stats: WindowStats,
    /// Rows one correct reply carries.
    pub rows_per_reply: f64,
    /// Operations attempted and failed, and wrong answers among them.
    /// For `online_wide_open`: the base window and the rungs up to the
    /// rate that met the limit; for `swap_under_load`: `PUT`s too.
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Per-workload observations, named as per-layer metrics.
    pub observed: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Run {
    pub fn rows_per_s(&self) -> Summary {
        self.stats.ok_per_s.scaled(self.rows_per_reply)
    }
}

/// What only some workloads see; the rest report the neutral value.
#[derive(Default)]
struct Seen {
    /// Open loop: `sent - due` of every request of the window that
    /// went out, ascending, and how many were scheduled.
    lags: Vec<u64>,
    scheduled: u64,
    reconnects: u64,
    slo_rate_rps: f64,
    swap_ms_p50: f64,
}

/// Builds a [`Run`] from the window's summary, the engine's own
/// counters and what the harness saw of itself.
fn finish(
    stats: WindowStats,
    rows_per_reply: usize,
    server: &ServerStats,
    spans: Vec<Span>,
    seen: Seen,
) -> Run {
    // Median self time of the `request` spans: what the harness adds
    // around the phases beneath them.
    let mut selfs: Vec<u64> = spans
        .iter()
        .zip(self_times(&spans))
        .filter(|(s, _)| s.name == "request")
        .map(|(_, t)| t)
        .collect();
    selfs.sort_unstable();
    let achieved = if seen.scheduled == 0 {
        1.0
    } else {
        seen.lags.len() as f64 / seen.scheduled as f64
    };
    let observed = vec![
        Metric::point("gateway.registry.shed_count", server.shed as f64),
        Metric::point("serve.engine.batch_rows_mean", server.mean_batch_size),
        Metric::point("serve.engine.batches", server.batches as f64),
        Metric::point(
            "serve.engine.peak_queue_depth",
            server.peak_queue_depth as f64,
        ),
        Metric::point(
            "serve.engine.mean_latency_us",
            server.mean_latency.as_secs_f64() * 1e6,
        ),
        Metric::point(
            "loadgen.lag_p50_us",
            percentile(&seen.lags, 50.0) as f64 / 1e3,
        ),
        Metric::point(
            "loadgen.lag_p99_us",
            percentile(&seen.lags, 99.0) as f64 / 1e3,
        ),
        Metric::point("loadgen.achieved_share", achieved),
        Metric::point("loadgen.reconnects", seen.reconnects as f64),
        Metric::point(
            "loadgen.client_self_us",
            percentile(&selfs, 50.0) as f64 / 1e3,
        ),
        Metric::point("workload.slo_rate_rps", seen.slo_rate_rps),
        Metric::point("workload.swap_ms_p50", seen.swap_ms_p50),
    ];
    Run {
        attempted: stats.attempted,
        failed: stats.failed,
        wrong: stats.wrong,
        stats,
        rows_per_reply: rows_per_reply as f64,
        observed,
        spans,
    }
}

/// The gateway's counters for the served model.
fn gateway_stats(fixture: &Fixture) -> ServerStats {
    fixture
        .gateway
        .registry()
        .stats(MODEL_NAME)
        .expect("model is registered")
        .server
}

/// Runs [`CLIENTS`] inference clients, one thread and one connection
/// each, and merges what they bring back. `drive` gets the client's
/// index and the client.
fn run_clients(
    fixture: &Fixture,
    inputs: &Inputs,
    epoch: Instant,
    trace: bool,
    lane_base: u64,
    drive: impl Fn(usize, InferClient<'_>) -> ClientLog + Sync,
) -> (Vec<Rec>, Vec<Span>, u64) {
    let addr = fixture.gateway.local_addr();
    let head = infer_head(MODEL_NAME, fixture.features());
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let lane = lane_base + i as u64;
                let client = InferClient::new(
                    addr,
                    &head,
                    &inputs.rows,
                    &inputs.expect,
                    epoch,
                    lane,
                    trace,
                );
                let drive = &drive;
                scope.spawn(move || drive(i, client))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let mut recs = Vec::new();
    let mut spans = Vec::new();
    let mut reconnects = 0;
    for log in logs {
        recs.extend(log.recs);
        spans.extend(log.tracer.spans);
        reconnects += log.reconnects;
    }
    (recs, spans, reconnects)
}

/// Runs `fixture`'s workload once: warm-up, then `plan.window`.
pub fn run(fixture: &mut Fixture, inputs: &Inputs, seed: u64, plan: Plan, trace: bool) -> Run {
    match fixture.workload {
        Workload::OnlineSmall => online_small(fixture, inputs, plan, trace),
        Workload::OnlineWideOpen => online_wide_open(fixture, inputs, seed, plan, trace),
        Workload::OfflineBatch => offline_batch(fixture, inputs, plan, trace),
        Workload::SwapUnderLoad => swap_under_load(fixture, inputs, plan, trace),
    }
}

fn online_small(fixture: &Fixture, inputs: &Inputs, plan: Plan, trace: bool) -> Run {
    let epoch = Instant::now();
    let until = epoch + plan.warmup + plan.window;
    let (recs, spans, reconnects) = run_clients(fixture, inputs, epoch, trace, 0, |i, client| {
        client.closed_loop(i, CLIENTS, until)
    });
    let stats = summarize(&recs, plan.warmup, plan.window, By::Done);
    let seen = Seen {
        reconnects,
        ..Seen::default()
    };
    finish(stats, 1, &gateway_stats(fixture), spans, seen)
}

/// One open-loop phase: a seeded Poisson schedule at `rate` for
/// `length`, dealt alternately to the connections, the first arrival
/// due [`PHASE_LEAD`] after the phase's epoch.
struct Phase {
    rate: f64,
    length: Duration,
    lane_base: u64,
    /// See [`InferClient::open_loop`].
    give_up_after: Option<Duration>,
}

fn open_phase(
    fixture: &Fixture,
    inputs: &Inputs,
    rng: &mut SeededRng,
    trace: bool,
    phase: Phase,
) -> (Vec<Rec>, Vec<Span>, u64) {
    let schedule = poisson_schedule(rng, phase.rate, phase.length);
    let start = PHASE_LEAD.as_nanos() as u64;
    let mut dealt: Vec<Vec<(u64, u32)>> = vec![Vec::new(); CLIENTS];
    for (i, offset) in schedule.iter().enumerate() {
        dealt[i % CLIENTS].push((start + offset, (i % ROWS) as u32));
    }
    run_clients(
        fixture,
        inputs,
        Instant::now(),
        trace,
        phase.lane_base,
        |i, client| client.open_loop(&dealt[i], phase.give_up_after),
    )
}

/// Whether a phase met the limit: enough of the scheduled requests got
/// a correct 200 in time, and the generator never fell far behind.
fn meets_slo(recs: &[Rec], start: Duration, len: Duration) -> bool {
    let (start, len) = (start.as_nanos() as u64, len.as_nanos() as u64);
    let scheduled: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.due >= start && r.due < start + len)
        .collect();
    let in_time = scheduled
        .iter()
        .filter(|r| r.ok() && r.done - r.due <= SLO_LATENCY.as_nanos() as u64)
        .count();
    let on_schedule = scheduled
        .iter()
        .all(|r| r.sent > 0 && r.sent.saturating_sub(r.due) <= MAX_LAG.as_nanos() as u64);
    !scheduled.is_empty() && on_schedule && in_time as f64 >= SLO_SHARE * scheduled.len() as f64
}

fn online_wide_open(fixture: &Fixture, inputs: &Inputs, seed: u64, plan: Plan, trace: bool) -> Run {
    // Half the window at the base rate, then five rungs of a tenth
    // each, stopping at the first that fails.
    let base_len = plan.window / 2;
    let rung_len = plan.window / 10;
    let mut rng = SeededRng::new(seed ^ 0x5eed_a771);
    // The base rate is never abandoned: a stall of the machine there is
    // charged to the requests behind it, not turned into failures.
    let base = Phase {
        rate: BASE_RATE,
        length: plan.warmup + base_len,
        lane_base: 0,
        give_up_after: None,
    };
    let (recs, mut spans, mut reconnects) = open_phase(fixture, inputs, &mut rng, trace, base);
    let start = PHASE_LEAD + plan.warmup;
    let stats = summarize(&recs, start, base_len, By::Due);
    let (mut attempted, mut failed, mut wrong) = (stats.attempted, stats.failed, stats.wrong);
    let window = start.as_nanos() as u64..(start + base_len).as_nanos() as u64;
    let mut lags: Vec<u64> = recs
        .iter()
        .filter(|r| window.contains(&r.due) && r.sent > 0)
        .map(|r| r.sent.saturating_sub(r.due))
        .collect();
    lags.sort_unstable();
    let mut slo_rate_rps = 0.0;
    if meets_slo(&recs, start, base_len) {
        slo_rate_rps = BASE_RATE;
        for (i, rate) in RUNG_RATES.into_iter().enumerate() {
            let rung = Phase {
                rate,
                length: rung_len,
                lane_base: (i as u64 + 1) * CLIENTS as u64,
                give_up_after: Some(MAX_LAG),
            };
            let (rung, rung_spans, rung_reconnects) =
                open_phase(fixture, inputs, &mut rng, trace, rung);
            spans.extend(rung_spans);
            reconnects += rung_reconnects;
            if !meets_slo(&rung, PHASE_LEAD, rung_len) {
                break;
            }
            let s = summarize(&rung, PHASE_LEAD, rung_len, By::Due);
            attempted += s.attempted;
            failed += s.failed;
            wrong += s.wrong;
            slo_rate_rps = rate;
        }
    }
    let seen = Seen {
        lags,
        scheduled: stats.attempted,
        reconnects,
        slo_rate_rps,
        ..Seen::default()
    };
    Run {
        attempted,
        failed,
        wrong,
        ..finish(stats, 1, &gateway_stats(fixture), spans, seen)
    }
}

fn offline_batch(fixture: &Fixture, inputs: &Inputs, plan: Plan, trace: bool) -> Run {
    let engine = fixture
        .engine
        .as_ref()
        .expect("offline_batch has an engine");
    let (recs, spans) = batch_loop(
        engine,
        inputs,
        plan.warmup + plan.window,
        trace.then(|| Tracer::new(0)),
    );
    let stats = summarize(&recs, plan.warmup, plan.window, By::Done);
    finish(
        stats,
        OFFLINE_BATCH_ROWS,
        &engine.stats(),
        spans,
        Seen::default(),
    )
}

/// The offline loop: one submitter keeps [`OFFLINE_IN_FLIGHT`]
/// `submit_batch` calls of [`OFFLINE_BATCH_ROWS`] rows in flight for
/// `length`, checking every answer. Also what the traced run uses to
/// compare engine topologies.
pub fn batch_loop(
    engine: &Engine,
    inputs: &Inputs,
    length: Duration,
    mut tracer: Option<Tracer>,
) -> (Vec<Rec>, Vec<Span>) {
    struct Pending {
        ticket: Ticket,
        block: usize,
        sent: u64,
        submitted: u64,
    }
    let block_bytes = OFFLINE_BATCH_ROWS * inputs.expect.width;
    let epoch = Instant::now();
    let until = epoch + length;
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(OFFLINE_IN_FLIGHT);
    let mut recs = Vec::new();
    let mut block = 0;
    loop {
        let submitting = Instant::now() < until;
        if pending.len() == OFFLINE_IN_FLIGHT || !submitting {
            let Some(p) = pending.pop_front() else {
                break;
            };
            let waiting = nanos(epoch, Instant::now());
            let answer = p.ticket.wait();
            let done = nanos(epoch, Instant::now());
            let rec = match answer {
                Ok(output) => {
                    let at = (p.block % (ROWS / OFFLINE_BATCH_ROWS)) * block_bytes;
                    let same = output.iter().flat_map(|v| v.to_le_bytes()).eq(inputs
                        .expect
                        .variants[0][at..at + block_bytes]
                        .iter()
                        .copied());
                    Rec {
                        due: p.sent,
                        sent: p.sent,
                        done,
                        row: p.block as u32,
                        status: 200,
                        generation: 0,
                        matches: u8::from(same),
                    }
                }
                Err(_) => Rec::io_error(p.sent, p.sent, done, p.block as u32),
            };
            recs.push(rec);
            if let Some(t) = tracer.as_mut() {
                let request = t.root("request", p.sent, done);
                t.child(request, "submit", p.sent, p.submitted);
                t.child(request, "wait", waiting, done);
            }
        }
        if submitting {
            let input = inputs.rows.block(block, OFFLINE_BATCH_ROWS).to_vec();
            let sent = nanos(epoch, Instant::now());
            match engine.submit_batch(input) {
                Ok(ticket) => pending.push_back(Pending {
                    ticket,
                    block,
                    sent,
                    submitted: nanos(epoch, Instant::now()),
                }),
                Err(_) => recs.push(Rec::io_error(sent, sent, sent, block as u32)),
            }
            block += 1;
        }
    }
    (recs, tracer.map_or_else(Vec::new, |t| t.spans))
}

/// One PUT of the swap rotation.
struct PutRec {
    sent: u64,
    done: u64,
    status: u16,
    generation: Option<u64>,
    variant: u8,
}

fn swap_under_load(fixture: &mut Fixture, inputs: &Inputs, plan: Plan, trace: bool) -> Run {
    let addr = fixture.gateway.local_addr();
    let head = infer_head(MODEL_NAME, fixture.features());
    let requests: Vec<Vec<u8>> = fixture
        .uploads
        .iter()
        .map(|u| put_request(MODEL_NAME, u))
        .collect();
    let first_put = fixture.puts_sent;
    let epoch = Instant::now();
    let until = epoch + plan.warmup + plan.window;
    let (log, (puts, put_reconnects)) = std::thread::scope(|scope| {
        let client = InferClient::new(addr, &head, &inputs.rows, &inputs.expect, epoch, 0, trace);
        let inference = scope.spawn(move || client.closed_loop(0, 1, until));
        let requests = &requests;
        let swapper = scope.spawn(move || {
            let mut conn = Conn::open(addr).expect("swap connection");
            let mut puts = Vec::new();
            for k in 0.. {
                let due = epoch + SWAP_PERIOD * k as u32;
                if due >= until {
                    break;
                }
                // A fixed schedule: a slow PUT delays the next one but
                // never bunches them.
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                // PUT k asks for variant k+1, so generation g serves
                // variant g mod 3 while every PUT succeeds.
                let variant = (first_put + k + 1) % requests.len();
                let put = match conn.round_trip(&requests[variant]) {
                    Ok((reply, timing)) => PutRec {
                        sent: nanos(epoch, timing.sent),
                        done: nanos(epoch, timing.done),
                        status: reply.status,
                        generation: std::str::from_utf8(conn.body(&reply))
                            .ok()
                            .and_then(|body| crate::json::parse(body).ok())
                            .and_then(|doc| doc.get("generation")?.as_f64())
                            .map(|g| g as u64),
                        variant: variant as u8,
                    },
                    Err(_) => PutRec {
                        sent: nanos(epoch, due),
                        done: nanos(epoch, Instant::now()),
                        status: 0,
                        generation: None,
                        variant: variant as u8,
                    },
                };
                puts.push(put);
            }
            (puts, conn.reconnects)
        });
        (
            inference.join().expect("inference client"),
            swapper.join().expect("swap client"),
        )
    });
    fixture.puts_sent += puts.len();
    for put in puts.iter().filter(|p| p.status == 200) {
        if let Some(generation) = put.generation {
            let g = generation as usize;
            if fixture.generation_variant.len() <= g {
                fixture.generation_variant.resize(g + 1, u8::MAX);
            }
            fixture.generation_variant[g] = put.variant;
        }
    }
    // The gateway reads the generation before it submits, so a request
    // racing a cutover may be answered by the next generation: either
    // of the two is a correct answer for the header it carries.
    let mut recs = log.recs;
    for r in &mut recs {
        let allowed = [r.generation as usize, r.generation as usize + 1]
            .iter()
            .filter_map(|&g| fixture.generation_variant.get(g))
            .filter(|&&v| v != u8::MAX)
            .fold(0u8, |mask, &v| mask | 1 << v);
        r.matches &= allowed;
    }
    let mut spans = log.tracer.spans;
    if trace {
        let mut tracer = Tracer::new(1);
        for p in &puts {
            tracer.root("put", p.sent, p.done);
        }
        spans.extend(tracer.spans);
    }
    let stats = summarize(&recs, plan.warmup, plan.window, By::Done);
    let window = plan.warmup.as_nanos() as u64..(plan.warmup + plan.window).as_nanos() as u64;
    let measured: Vec<&PutRec> = puts.iter().filter(|p| window.contains(&p.done)).collect();
    let mut swap_ns: Vec<u64> = measured
        .iter()
        .filter(|p| p.status == 200)
        .map(|p| p.done - p.sent)
        .collect();
    swap_ns.sort_unstable();
    let seen = Seen {
        reconnects: log.reconnects + put_reconnects,
        swap_ms_p50: percentile(&swap_ns, 50.0) as f64 / 1e6,
        ..Seen::default()
    };
    let mut run = finish(stats, 1, &gateway_stats(fixture), spans, seen);
    run.attempted += measured.len() as u64;
    run.failed += measured.iter().filter(|p| p.status != 200).count() as u64;
    run
}

/// `VmHWM` of this process in MB: peak resident memory so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs set-up `reps` times, keeps the last fixture, and returns the
/// duration of each.
pub fn timed_set_up(workload: Workload, reps: usize) -> (Fixture, Vec<f64>) {
    let mut durations = Vec::with_capacity(reps);
    let mut fixture = None;
    for _ in 0..reps.max(1) {
        // Shut the previous gateway down outside the timed span.
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(set_up(workload));
        durations.push(start.elapsed().as_secs_f64());
    }
    (fixture.expect("at least one set-up"), durations)
}
