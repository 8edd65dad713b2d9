//! Batched, multi-threaded serving engine.
//!
//! [`Engine::start`] runs one kind of thread, the *stage*: take a
//! micro-batch from the inlet, run an op range over it in one
//! [`BatchRunner`] call outside the lock, hand the result to the outlet.
//! The inlet is the bounded request queue — gather up to
//! [`EngineConfig::max_batch_size`] rows, waiting at most
//! [`EngineConfig::max_wait`] for stragglers — or the link from the
//! stage before; the outlet is the link to the stage after, or the
//! reply step that answers each request through its own channel.
//! Unsharded, the engine is the one-stage pipeline over the whole
//! program, replicated [`EngineConfig::workers`] times over the shared
//! queue; sharded ([`EngineConfig::stages`]), it is one thread per op
//! range, chained by bounded FIFO links.
//!
//! Encoding happens at admission: each submit call encodes its rows on
//! the calling thread, padded as the kernels run them, before it takes
//! the queue lock, so a stage runs only the op program — as the chip's
//! input encoder is its own block ahead of the compute tiles. A stage's
//! runner and scratch arena persist across batches, so the op loop
//! performs no per-sample heap allocation.
//!
//! The straggler wait is bounded both ways: a stage stops waiting the
//! moment its batch fills or shutdown begins, and the deadline is
//! measured from the first request popped — a partial batch is never
//! held longer than [`EngineConfig::max_wait`], even when the queue has
//! gone idle.
//!
//! Backpressure is explicit: [`Engine::try_submit`] returns
//! [`ServeError::QueueFull`] instead of buffering without bound, while
//! [`Engine::submit`] blocks until space frees up. Shutdown drains the
//! queue before the stages exit, so every accepted request is answered.
//! A panic inside inference is caught and returned to the affected
//! requesters as [`ServeError::WorkerPanic`]; the stage itself keeps
//! serving.

use crate::artifact::CompiledModel;
use crate::error::{Result, ServeError};
use crate::kernels::{pad_rows, BatchRunner, FlowData, FlowState};
use crate::metrics::{Metrics, ServerStats};
use crate::pipeline::{self, PipelineStats, StagePlan, StageStats};
use rapidnn_pool::spsc;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batches each inter-stage channel buffers: enough for adjacent
/// stages to overlap, small enough that backpressure reaches the
/// request queue after a couple of batches rather than after a pile.
const STAGE_CHANNEL_CAP: usize = 2;

/// Tuning knobs for [`Engine::start`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` sizes the pool to available parallelism.
    /// Ignored when [`stages`](Self::stages) shards the model — the
    /// stage set is the worker set (one thread per stage).
    pub workers: usize,
    /// Maximum queued (accepted but unserved) requests.
    pub queue_capacity: usize,
    /// Most *rows* a worker executes per batch. A single
    /// [`Engine::submit_batch`] request carrying more rows than this
    /// still runs (alone, in one kernel call).
    pub max_batch_size: usize,
    /// Longest a worker holds a partial batch waiting for more work.
    pub max_wait: Duration,
    /// Pipeline stages to shard the op program into: `0` or `1` serves
    /// unsharded; `2+` splits the model into that many contiguous op
    /// ranges (clamped to the number of legal cut points), each with
    /// its own worker and scratch arena, connected by bounded channels.
    /// Outputs are bit-identical either way.
    pub stages: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 1024,
            max_batch_size: 32,
            max_wait: Duration::from_millis(1),
            stages: 0,
        }
    }
}

impl EngineConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }
}

/// One batch's outputs, shared by every reply from that batch: the
/// worker pays one allocation per *batch* instead of one `Vec` per
/// request, and the requester copies its row out on its own thread.
#[derive(Debug, Clone)]
struct ReplySlice {
    data: Arc<[f32]>,
    start: usize,
    len: usize,
}

impl ReplySlice {
    fn to_vec(&self) -> Vec<f32> {
        self.data[self.start..self.start + self.len].to_vec()
    }
}

/// One queued request: `rows` feature rows (`rows == 1` for plain
/// [`Engine::submit`]; [`Engine::submit_batch`] carries a whole
/// pre-batched block in one job), encoded at admission into the first
/// op's domain and padded with zero rows to [`pad_rows`]`(rows)`.
struct Job {
    input: FlowData,
    rows: usize,
    reply: mpsc::Sender<Result<ReplySlice>>,
    enqueued: Instant,
}

/// Queue state guarded by the mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when work arrives or shutdown begins.
    work_ready: Condvar,
    /// Signalled when queue space frees up.
    space_ready: Condvar,
}

/// Handle to one in-flight request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    reply: mpsc::Receiver<Result<ReplySlice>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Propagates the inference error, or [`ServeError::ShuttingDown`] if
    /// the engine died before answering.
    pub fn wait(self) -> Result<Vec<f32>> {
        match self.reply.recv() {
            Ok(result) => result.map(|slice| slice.to_vec()),
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Blocks until the response arrives or `timeout` elapses; `None` on
    /// timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<f32>>> {
        match self.reply.recv_timeout(timeout) {
            Ok(result) => Some(result.map(|slice| slice.to_vec())),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Outcome of [`Engine::drain`]: the final stats plus whether every
/// worker finished inside the deadline.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Metrics snapshot taken when the drain returned.
    pub stats: ServerStats,
    /// `true` when all workers drained the queue and exited before the
    /// deadline. `false` means the workers were detached still running;
    /// they hold their own `Arc`s to the queue and metrics, keep
    /// answering the remaining accepted requests, and exit once the
    /// queue empties — the engine just stopped waiting for them.
    pub joined: bool,
    /// Requests accepted but not yet answered when the drain returned:
    /// `0` after a clean join, and the actual stranded-work count when
    /// the deadline fired first. Before this field a deadline expiry
    /// with a full queue was indistinguishable from a clean drain that
    /// merely joined slowly.
    pub in_flight_at_deadline: u64,
}

/// A running inference server over one [`CompiledModel`].
pub struct Engine {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    model: Arc<CompiledModel>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    /// What a sharded engine keeps for stats: the plan, and the
    /// occupancy gauge of each link between two of its stages.
    pipeline: Option<(StagePlan, Vec<spsc::Gauge>)>,
}

impl Engine {
    /// Starts the stage threads and returns the serving handle.
    ///
    /// With [`EngineConfig::stages`] ≥ 2 (and a model with at least one
    /// legal cut point) the op program is sharded into balanced
    /// contiguous ranges: stage 0 gathers batches from the request
    /// queue, every stage runs its range on its own thread and scratch
    /// arena, and micro-batches stream stage-to-stage through bounded
    /// FIFO channels — outputs stay bit-identical to the unsharded
    /// engine at any stage count.
    pub fn start(model: CompiledModel, config: EngineConfig) -> Engine {
        let queue_capacity = config.queue_capacity.max(1);
        let max_batch = config.max_batch_size.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
        });
        let metrics = Arc::new(Metrics::new());
        let model = Arc::new(model);
        // A sharded model is its plan's ranges, one thread each; an
        // unsharded one is the single stage over the whole program,
        // replicated `workers` times over the shared queue.
        let plan = pipeline::plan_stages(&model, config.stages);
        let whole = 0..model.op_count();
        let (ranges, replicas) = match &plan {
            Some(plan) => (plan.ranges.clone(), 1),
            None => (vec![whole], config.resolved_workers()),
        };
        let mut gauges = Vec::with_capacity(ranges.len() - 1);
        let mut workers = Vec::with_capacity(replicas * ranges.len());
        for _ in 0..replicas {
            // Link s connects stage s to stage s+1.
            let mut inlets = vec![Inlet::Queue(Arc::clone(&shared), config.max_wait)];
            let mut outlets = Vec::with_capacity(ranges.len());
            for _ in 1..ranges.len() {
                let (tx, rx, gauge) = spsc::channel::<Micro>(STAGE_CHANNEL_CAP);
                outlets.push(Some(tx));
                inlets.push(Inlet::Link(rx));
                gauges.push(gauge);
            }
            outlets.push(None);
            for ((range, inlet), outlet) in ranges.iter().cloned().zip(inlets).zip(outlets) {
                let (metrics, model) = (Arc::clone(&metrics), Arc::clone(&model));
                workers.push(std::thread::spawn(move || {
                    stage_loop(&metrics, &model, range, max_batch, inlet, outlet);
                }));
            }
        }
        Engine {
            shared,
            metrics,
            model,
            workers,
            queue_capacity,
            pipeline: plan.map(|plan| (plan, gauges)),
        }
    }

    /// The model being served.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Worker-pool size.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for a width mismatch (checked before
    /// enqueueing), [`ServeError::QueueFull`] when the bounded queue is at
    /// capacity, [`ServeError::ShuttingDown`] after shutdown began.
    pub fn try_submit(&self, input: impl AsRef<[f32]>) -> Result<Ticket> {
        self.admit(input.as_ref(), false, false)
    }

    /// Submits a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for a width mismatch,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: impl AsRef<[f32]>) -> Result<Ticket> {
        self.admit(input.as_ref(), false, true)
    }

    /// Submits a pre-batched request — `rows × input_features` values
    /// flattened row-major — without blocking. The whole block runs as
    /// one unit and the ticket resolves to `rows × output_features`
    /// values. The block is encoded at admission as one padded buffer,
    /// so a stage serving it alone skips the gather copy and runs the
    /// op program straight off that buffer.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] when `input` is empty or not a whole
    /// number of feature rows; [`ServeError::QueueFull`] /
    /// [`ServeError::ShuttingDown`] as for [`try_submit`](Self::try_submit).
    pub fn try_submit_batch(&self, input: impl AsRef<[f32]>) -> Result<Ticket> {
        self.admit(input.as_ref(), true, false)
    }

    /// Blocking variant of [`try_submit_batch`](Self::try_submit_batch):
    /// waits for queue space instead of returning
    /// [`ServeError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for a shape mismatch,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit_batch(&self, input: impl AsRef<[f32]>) -> Result<Ticket> {
        self.admit(input.as_ref(), true, true)
    }

    /// The one admission path behind the four submit calls: `batch`
    /// says whether `input` may hold any whole number of rows or must
    /// be exactly one, `wait` whether a full queue blocks the caller or
    /// bounces it with [`ServeError::QueueFull`]. The rows are encoded
    /// before the lock, and after `enqueued`, so latency covers the encode.
    fn admit(&self, input: &[f32], batch: bool, wait: bool) -> Result<Ticket> {
        let (len, features) = (input.len(), self.model.input_features());
        let rows = if batch { len / features.max(1) } else { 1 };
        if rows == 0 || len != rows * features {
            return Err(ServeError::InvalidInput(if batch {
                format!("batch of {len} values is not a non-empty whole number of {features}-feature rows")
            } else {
                format!("request has {len} features, model expects {features}")
            }));
        }
        let enqueued = Instant::now();
        let mut runner = BatchRunner::new();
        runner.encode_batch(&self.model, input, pad_rows(rows));
        let input = runner.take_flow(self.model.flow[0].domain);
        let mut state = lock_state(&self.shared);
        loop {
            if state.shutting_down {
                return Err(ServeError::ShuttingDown);
            }
            if state.jobs.len() < self.queue_capacity {
                let (reply, rx) = mpsc::channel();
                state.jobs.push_back(Job {
                    input,
                    rows,
                    reply,
                    enqueued,
                });
                self.metrics.record_submit(state.jobs.len());
                self.shared.work_ready.notify_one();
                return Ok(Ticket { reply: rx });
            }
            if !wait {
                self.metrics.record_rejected();
                return Err(ServeError::QueueFull);
            }
            state = self
                .shared
                .space_ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Current metrics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.metrics.snapshot()
    }

    /// Shared handle to the engine's metrics sink, so a caller in front
    /// of the engine (e.g. a gateway's admission control) can record
    /// into the same per-model [`ServerStats`] the engine reports.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting requests, drains the queue, joins the workers, and
    /// returns the final stats. Every request accepted before the call is
    /// still answered.
    pub fn shutdown(self) -> ServerStats {
        let metrics = Arc::clone(&self.metrics);
        drop(self);
        metrics.snapshot()
    }

    /// Gracefully drains the engine with a deadline: stops accepting new
    /// requests, lets the workers finish every accepted request, and
    /// waits up to `deadline` for them to exit.
    ///
    /// Unlike [`shutdown`](Self::shutdown), which joins unconditionally,
    /// `drain` never blocks past the deadline: workers still running
    /// when it expires are detached ([`DrainReport::joined`] is `false`)
    /// and keep answering the queue's remaining requests on their own —
    /// every accepted ticket is still redeemable either way. This is the
    /// primitive a hot-swap builds on: cut traffic to the new engine,
    /// then `drain` the old one without risking an unbounded stall.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        self.begin_shutdown();
        let end = Instant::now() + deadline;
        let mut workers = std::mem::take(&mut self.workers);
        let joined = loop {
            workers.retain(|w| !w.is_finished());
            if workers.is_empty() || Instant::now() >= end {
                // Dropping the handles detaches the stragglers; they own
                // Arcs to everything they touch, so this is safe.
                break workers.is_empty();
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let stats = self.metrics.snapshot();
        // Accepted minus answered (either way) is exactly the work the
        // detached workers still hold; counters only ever grow, so a
        // torn read can only momentarily overstate it — saturate.
        let in_flight_at_deadline = stats
            .submitted
            .saturating_sub(stats.completed)
            .saturating_sub(stats.failed);
        DrainReport {
            stats,
            joined,
            in_flight_at_deadline,
        }
    }

    /// Stage topology and queue occupancy when this engine serves a
    /// sharded pipeline; `None` for the unsharded (one-stage) engine.
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        let (plan, gauges) = self.pipeline.as_ref()?;
        let stages = plan
            .ranges
            .iter()
            .enumerate()
            .map(|(s, range)| {
                let (queue_depth, queue_capacity) = if s == 0 {
                    (lock_state(&self.shared).jobs.len(), self.queue_capacity)
                } else {
                    (gauges[s - 1].len(), gauges[s - 1].capacity())
                };
                StageStats {
                    ops: range.clone(),
                    cost_units: plan.costs[s],
                    queue_depth,
                    queue_capacity,
                }
            })
            .collect();
        Some(PipelineStats { stages })
    }

    /// Pipeline stages this engine runs (`1` when serving unsharded).
    pub fn stage_count(&self) -> usize {
        self.pipeline
            .as_ref()
            .map_or(1, |(plan, _)| plan.ranges.len())
    }

    /// Stops accepting requests without waiting for anything: later
    /// submissions answer [`ServeError::ShuttingDown`], a stage holding
    /// a partial batch runs it at once, and every accepted request is
    /// still answered. What [`shutdown`](Self::shutdown),
    /// [`drain`](Self::drain) and drop begin with; callable ahead of
    /// them through a shared handle, so a displaced engine stops
    /// holding the moment traffic is cut over.
    pub fn begin_shutdown(&self) {
        let mut state = lock_state(&self.shared);
        state.shutting_down = true;
        drop(state);
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.queue_capacity)
            .field("input_features", &self.model.input_features())
            .finish()
    }
}

fn lock_state(shared: &Shared) -> std::sync::MutexGuard<'_, QueueState> {
    // A worker can only panic between batches with the lock released, so
    // a poisoned mutex still guards consistent state.
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Gathers a dynamic batch from the request queue into `batch`,
/// row-aware: jobs join until their summed rows would exceed
/// `max_rows` (a single job bigger than `max_rows` still runs, alone).
/// The straggler wait runs from the first pop and ends at the earliest
/// of: batch full, shutdown, or `max_wait` elapsed — a partial batch is
/// never held past the deadline.
///
/// Returns `false` only when the engine is shutting down and the queue
/// has drained (the caller should exit); on `true` the batch is
/// non-empty.
fn gather_batch(
    shared: &Shared,
    metrics: &Metrics,
    batch: &mut Vec<Job>,
    max_rows: usize,
    max_wait: Duration,
) -> bool {
    batch.clear();
    let mut rows = 0usize;
    let mut state = lock_state(shared);
    // Sleep until there is work; exit only once the queue has drained
    // after shutdown.
    while state.jobs.is_empty() {
        if state.shutting_down {
            return false;
        }
        state = shared
            .work_ready
            .wait(state)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let deadline = Instant::now() + max_wait;
    loop {
        // `full` means the *next* queued job no longer fits by rows —
        // stop waiting for stragglers, there is no room for them.
        let mut full = false;
        while let Some(front) = state.jobs.front() {
            if !batch.is_empty() && rows + front.rows > max_rows {
                full = true;
                break;
            }
            let job = state
                .jobs
                .pop_front()
                .expect("front existed under the lock");
            rows += job.rows;
            batch.push(job);
        }
        if full || rows >= max_rows || state.shutting_down {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (next, timeout) = shared
            .work_ready
            .wait_timeout(state, deadline - now)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state = next;
        if timeout.timed_out() && state.jobs.is_empty() {
            break;
        }
    }
    metrics.set_queue_depth(state.jobs.len());
    drop(state);
    // Queue space was freed by the pops above; wake blocked submitters
    // only now that there is actually room.
    shared.space_ready.notify_all();
    true
}

/// The flow buffer the queue inlet runs a gathered batch of `rows` on:
/// a lone job's encoded rows, handed over as they are — admission
/// padded them — or several jobs' rows copied in order into the arena
/// buffer of the first op's domain, pad rows zero.
fn admitted(runner: &mut BatchRunner, at: FlowState, batch: &mut [Job], rows: usize) -> FlowData {
    if let [only] = batch {
        return std::mem::replace(&mut only.input, FlowData::Codes(Vec::new()));
    }
    let mut data = runner.take_flow(at.domain);
    let parts = batch.iter().map(|job| (&job.input, job.rows * at.width));
    data.gather(parts, pad_rows(rows) * at.width);
    data
}

/// Answers every job in `batch` out of one shared output allocation;
/// each requester copies its rows out on its own thread when it
/// redeems the ticket.
fn answer_ok(metrics: &Metrics, batch: &[Job], data: &Arc<[f32]>, width: usize) {
    let mut start = 0;
    for job in batch {
        metrics.record_completion(job.enqueued.elapsed(), true);
        let len = job.rows * width;
        // The requester may have dropped its ticket; fine.
        let _ = job.reply.send(Ok(ReplySlice {
            data: Arc::clone(data),
            start,
            len,
        }));
        start += len;
    }
}

/// Fails every job in `batch` with the error `err` builds — one per job,
/// since [`ServeError`] is not `Clone` (it can wrap `io::Error`).
fn answer_err(metrics: &Metrics, batch: &[Job], err: impl Fn() -> ServeError) {
    for job in batch {
        metrics.record_completion(job.enqueued.elapsed(), false);
        let _ = job.reply.send(Err(err()));
    }
}

/// One micro-batch in flight between pipeline stages: the jobs it will
/// answer, its row count, and the flow buffer being transformed. The
/// buffer *moves* stage to stage — rows are never copied or reordered,
/// which is half of the bit-identity argument (the other half is that
/// channels are FIFO and stages run disjoint op ranges in order).
struct Micro {
    jobs: Vec<Job>,
    rows: usize,
    data: FlowData,
}

/// Where a stage's micro-batches come from.
enum Inlet {
    /// The request queue: the stage gathers a dynamic batch of jobs
    /// encoded at admission, holding a partial one at most this long.
    Queue(Arc<Shared>, Duration),
    /// The link from the stage before, whose buffers arrive in the
    /// model's flow state at this stage's first op. The link closes once
    /// that stage has exited *and* its buffered micro-batches are
    /// drained — shutdown is a cascade from the queue end.
    Link(spsc::Receiver<Micro>),
}

/// The engine's one loop: take a micro-batch from `inlet`, run `range`
/// over it, hand the result to `outlet` — the link to the next stage,
/// or (`None`) the reply step that answers every job in the batch.
///
/// The model fixes every flow state, so executing a micro-batch can
/// fail only by panic — on a model that bypassed the construction gate
/// — which fails exactly that batch's jobs; the stage keeps serving.
fn stage_loop(
    metrics: &Metrics,
    model: &CompiledModel,
    range: std::ops::Range<usize>,
    max_batch: usize,
    inlet: Inlet,
    outlet: Option<spsc::Sender<Micro>>,
) {
    // Per-stage scratch, reused across batches: the batch kernel's
    // arena, which also takes in a gathered batch's encoded rows.
    // Nothing here allocates per sample once the high-water batch size
    // has been seen.
    let mut runner = BatchRunner::for_model(model, max_batch);
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    loop {
        let (rows, data) = match &inlet {
            Inlet::Queue(shared, max_wait) => {
                if !gather_batch(shared, metrics, &mut batch, max_batch, *max_wait) {
                    return;
                }
                let rows: usize = batch.iter().map(|job| job.rows).sum();
                metrics.record_batch(rows);
                (rows, admitted(&mut runner, model.flow[0], &mut batch, rows))
            }
            Inlet::Link(rx) => {
                let Some(micro) = rx.recv() else { return };
                batch = micro.jobs;
                (micro.rows, micro.data)
            }
        };
        let padded = pad_rows(rows);
        // Contain panics so a bad batch cannot kill the stage: a dead
        // stage would shrink the pool silently (or cut the pipeline),
        // and queued tickets would wait forever. The runner resets its
        // scratch on every call, so reuse after a panic is safe.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            runner.run_segment(model, range.clone(), data, padded);
        }));
        let exit = model.flow[range.end];
        match (run, &outlet) {
            (Ok(()), Some(tx)) => {
                let (jobs, data) = (std::mem::take(&mut batch), runner.take_flow(exit.domain));
                // Blocks while downstream is busy — this is the
                // backpressure path. `Err` means the next stage is gone,
                // which only happens when the engine is tearing down.
                if let Err(micro) = tx.send(Micro { jobs, rows, data }) {
                    answer_err(metrics, &micro.jobs, || ServeError::ShuttingDown);
                    return;
                }
            }
            (Ok(()), None) => {
                let data: Arc<[f32]> = Arc::from(&runner.floats()[..rows * exit.width]);
                answer_ok(metrics, &batch, &data, exit.width);
            }
            (Err(payload), _) => {
                let msg = panic_message(&payload);
                answer_err(metrics, &batch, || ServeError::WorkerPanic(msg.clone()));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CompiledModel;

    /// A panicking `infer` must fail only that request: the worker stays
    /// alive, later requests are still answered, and shutdown drains.
    #[test]
    fn worker_survives_inference_panic() {
        let engine = Engine::start(
            CompiledModel::deep_broken_tail_for_tests(1),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        for _ in 0..2 {
            let ticket = engine.try_submit(vec![0.5; 4]).unwrap();
            assert!(matches!(ticket.wait(), Err(ServeError::WorkerPanic(_))));
        }
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 0);
    }

    /// The unsharded engine is the one-stage pipeline replicated: a
    /// batch that panics in one replica fails alone, with a typed
    /// [`ServeError::WorkerPanic`], while the batches around it — on
    /// either replica — are answered bit for bit.
    #[test]
    fn replica_panic_fails_only_its_own_batch() {
        let mut program = CompiledModel::deep_program_for_tests(1);
        let rapidnn_analyze::Op::Dense { table, .. } = &mut program.ops[0] else {
            unreachable!("the deep chain is all dense");
        };
        // Weight code 1 × input code 3 now reads one past the pool: a
        // row with a feature near 1.0 panics, the others serve.
        table.offset = 9;
        let model = CompiledModel::ungated_for_tests(program);
        let (good, bad) = (vec![-1.0, -0.25, 0.5, -1.0], vec![-1.0, -0.25, 0.5, 1.0]);
        let expected = model.infer(&good).unwrap();
        let engine = Engine::start(
            model,
            EngineConfig {
                workers: 2,
                max_batch_size: 1,
                max_wait: Duration::ZERO,
                ..EngineConfig::default()
            },
        );
        assert_eq!((engine.worker_count(), engine.stage_count()), (2, 1));
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| if i % 4 == 1 { &bad } else { &good })
            .map(|input| engine.try_submit(input.clone()).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket.wait() {
                Ok(output) => assert!(i % 4 != 1 && output == expected, "request {i}"),
                Err(err) => assert!(
                    i % 4 == 1 && matches!(err, ServeError::WorkerPanic(_)),
                    "request {i}: {err}"
                ),
            }
        }
        let stats = engine.shutdown();
        assert_eq!((stats.completed, stats.failed), (24, 8));
    }

    /// A panic in a *late* pipeline stage (mid-stream, after stage 0
    /// already encoded and forwarded the micro-batch) must fail exactly
    /// the affected requests with a typed [`ServeError::WorkerPanic`]
    /// while every stage keeps serving later traffic, and shutdown must
    /// still drain cleanly.
    #[test]
    fn late_stage_panic_fails_typed_while_pipeline_keeps_serving() {
        let model = CompiledModel::deep_broken_tail_for_tests(4);
        // One op per stage: the healthy dense prefix spreads over the
        // early stages and the broken pool op lands alone in the last.
        let stages = model.op_count();
        let engine = Engine::start(
            model,
            EngineConfig {
                stages,
                max_batch_size: 2,
                max_wait: Duration::ZERO,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.stage_count(), stages);
        assert!(engine.pipeline_stats().is_some());
        for round in 0..3 {
            let tickets: Vec<Ticket> = (0..4)
                .map(|_| engine.try_submit(vec![0.1, 0.2, 0.3, 0.4]).unwrap())
                .collect();
            for ticket in tickets {
                assert!(
                    matches!(ticket.wait(), Err(ServeError::WorkerPanic(_))),
                    "round {round}: expected a typed panic failure"
                );
            }
        }
        // The pre-batched path crosses the same broken stage.
        let ticket = engine.try_submit_batch(vec![0.0; 8]).unwrap();
        assert!(matches!(ticket.wait(), Err(ServeError::WorkerPanic(_))));
        let stats = engine.shutdown();
        assert_eq!(stats.failed, 13);
        assert_eq!(stats.completed, 0);
    }
}
