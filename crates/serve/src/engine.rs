//! Batched, multi-threaded serving engine.
//!
//! [`Engine::start`] runs [`EngineConfig::workers`] threads over one
//! bounded request queue. Each worker loops: gather a batch — up to
//! [`EngineConfig::max_batch_size`] rows, held for stragglers until
//! [`EngineConfig::max_wait`] after admission — run the whole op program
//! over it in one [`BatchRunner`] call outside the lock, and answer each
//! request through its own channel.
//!
//! Encoding happens at admission: each submit call encodes its rows on
//! the calling thread, padded as the kernels run them, before it takes
//! the queue lock, so a worker runs only the op program — as the chip's
//! input encoder is its own block ahead of the compute tiles. A worker's
//! runner and scratch arena persist across batches, so the op loop
//! performs no per-sample heap allocation.
//!
//! The straggler wait is bounded both ways: a worker stops waiting the
//! moment its batch fills or shutdown begins, and otherwise the batch
//! leaves at its deadline, [`EngineConfig::max_wait`] after its first
//! job's admission — a job that waited behind a busy worker is not held
//! again, and the hold ends on the deadline, not a timer slack past it.
//!
//! Backpressure is explicit: [`Engine::try_submit`] returns
//! [`ServeError::QueueFull`] instead of buffering without bound, while
//! [`Engine::submit`] blocks until space frees up. Shutdown drains the
//! queue before the workers exit, so every accepted request is answered.
//! A panic inside inference is caught and returned to the affected
//! requesters as [`ServeError::WorkerPanic`]; the worker itself keeps
//! serving.

use crate::artifact::CompiledModel;
use crate::error::{Result, ServeError};
use crate::kernels::{pad_rows, BatchRunner, FlowData, FlowState};
use crate::metrics::{Metrics, ServerStats};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Engine::start`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads; `0` sizes the pool to available parallelism.
    pub workers: usize,
    /// Maximum queued (accepted but unserved) requests.
    pub queue_capacity: usize,
    /// Most *rows* a worker executes per batch. A single
    /// [`Engine::submit_batch`] request carrying more rows than this
    /// still runs (alone, in one kernel call).
    pub max_batch_size: usize,
    /// How long a partial batch waits for more work, counted from its
    /// first request's admission; the batch leaves at that deadline.
    pub max_wait: Duration,
    /// Ignored: the engine neither reads nor rejects it. It remains
    /// because the frozen benchmark harness (`bench/`) sets it; ROADMAP
    /// item 1(a) removes it.
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
#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

#[derive(Default)]
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
}

impl Engine {
    /// Starts the worker threads and returns the serving handle.
    pub fn start(model: CompiledModel, config: EngineConfig) -> Engine {
        let queue_capacity = config.queue_capacity.max(1);
        let max_batch = config.max_batch_size.max(1);
        let shared = Arc::new(Shared::default());
        let metrics = Arc::new(Metrics::new());
        let model = Arc::new(model);
        let max_wait = config.max_wait;
        let workers = (0..config.resolved_workers())
            .map(|_| {
                let (shared, metrics) = (Arc::clone(&shared), Arc::clone(&metrics));
                let model = Arc::clone(&model);
                std::thread::spawn(move || {
                    worker_loop(&shared, &metrics, &model, max_batch, max_wait);
                })
            })
            .collect();
        Engine {
            shared,
            metrics,
            model,
            workers,
            queue_capacity,
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
    /// so a worker serving it alone skips the gather copy and runs the
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

    /// Stops accepting requests without waiting for anything: later
    /// submissions answer [`ServeError::ShuttingDown`], a worker holding
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

/// How long before a hold's deadline a worker stops sleeping and yields
/// instead. A timed condvar wait on Linux wakes a mean 86–88 µs late: the
/// 50 µs default timer slack plus the wake-up. On `online_small` this lead
/// leaves 8–10 µs of mean lateness; 70 µs left 12–41 µs, 40 µs 46–51 µs.
const LEAD: Duration = Duration::from_micros(100);

/// Gathers a dynamic batch from the request queue into `batch`,
/// row-aware: jobs join until their summed rows would exceed
/// `max_rows` (a single job bigger than `max_rows` still runs, alone).
/// The batch leaves at the earliest of: batch full, shutdown, or the
/// deadline — the first job's admission stamp plus `max_wait`, so a job
/// that already waited that long is not held again.
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
    let deadline = state.jobs[0].enqueued + max_wait;
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
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        if left > LEAD {
            state = shared
                .work_ready
                .wait_timeout(state, left - LEAD)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        } else {
            drop(state);
            std::thread::yield_now();
            state = lock_state(shared);
        }
    }
    metrics.set_queue_depth(state.jobs.len());
    drop(state);
    // Queue space was freed by the pops above; wake blocked submitters
    // only now that there is actually room.
    shared.space_ready.notify_all();
    true
}

/// The flow buffer a worker runs a gathered batch of `rows` on:
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

/// The engine's one loop: gather a batch from the queue, run the whole
/// op program over it, answer every job in it.
///
/// The model fixes every flow state, so executing a batch can fail only
/// by panic — on a model that bypassed the construction gate — which
/// fails exactly that batch's jobs; the worker keeps serving.
fn worker_loop(
    shared: &Shared,
    metrics: &Metrics,
    model: &CompiledModel,
    max_batch: usize,
    max_wait: Duration,
) {
    // Per-worker scratch, reused across batches: the batch kernel's
    // arena, which also takes in a gathered batch's encoded rows.
    // Nothing here allocates per sample once the high-water batch size
    // has been seen.
    let mut runner = BatchRunner::for_model(model, max_batch);
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    while gather_batch(shared, metrics, &mut batch, max_batch, max_wait) {
        let rows: usize = batch.iter().map(|job| job.rows).sum();
        metrics.record_batch(rows);
        let data = admitted(&mut runner, model.flow[0], &mut batch, rows);
        // Contain panics so a bad batch cannot kill the worker: a dead
        // worker would shrink the pool silently, and queued tickets
        // would wait forever. The runner resets its scratch on every
        // call, so reuse after a panic is safe.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            runner.run_admitted(model, data, pad_rows(rows));
        }));
        match run {
            Ok(()) => {
                let width = model.flow[model.op_count()].width;
                let data: Arc<[f32]> = Arc::from(&runner.floats()[..rows * width]);
                answer_ok(metrics, &batch, &data, width);
            }
            Err(payload) => {
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
    use crate::kernels::Kernel;

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

    /// A batch that panics in one worker fails alone, with a typed
    /// [`ServeError::WorkerPanic`], while the batches around it — on
    /// either worker — are answered bit for bit.
    #[test]
    fn replica_panic_fails_only_its_own_batch() {
        let mut model = CompiledModel::ungated_for_tests(CompiledModel::deep_program_for_tests(1));
        let Kernel::Mul(mul) = &mut model.kernels[0] else {
            unreachable!("the deep chain's one op multiplies in f32");
        };
        // Its input now decodes through a 3-entry book: a row with a
        // feature near 1.0 (code 3) panics, the others serve.
        mul.book.len = 3;
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
        assert_eq!(engine.worker_count(), 2);
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

    /// [`EngineConfig::stages`] is inert: on the deep chain, whose
    /// program has five places it could be cut, `stages: 3` starts the
    /// configured workers and answers bit for bit as `stages: 0` does.
    #[test]
    fn stages_is_an_inert_input() {
        let model = CompiledModel::deep_for_tests(6);
        let features = model.input_features();
        let inputs: Vec<f32> = (0..11 * features)
            .map(|i| (i as f32 * 0.37).sin() * 2.0)
            .collect();
        let serve = |stages| {
            let config = EngineConfig {
                stages,
                workers: 2,
                max_batch_size: 4,
                max_wait: Duration::ZERO,
                ..EngineConfig::default()
            };
            let engine = Engine::start(model.clone(), config);
            assert_eq!(engine.worker_count(), 2, "stages: {stages}");
            let tickets: Vec<Ticket> = inputs
                .chunks(features)
                .map(|row| engine.try_submit(row).unwrap())
                .chain([engine.try_submit_batch(&inputs).unwrap()])
                .collect();
            let bits: Vec<u32> = tickets
                .into_iter()
                .flat_map(|ticket| ticket.wait().unwrap())
                .map(f32::to_bits)
                .collect();
            assert_eq!(engine.shutdown().failed, 0, "stages: {stages}");
            bits
        };
        assert_eq!(serve(3), serve(0));
    }

    /// The hold counts from admission: a job already `2 · max_wait` old
    /// when a worker reaches it is gathered at once, not held again.
    #[test]
    fn an_overdue_job_is_gathered_without_a_hold() {
        let max_wait = Duration::from_secs(60);
        let (reply, _answer) = mpsc::channel();
        let enqueued = Instant::now().checked_sub(2 * max_wait);
        let shared = Shared::default();
        lock_state(&shared).jobs.push_back(Job {
            input: FlowData::Codes(Vec::new()),
            rows: 1,
            reply,
            enqueued: enqueued.expect("the monotonic clock has run two minutes"),
        });
        let (metrics, mut batch, start) = (Metrics::new(), Vec::new(), Instant::now());
        assert!(gather_batch(&shared, &metrics, &mut batch, 8, max_wait));
        assert!(start.elapsed() < max_wait / 2 && batch.len() == 1);
    }
}
