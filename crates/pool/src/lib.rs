//! Deterministic scoped data-parallelism for the RAPIDNN workspace.
//!
//! This crate is a std-only replacement for the slice of rayon the
//! composer needs: a fixed-size pool of persistent worker threads plus
//! chunked `parallel_*` primitives. The primitives make one promise the
//! generic work-stealing libraries do not:
//!
//! **Determinism contract.** Work is split into chunks whose size is
//! chosen by the *caller* and never depends on the worker count, and
//! every reduction merges per-chunk partial results in ascending chunk
//! index order on the calling thread. Floating-point accumulation
//! therefore produces bit-identical results whether the pool runs with
//! 1 worker or 64 — which worker executes a chunk can change, but what
//! is computed and the order in which partials are folded cannot.
//! `RAPIDNN_THREADS=1` is the sequential oracle: it runs the exact same
//! chunked algorithm inline on the calling thread.
//!
//! Panics raised inside a chunk are caught per-chunk, the job is run to
//! completion (remaining chunks still execute), the workers re-join the
//! idle set, and the first panic payload is re-raised on the calling
//! thread — a panicking task can not hang or poison the pool.
//!
//! All `unsafe` in the workspace lives here, in three small pieces: the
//! raw job pointer shared with workers for the duration of one scoped
//! call, and two write-only pointer wrappers used to let disjoint
//! chunks fill disjoint parts of caller-owned buffers.

#![warn(missing_docs)]

pub mod workers;

pub use workers::WorkerGroup;

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// One scoped job: a chunk-indexed closure plus claim/completion
/// counters. Lives on the stack of the thread inside
/// [`ThreadPool::run_chunks`]; workers only ever see it through the
/// pool's job slot, which is cleared before `run_chunks` returns.
struct Job {
    /// The chunk body. Raw pointer so the non-`'static` closure can be
    /// shared with workers for the (scoped) lifetime of the call.
    f: *const (dyn Fn(usize) + Sync),
    /// Number of chunks.
    n: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks finished (including panicked ones).
    completed: AtomicUsize,
    /// First panic payload raised by any chunk.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl Job {
    /// Claim and execute chunks until none remain. Shared by workers
    /// and the submitting thread, so chunk execution order is a race —
    /// chunk *results* are merged by index later, which is what the
    /// determinism contract relies on.
    fn run_chunks(&self) {
        // SAFETY: the submitting thread keeps the closure alive until
        // `completed == n` and all workers have left the job; we only
        // get here while holding either the submitter role or an
        // `active` token observed by the submitter before it returns.
        let f = unsafe { &*self.f };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            if let Err(payload) = result {
                let mut slot = self
                    .panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                slot.get_or_insert(payload);
            }
            self.completed.fetch_add(1, Ordering::Release);
        }
    }
}

/// Pool state guarded by one mutex: the (single) in-flight job and how
/// many workers are currently inside it.
struct PoolState {
    job: *const Job,
    active: usize,
    shutdown: bool,
}

// SAFETY: the raw job pointer is only dereferenced under the protocol
// documented on `Job::run_chunks`; the pointer itself is plain data.
unsafe impl Send for PoolState {}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is installed or shutdown begins.
    work_ready: Condvar,
    /// Signalled when a worker leaves a job (progress for the waiter).
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

thread_local! {
    /// Set while this thread is executing a chunk. Nested parallel
    /// calls from inside a chunk run inline instead of deadlocking on
    /// the single job slot.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Stack of scoped pool overrides installed by [`with_threads`].
    static OVERRIDE: RefCell<Vec<Arc<ThreadPool>>> = const { RefCell::new(Vec::new()) };
}

/// A fixed-size pool of persistent worker threads executing scoped,
/// chunk-indexed jobs. See the crate docs for the determinism contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Create a pool that runs jobs on `threads` threads in total. The
    /// calling thread participates in every job, so only
    /// `threads - 1` workers are spawned; `threads <= 1` spawns none
    /// and every primitive runs inline (the sequential oracle).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: std::ptr::null(),
                active: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rapidnn-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Total threads (workers plus the participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(0), f(1), .., f(n - 1)` across the pool, returning
    /// once all calls finish. Chunk execution order and placement are
    /// unspecified; use the indices to write disjoint results and merge
    /// them by index afterwards. If a chunk panics, the remaining
    /// chunks still run and the first panic is re-raised here.
    pub fn run_chunks(&self, n: usize, f: impl Fn(usize) + Sync) {
        if n == 0 {
            return;
        }
        let run_inline = self.workers.is_empty() || n == 1 || IN_TASK.get();
        if run_inline {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: only erases the borrow lifetime; the pointer is used
        // strictly within this call (the job slot is cleared below
        // before returning, after all workers have left the job).
        let f_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f_ref as *const _)
        };
        let job = Job {
            f: f_ptr,
            n,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        {
            let mut state = self.shared.lock();
            if !state.job.is_null() {
                // Another thread's scoped job is in flight. There is a
                // single job slot; running inline is always correct
                // because results only depend on chunk indices.
                drop(state);
                for i in 0..n {
                    f(i);
                }
                return;
            }
            state.job = &job;
        }
        self.shared.work_ready.notify_all();

        // Participate. IN_TASK also redirects any nested parallelism
        // from our own chunks to the inline path.
        let was_in_task = IN_TASK.replace(true);
        job.run_chunks();
        IN_TASK.set(was_in_task);

        // Wait for stragglers, then free the slot before `job` (and the
        // closure) leave scope.
        let mut state = self.shared.lock();
        while job.completed.load(Ordering::Acquire) < n || state.active > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.job = std::ptr::null();
        drop(state);

        let payload = job
            .panic
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Chunked parallel loop: splits `0..len` into `chunk`-sized ranges
    /// (last one possibly shorter) and calls `f(chunk_index, range)`
    /// for each. `chunk` must be non-zero.
    pub fn parallel_for(&self, len: usize, chunk: usize, f: impl Fn(usize, Range<usize>) + Sync) {
        let n = chunk_count(len, chunk);
        self.run_chunks(n, |i| f(i, chunk_range(len, chunk, i)));
    }

    /// Chunked parallel map: like [`ThreadPool::parallel_for`] but each
    /// chunk produces a value, returned in ascending chunk order.
    pub fn parallel_map<T: Send>(
        &self,
        len: usize,
        chunk: usize,
        f: impl Fn(usize, Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let n = chunk_count(len, chunk);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let out = SlotWriter(slots.as_mut_ptr());
        self.run_chunks(n, |i| {
            let value = f(i, chunk_range(len, chunk, i));
            // SAFETY: each chunk index is claimed exactly once, so
            // writes target disjoint slots of a buffer that outlives
            // the scoped call; the old value is `None` (no drop).
            unsafe { out.write(i, value) };
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("chunk completed"))
            .collect()
    }

    /// Chunked parallel map-reduce: computes per-chunk partials with
    /// `map` and folds them **in ascending chunk order** on the calling
    /// thread, which makes float reductions bitwise-deterministic for
    /// any worker count.
    pub fn parallel_map_reduce<T: Send, A>(
        &self,
        len: usize,
        chunk: usize,
        map: impl Fn(usize, Range<usize>) -> T + Sync,
        init: A,
        fold: impl FnMut(A, T) -> A,
    ) -> A {
        self.parallel_map(len, chunk, map)
            .into_iter()
            .fold(init, fold)
    }

    /// Split `data` into `chunk`-element sub-slices and hand each chunk
    /// `(chunk_index, start_offset, &mut sub_slice)` in parallel.
    pub fn for_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        f: impl Fn(usize, usize, &mut [T]) + Sync,
    ) {
        self.map_chunks_mut(data, chunk, |i, start, slice| {
            f(i, start, slice);
        });
    }

    /// Like [`ThreadPool::for_chunks_mut`] but each chunk also returns
    /// a value; results come back in ascending chunk order.
    pub fn map_chunks_mut<T: Send, R: Send>(
        &self,
        data: &mut [T],
        chunk: usize,
        f: impl Fn(usize, usize, &mut [T]) -> R + Sync,
    ) -> Vec<R> {
        let len = data.len();
        let base = DataPtr(data.as_mut_ptr());
        self.parallel_map(len, chunk, |i, range| {
            let start = range.start;
            // SAFETY: chunk ranges partition `0..len`, so each chunk
            // borrows a disjoint region of `data`, which outlives the
            // scoped call.
            let slice = unsafe { base.slice(range) };
            f(i, start, slice)
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if state.shutdown {
            return;
        }
        let job_ptr = state.job;
        let claimable = !job_ptr.is_null() && {
            // SAFETY: a non-null job slot means the submitter is still
            // inside `run_chunks` (it clears the slot before leaving),
            // so the job is alive while we hold the lock.
            let job = unsafe { &*job_ptr };
            job.next.load(Ordering::Relaxed) < job.n
        };
        if !claimable {
            state = shared
                .work_ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            continue;
        }
        // Take an `active` token before releasing the lock: the
        // submitter cannot clear the slot until `active` drops to 0,
        // which keeps the job alive while we run chunks.
        state.active += 1;
        drop(state);
        IN_TASK.set(true);
        // SAFETY: kept alive by the `active` token taken above.
        unsafe { (*job_ptr).run_chunks() };
        IN_TASK.set(false);
        state = shared.lock();
        state.active -= 1;
        shared.done.notify_all();
    }
}

/// Write-only view of a `Vec<Option<T>>` used to collect per-chunk
/// results from worker threads.
struct SlotWriter<T>(*mut Option<T>);

// SAFETY: distinct chunk indices write distinct slots; `T: Send` makes
// moving each value from a worker back to the caller sound.
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// # Safety
    /// `i` must be in bounds and written at most once per scoped call.
    unsafe fn write(&self, i: usize, value: T) {
        // SAFETY: caller guarantees `i < n` (slots was sized to `n`)
        // and single-writer per slot; the overwritten value is `None`,
        // so no drop of a live `T` happens through this raw write.
        unsafe { *self.0.add(i) = Some(value) };
    }
}

/// Base pointer of a caller-owned slice, handed to workers so each
/// chunk can reborrow its own disjoint sub-slice.
struct DataPtr<T>(*mut T);

// SAFETY: chunks borrow disjoint regions; `T: Send` makes handing each
// region to another thread sound.
unsafe impl<T: Send> Sync for DataPtr<T> {}

impl<T> DataPtr<T> {
    /// # Safety
    /// `range` must be in bounds and disjoint from every range handed
    /// out concurrently.
    // Aliasing `&mut` from a shared handle is exactly the point here:
    // disjointness of the ranges (upheld by the chunk decomposition)
    // is what makes it sound, not the borrow checker.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        // SAFETY: caller guarantees the range is within the original
        // slice and disjoint from every other range handed out, so the
        // reborrow aliases no other live reference.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(range.start), range.len()) }
    }
}

fn chunk_count(len: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk size must be non-zero");
    len.div_ceil(chunk)
}

fn chunk_range(len: usize, chunk: usize, i: usize) -> Range<usize> {
    let start = i * chunk;
    start..((start + chunk).min(len))
}

/// The process-wide default pool, sized by `RAPIDNN_THREADS` (set to
/// `1` for the sequential oracle) or, when unset or invalid, by
/// [`std::thread::available_parallelism`]. Built on first use; the
/// environment variable is read once per process.
fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

fn default_threads() -> usize {
    let fallback = || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match std::env::var("RAPIDNN_THREADS") {
        Ok(raw) => raw
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(fallback),
        Err(_) => fallback(),
    }
}

/// Run `f` with all pool primitives on this thread redirected to a
/// scoped pool of `threads` threads, overriding `RAPIDNN_THREADS`.
/// Overrides nest; the innermost wins. The scoped pool's workers are
/// joined before this returns, even if `f` panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|stack| stack.borrow_mut().push(Arc::new(ThreadPool::new(threads))));
    let _guard = PopGuard;
    f()
}

fn with_current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    let scoped = OVERRIDE.with(|stack| stack.borrow().last().cloned());
    match scoped {
        Some(pool) => f(&pool),
        None => f(global()),
    }
}

/// Threads the current scope's pool runs on (the [`with_threads`]
/// override if one is active, else the process-wide default).
pub fn threads() -> usize {
    with_current(ThreadPool::threads)
}

/// [`ThreadPool::run_chunks`] on the current scope's pool.
pub fn run_chunks(n: usize, f: impl Fn(usize) + Sync) {
    with_current(|pool| pool.run_chunks(n, f));
}

/// [`ThreadPool::parallel_for`] on the current scope's pool.
pub fn parallel_for(len: usize, chunk: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    with_current(|pool| pool.parallel_for(len, chunk, f));
}

/// [`ThreadPool::parallel_map`] on the current scope's pool.
pub fn parallel_map<T: Send>(
    len: usize,
    chunk: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    with_current(|pool| pool.parallel_map(len, chunk, f))
}

/// [`ThreadPool::parallel_map_reduce`] on the current scope's pool.
pub fn parallel_map_reduce<T: Send, A>(
    len: usize,
    chunk: usize,
    map: impl Fn(usize, Range<usize>) -> T + Sync,
    init: A,
    fold: impl FnMut(A, T) -> A,
) -> A {
    with_current(|pool| pool.parallel_map_reduce(len, chunk, map, init, fold))
}

/// [`ThreadPool::for_chunks_mut`] on the current scope's pool.
pub fn for_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    with_current(|pool| pool.for_chunks_mut(data, chunk, f));
}

/// [`ThreadPool::map_chunks_mut`] on the current scope's pool.
pub fn map_chunks_mut<T: Send, R: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    with_current(|pool| pool.map_chunks_mut(data, chunk, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn ranges_partition_input() {
        let pool = ThreadPool::new(3);
        for len in [0usize, 1, 7, 8, 9, 1000] {
            for chunk in [1usize, 3, 8, 1024] {
                let marks: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
                pool.parallel_for(len, chunk, |_, range| {
                    for i in range {
                        marks[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    marks.iter().all(|m| m.load(Ordering::Relaxed) == 1),
                    "len={len} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn map_results_in_chunk_order() {
        let pool = ThreadPool::new(4);
        let got = pool.parallel_map(103, 10, |i, range| (i, range.start, range.end));
        let want: Vec<_> = (0..11)
            .map(|i| (i, i * 10, ((i + 1) * 10).min(103)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    // Pure numerics over ~10k elements and 8 pools: far too slow under
    // Miri's interpreter, and it exercises determinism, not memory.
    #[cfg_attr(miri, ignore)]
    fn float_reduction_identical_across_thread_counts() {
        let values: Vec<f32> = (0..9973)
            .map(|i| ((i * 2_654_435_761_usize) as f32).sin() * 3.7)
            .collect();
        let sum = |pool: &ThreadPool| {
            pool.parallel_map_reduce(
                values.len(),
                256,
                |_, range| values[range].iter().map(|&v| v as f64).sum::<f64>(),
                0.0f64,
                |acc, part| acc + part,
            )
        };
        let oracle = sum(&ThreadPool::new(1));
        for threads in 2..=8 {
            let got = sum(&ThreadPool::new(threads));
            assert_eq!(got.to_bits(), oracle.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_writes_disjoint_regions() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 100];
        let starts = pool.map_chunks_mut(&mut data, 7, |i, start, slice| {
            for (off, v) in slice.iter_mut().enumerate() {
                *v = start + off;
            }
            (i, start)
        });
        assert_eq!(data, (0..100).collect::<Vec<_>>());
        assert_eq!(starts.len(), 15);
        assert!(starts
            .iter()
            .enumerate()
            .all(|(i, &(ci, s))| ci == i && s == i * 7));
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = threads();
        let inner = with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(2, threads)
        });
        assert_eq!(inner, 2);
        assert_eq!(threads(), outer);
    }
}
