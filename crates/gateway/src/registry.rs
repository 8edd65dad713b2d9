//! Multi-model registry: named engines, admission control, verified
//! hot-swap.
//!
//! A [`Registry`] owns many named [`Engine`]s concurrently. Each model
//! entry adds what the raw engine does not have:
//!
//! * **Admission control** — a per-model in-flight budget. A request
//!   past the budget is *shed* (recorded via
//!   [`Metrics::record_shed`](rapidnn_serve::Metrics::record_shed) and
//!   surfaced as [`GatewayError::Shed`], which the HTTP layer maps to
//!   429 + `Retry-After`), so overload is visible rejection instead of
//!   unbounded queueing latency.
//! * **Verified hot-swap** — [`Registry::put_artifact`] accepts raw
//!   artifact bytes for an existing model and replaces the serving
//!   engine *safely*: the bytes must pass
//!   [`CompiledModel::from_bytes`] (decode + `rapidnn-analyze`
//!   static verification), the new engine is warmed with synthetic
//!   inferences, and only then does traffic cut over atomically; the
//!   old engine drains with a deadline. Verification or warmup failure
//!   rolls back: the old engine never stops serving.
//!
//! The swap sequence never drops accepted work. What a model serves —
//! its engine and generation — is one `Arc` swapped at cutover, so a
//! request resolves it in one read and its answer names the generation
//! that computed it. In-flight requests hold that `Arc`; the displaced
//! engine is told at once to stop holding partial batches, the swap
//! waits for those references to drop before draining, and a request
//! that races the cutover and hits `ShuttingDown` retries against the
//! fresh slot.

use crate::error::GatewayError;
use rapidnn_serve::{CompiledModel, Engine, EngineConfig, ServeError, ServerStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::time::{Duration, Instant};

/// Tuning for a [`Registry`] and the engines it builds.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Engine configuration applied to every registered model.
    pub engine: EngineConfig,
    /// Per-model in-flight budget; request `max_inflight + 1` is shed.
    pub max_inflight: usize,
    /// Synthetic rows sent through a candidate engine before cutover
    /// (catches models that verify but cannot serve), rounded up to
    /// whole `max_batch_size` blocks so the wave never sits out a
    /// batcher hold; `0` disables warm-up.
    pub warmup_samples: usize,
    /// How long a swap waits for the displaced engine to finish its
    /// in-flight work before detaching it.
    pub drain_deadline: Duration,
    /// `Retry-After` hint attached to shed responses.
    pub retry_after: Duration,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            engine: EngineConfig::default(),
            max_inflight: 256,
            warmup_samples: 8,
            drain_deadline: Duration::from_secs(5),
            retry_after: Duration::from_secs(1),
        }
    }
}

/// One model's serving state behind the registry.
struct ModelEntry {
    name: String,
    /// What serves right now. Requests clone the `Arc` under the read
    /// lock and submit outside it; a swap replaces the `Arc` under the
    /// write lock, so cutover is atomic with respect to new submissions.
    slot: RwLock<Arc<Serving>>,
    /// Requests currently inside this model (queued or executing).
    inflight: AtomicU64,
    /// Serializes swaps per model; a contended lock is a 409, not a
    /// queue of competing artifact uploads.
    swapping: Mutex<()>,
}

/// One generation of a model: everything a swap replaces, together.
struct Serving {
    engine: Engine,
    /// Swaps completed before this engine took over; `0` is the
    /// artifact the model was registered with.
    generation: u64,
}

impl ModelEntry {
    fn new(name: &str, first: Serving) -> Arc<ModelEntry> {
        Arc::new(ModelEntry {
            name: name.to_string(),
            slot: RwLock::new(Arc::new(first)),
            inflight: AtomicU64::new(0),
            swapping: Mutex::new(()),
        })
    }
}

/// Decrements the per-model in-flight gauge on every exit path.
struct InflightGuard<'a>(&'a AtomicU64);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Point-in-time per-model view: engine stats plus registry-level
/// metadata (swap generation, shape).
#[derive(Debug, Clone)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Completed hot-swaps (0 = the initially registered artifact).
    pub generation: u64,
    /// Input feature width.
    pub input_features: usize,
    /// Output feature width.
    pub output_features: usize,
    /// Requests currently in flight (admission gauge).
    pub inflight: u64,
    /// Kernel path the current generation serves on: `"f32"` (no
    /// integer lowering), `"int16"` (every table op licensed) or
    /// `"mixed"`.
    pub kernel_path: &'static str,
    /// Table ops the analyzer licensed for integer execution (0 on the
    /// f32 path).
    pub licensed_ops: usize,
    /// Engine counters for the *current* generation (reset on swap —
    /// `generation` says how many resets happened).
    pub server: ServerStats,
}

/// What a successful [`Registry::put_artifact`] did.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// `true` when the name was new and this registered rather than
    /// swapped.
    pub created: bool,
    /// Generation now serving.
    pub generation: u64,
    /// Warm-up rows run through the new engine before cutover.
    pub warmed: usize,
    /// `true` when the displaced engine finished all in-flight work and
    /// joined inside the drain deadline (`true` vacuously on create).
    /// `false` means it was detached mid-drain and finishes in the
    /// background — accepted requests are still answered.
    pub drained: bool,
    /// Final stats of the displaced engine, when it drained in time.
    pub old_stats: Option<ServerStats>,
}

/// A named fleet of serving engines with admission control and verified
/// hot-swap. See the module docs for the state machine.
pub struct Registry {
    config: RegistryConfig,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        Registry {
            config,
            models: RwLock::new(HashMap::new()),
        }
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read(&self.models).keys().cloned().collect();
        names.sort();
        names
    }

    /// Every registered model with the generation it is serving, sorted
    /// by name, read under one hold of the registry lock: each pair is
    /// a model that was registered at that instant and a generation its
    /// slot held.
    pub fn generations(&self) -> Vec<(String, u64)> {
        let mut listing: Vec<(String, u64)> = read(&self.models)
            .iter()
            .map(|(name, entry)| (name.clone(), read(&entry.slot).generation))
            .collect();
        listing.sort();
        listing
    }

    /// Registers a new model under `name` from an in-memory compiled
    /// model (the in-process path; the HTTP path is
    /// [`put_artifact`](Self::put_artifact)).
    ///
    /// # Errors
    ///
    /// [`GatewayError::InvalidName`] or [`GatewayError::AlreadyExists`].
    pub fn register(&self, name: &str, model: CompiledModel) -> Result<(), GatewayError> {
        validate_name(name)?;
        let first = Serving {
            engine: Engine::start(model, self.config.engine.clone()),
            generation: 0,
        };
        let entry = ModelEntry::new(name, first);
        let mut models = write(&self.models);
        if models.contains_key(name) {
            // The freshly started engine never took traffic; drop joins it.
            return Err(GatewayError::AlreadyExists(name.to_string()));
        }
        models.insert(name.to_string(), entry);
        Ok(())
    }

    /// Registers (name unknown) or hot-swaps (name known) a model from
    /// raw artifact bytes — the `PUT /models/{name}` path.
    ///
    /// Swap sequence: decode + static verification → fresh
    /// engine → synthetic warmup → atomic cutover → drain the old
    /// engine with a deadline. Any failure before cutover is a full
    /// rollback: the previous engine keeps serving untouched.
    ///
    /// With `quantize` set (the HTTP layer's `x-kernels: int16`
    /// opt-in), the verified model is additionally lowered onto the
    /// analyzer-licensed integer kernels before warmup, so the swap
    /// only completes if the quantized model actually serves.
    ///
    /// `_stages` and `_optimize` are ignored: they remain because the
    /// frozen benchmark harness (`bench/`) passes them; ROADMAP item
    /// 1(a) removes them.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Rejected`] for bytes the verifier refuses,
    /// [`GatewayError::WidthMismatch`] when the replacement changes the
    /// model's I/O contract, [`GatewayError::WarmupFailed`] when the
    /// verified model cannot actually serve, and
    /// [`GatewayError::SwapInProgress`] when another swap of the same
    /// model is mid-flight.
    pub fn put_artifact(
        &self,
        name: &str,
        bytes: &[u8],
        quantize: bool,
        _stages: Option<usize>,
        _optimize: bool,
    ) -> Result<SwapReport, GatewayError> {
        validate_name(name)?;
        // Verification first — both paths need it, and a rejected
        // artifact must not disturb anything.
        let mut model =
            CompiledModel::from_bytes(bytes).map_err(GatewayError::from_artifact_failure)?;
        if quantize {
            model
                .quantize()
                .map_err(|e| GatewayError::from_serve(name, e))?;
        }
        let existing = read(&self.models).get(name).cloned();
        let _swap = match existing.as_ref().map(|entry| entry.swapping.try_lock()) {
            None => None,
            Some(Ok(guard)) => Some(guard),
            Some(Err(TryLockError::WouldBlock)) => {
                return Err(GatewayError::SwapInProgress(name.to_string()))
            }
            Some(Err(TryLockError::Poisoned(p))) => Some(p.into_inner()),
        };
        let generation = match &existing {
            None => 0,
            Some(entry) => {
                // The replacement must honour the model's wire contract.
                // `current` drops with this arm: the drain below waits
                // for every other holder of its `Arc`.
                let current = read_slot(&entry.slot);
                let served = current.engine.model();
                let expected = (served.input_features(), served.output_features());
                let got = (model.input_features(), model.output_features());
                if got != expected {
                    return Err(GatewayError::WidthMismatch {
                        name: name.to_string(),
                        expected,
                        got,
                    });
                }
                current.generation + 1
            }
        };
        // Build and warm the candidate before touching traffic; any
        // failure here is a rollback by construction.
        let engine = Engine::start(model, self.config.engine.clone());
        let warmed = match self.warm(&engine) {
            Ok(rows) => rows,
            Err(e) => {
                engine.drain(Duration::from_secs(1));
                return Err(GatewayError::WarmupFailed(e.to_string()));
            }
        };
        let next = Serving { engine, generation };
        let (old_stats, drained) = match &existing {
            None => {
                let mut models = write(&self.models);
                if models.contains_key(name) {
                    return Err(GatewayError::SwapInProgress(name.to_string()));
                }
                models.insert(name.to_string(), ModelEntry::new(name, next));
                (None, true)
            }
            Some(entry) => {
                // Atomic cutover: every submission after this write lock
                // drops lands on the new engine, under the new generation.
                let old = std::mem::replace(&mut *write(&entry.slot), Arc::new(next));
                drain_displaced(old, self.config.drain_deadline)
            }
        };
        Ok(SwapReport {
            created: existing.is_none(),
            generation,
            warmed,
            drained,
            old_stats,
        })
    }

    /// The warm-up wave: `warmup_samples` synthetic rows rounded up to
    /// whole batches, each one `submit_batch` block of `max_batch_size`
    /// rows. A full batch dispatches the moment it is gathered, so the
    /// wave sits out no batcher hold, and the largest batch the engine
    /// runs has served before cutover. Every block is submitted before
    /// any is redeemed; blocking `submit_batch` waits out a queue shorter
    /// than the wave rather than answer `QueueFull`. Returns the rows run.
    fn warm(&self, engine: &Engine) -> Result<usize, ServeError> {
        let features = engine.model().input_features();
        let batch = self.config.engine.max_batch_size.max(1);
        let blocks = self.config.warmup_samples.div_ceil(batch);
        let mut tickets = Vec::with_capacity(blocks);
        for block in 0..blocks {
            let input: Vec<f32> = (block * batch * features..(block + 1) * batch * features)
                .map(|k| ((k / features * 31 + k % features * 7) % 17) as f32 / 16.0 - 0.5)
                .collect();
            tickets.push(engine.submit_batch(&input)?);
        }
        for ticket in tickets {
            ticket.wait()?;
        }
        Ok(blocks * batch)
    }

    /// Serves one request against `name`, applying admission control.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownModel`], [`GatewayError::Shed`] when the
    /// in-flight budget or the engine queue is exhausted,
    /// [`GatewayError::InvalidInput`] for a width mismatch, or the
    /// underlying serve failure.
    pub fn infer(&self, name: &str, input: Vec<f32>) -> Result<Vec<f32>, GatewayError> {
        Ok(self.infer_with_generation(name, input)?.0)
    }

    /// [`infer`](Self::infer), with the generation of the engine that
    /// computed the answer: both come from the one slot the request was
    /// submitted to, so across a hot-swap the number names exactly the
    /// artifact whose bits the output carries.
    ///
    /// # Errors
    ///
    /// As [`infer`](Self::infer).
    pub fn infer_with_generation(
        &self,
        name: &str,
        input: Vec<f32>,
    ) -> Result<(Vec<f32>, u64), GatewayError> {
        let entry = self.entry(name)?;
        // Admission: one budget covering queue + execution time. The
        // guard releases the slot on every path below.
        let admitted = entry.inflight.fetch_add(1, Ordering::AcqRel);
        let _guard = InflightGuard(&entry.inflight);
        if admitted >= self.config.max_inflight as u64 {
            read_slot(&entry.slot).engine.metrics().record_shed();
            return Err(GatewayError::Shed {
                retry_after: self.config.retry_after,
            });
        }
        // A submission can race a hot-swap cutover: it reads the old
        // slot, the swap replaces it, and the old engine answers
        // `ShuttingDown`. The swap wrote the fresh slot before that, so
        // re-reading it at once hides the swap from clients. A removed or
        // shut-down model has no fresh slot: all 8 attempts end there.
        for _attempt in 0..8 {
            let serving = read_slot(&entry.slot);
            match serving.engine.try_submit(&input) {
                Ok(ticket) => {
                    return match ticket.wait() {
                        Ok(output) => Ok((output, serving.generation)),
                        Err(e) => Err(GatewayError::from_serve(name, e)),
                    };
                }
                Err(ServeError::QueueFull) => {
                    return Err(GatewayError::Shed {
                        retry_after: self.config.retry_after,
                    });
                }
                Err(ServeError::ShuttingDown) => {}
                Err(e) => return Err(GatewayError::from_serve(name, e)),
            }
        }
        Err(GatewayError::ShuttingDown)
    }

    /// Per-model stats: engine counters plus generation and shape.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownModel`].
    pub fn stats(&self, name: &str) -> Result<ModelStats, GatewayError> {
        let entry = self.entry(name)?;
        let serving = read_slot(&entry.slot);
        let (engine, model) = (&serving.engine, serving.engine.model());
        Ok(ModelStats {
            name: entry.name.clone(),
            generation: serving.generation,
            input_features: model.input_features(),
            output_features: model.output_features(),
            inflight: entry.inflight.load(Ordering::Acquire),
            kernel_path: model.kernel_path(),
            licensed_ops: model.licensed_ops(),
            server: engine.stats(),
        })
    }

    /// Removes `name`, draining its engine with the configured
    /// deadline. Returns the final stats when the drain completed.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownModel`].
    pub fn remove(&self, name: &str) -> Result<Option<ServerStats>, GatewayError> {
        let entry = write(&self.models)
            .remove(name)
            .ok_or_else(|| GatewayError::UnknownModel(name.to_string()))?;
        // Late racers that already resolved this entry keep the engine
        // alive through their own slot clones; the drain below waits for
        // them before shutting the engine down.
        let slot = read_slot(&entry.slot);
        drop(entry);
        Ok(drain_displaced(slot, self.config.drain_deadline).0)
    }

    /// Drains every model (used at gateway shutdown).
    pub fn shutdown(&self) {
        let entries: Vec<Arc<ModelEntry>> = {
            let mut models = write(&self.models);
            models.drain().map(|(_, entry)| entry).collect()
        };
        for entry in entries {
            let slot = read_slot(&entry.slot);
            drop(entry);
            drain_displaced(slot, self.config.drain_deadline);
        }
    }

    fn entry(&self, name: &str) -> Result<Arc<ModelEntry>, GatewayError> {
        read(&self.models)
            .get(name)
            .cloned()
            .ok_or_else(|| GatewayError::UnknownModel(name.to_string()))
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("models", &self.names())
            .finish()
    }
}

/// Every write under the registry's locks is one map operation or one
/// whole-value store, so a poisoned lock still guards consistent data.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn read_slot(slot: &RwLock<Arc<Serving>>) -> Arc<Serving> {
    Arc::clone(&read(slot))
}

/// Tells a displaced engine it is shutting down — it answers what it
/// holds without sitting out a batcher hold, and a late submitter gets
/// `ShuttingDown` and retries on the fresh slot — then waits for its
/// outstanding references (in-flight requests still being served by it)
/// to drop and drains it inside what remains of the deadline. Returns
/// `(final stats, fully joined)`; on deadline the engine is simply
/// released — its last reference holder joins the workers on drop, so
/// accepted requests still finish.
fn drain_displaced(mut displaced: Arc<Serving>, deadline: Duration) -> (Option<ServerStats>, bool) {
    displaced.engine.begin_shutdown();
    let end = Instant::now() + deadline;
    loop {
        match Arc::try_unwrap(displaced) {
            Ok(serving) => {
                let remaining = end.saturating_duration_since(Instant::now());
                let report = serving.engine.drain(remaining);
                return (Some(report.stats), report.joined);
            }
            Err(still_shared) => {
                if Instant::now() >= end {
                    return (None, false);
                }
                displaced = still_shared;
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// Model names are path segments; keep them boring: 1–64 chars of
/// `[A-Za-z0-9._-]`, not starting with a dot.
pub(crate) fn validate_name(name: &str) -> Result<(), GatewayError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(GatewayError::InvalidName(name.to_string()))
    }
}
