//! RAPIDNN serving runtime: compiled-model artifacts plus a batched,
//! multi-threaded inference engine.
//!
//! The composer (`rapidnn-core`) produces a
//! [`ReinterpretedNetwork`](rapidnn_core::ReinterpretedNetwork) — a nest
//! of stages, codebooks, and lookup tables convenient for analysis but
//! not for deployment. This crate adds the deployment half:
//!
//! * [`artifact`] — [`CompiledModel`] flattens the reinterpreted network
//!   into two contiguous pools plus the analyzer's linear op program,
//!   serializable to a versioned, checksummed, std-only binary format
//!   (`wire`, bit-packed on the wire and unpacked once at load).
//!   Inference over the flat program is bit-for-bit identical
//!   to the source network.
//! * [`kernels`] — [`BatchRunner`] executes the op program batch-major
//!   over a reusable scratch arena: each op runs once per batch across
//!   all rows, with zero per-sample heap allocations in the steady
//!   state and outputs bit-for-bit identical to per-sample `infer`.
//! * [`engine`] — [`Engine`] serves a compiled model from one loop of
//!   stage threads over a bounded queue, with dynamic batching, explicit
//!   backpressure ([`ServeError::QueueFull`]) and draining shutdown.
//!   Each stage owns a persistent [`BatchRunner`] and executes its
//!   micro-batch in one kernel call.
//! * [`lint`] — [`lint_bytes`] runs the `rapidnn-analyze` static
//!   verifier over raw artifact bytes and returns its diagnostic
//!   report; every [`CompiledModel`] constructor makes a clean report
//!   a requirement, which is why the kernels carry no per-gather index
//!   clamps.
//! * [`pipeline`] — stage planning for sharded serving:
//!   [`EngineConfig::stages`] splits the op program into balanced
//!   contiguous ranges (cost-weighted by the analyzer's per-op
//!   estimates), each run by its own worker and scratch arena with
//!   bounded channels between them — same bit-identical outputs,
//!   pipelined throughput on deep models.
//! * [`metrics`] — [`Metrics`]/[`ServerStats`]: throughput and
//!   queue-depth counters plus a log-scale latency histogram.
//!
//! # Examples
//!
//! ```
//! use rapidnn_core::{Composer, ComposerConfig};
//! use rapidnn_data::SyntheticSpec;
//! use rapidnn_nn::topology;
//! use rapidnn_serve::{CompiledModel, Engine, EngineConfig};
//! use rapidnn_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(7);
//! let data = SyntheticSpec::new(8, 2, 2.0).generate(60, &mut rng)?;
//! let (train, val) = data.split(0.8);
//! let mut net = topology::mlp(8, &[16], 2, &mut rng)?;
//! let config = ComposerConfig::default().with_weights(8).with_inputs(8);
//! let outcome = Composer::new(config).compose(&mut net, &train, &val, &mut rng)?;
//!
//! // Compile, round-trip through bytes, and serve.
//! let model = CompiledModel::from_reinterpreted(&outcome.reinterpreted)?;
//! let bytes = model.to_bytes();
//! let model = CompiledModel::from_bytes(&bytes)?;
//! let engine = Engine::start(model, EngineConfig::default());
//! let ticket = engine.try_submit(val.sample(0).into_vec())?;
//! assert_eq!(ticket.wait()?.len(), 2);
//! let stats = engine.shutdown();
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: one module opts back in — `lanes`, for
// the AVX2 multiply-add step of the integer tile kernel and the one
// AVX2 entry to the batch executor, which CI's Miri job runs;
// everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod engine;
mod error;
mod finish;
pub mod kernels;
mod lanes;
pub mod lint;
pub mod metrics;
pub mod pipeline;
mod quant;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_models;
mod wire;

pub use artifact::{CompiledModel, FORMAT_VERSION, MAGIC};
pub use engine::{DrainReport, Engine, EngineConfig, Ticket};
pub use error::{ArtifactError, Result, ServeError};
pub use kernels::BatchRunner;
pub use lint::{decode_failure_report, lint_bytes};
pub use metrics::{Metrics, ServerStats, BATCH_BUCKETS, LATENCY_OVERFLOW_NS};
pub use pipeline::{PipelineStats, StageStats};
