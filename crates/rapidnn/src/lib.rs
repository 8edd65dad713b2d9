//! RAPIDNN: neuron-to-memory transformation for DNN acceleration —
//! a from-scratch Rust reproduction of the HPCA 2020 paper.
//!
//! This facade crate re-exports every subsystem of the workspace and adds
//! the end-to-end [`Pipeline`] that strings them together: train a float
//! model → compose it into the encoded-domain (table-lookup) form →
//! simulate it on the RAPIDNN accelerator → compare against the baseline
//! accelerator models.
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `rapidnn-tensor` | tensors, GEMM, im2col, stats, seeded RNG |
//! | [`nn`] | `rapidnn-nn` | layers, losses, SGD trainer, Table 2 topologies |
//! | [`data`] | `rapidnn-data` | synthetic benchmark datasets |
//! | [`composer`] | `rapidnn-core` | k-means codebooks, LUT operators, reinterpretation, retraining |
//! | [`memristor`] | `rapidnn-memristor` | device model, crossbar, NOR logic, adder trees |
//! | [`ndcam`] | `rapidnn-ndcam` | nearest-distance CAM and AM blocks |
//! | [`accel`] | `rapidnn-accel` | RNA/tile/chip simulator, Table 1 parameters |
//! | [`baselines`] | `rapidnn-baselines` | GPU / DaDianNao / ISAAC / PipeLayer / Eyeriss / SnaPEA models |
//! | [`serve`] | `rapidnn-serve` | compiled-model artifacts, batched multi-threaded serving engine |
//! | [`pool`] | `rapidnn-pool` | deterministic chunked thread pool driving the composer |
//!
//! # Threading
//!
//! Model build runs on a process-wide thread pool: Box–Muller normals
//! for the synthetic data and He initialisation, GEMM/im2col, the
//! composer's clustering tasks (a weighted layer's input and weight
//! clusterings are two tasks), and the quality loop's validation pass.
//! A single k-means run is sequential (radix sort, then Lloyd on prefix
//! sums). Set the `RAPIDNN_THREADS` environment variable to pick
//! the worker count (it defaults to the machine's available parallelism);
//! `RAPIDNN_THREADS=1` runs fully sequentially. Every parallel pass
//! splits work into fixed-size chunks and merges partial results in
//! chunk order, so results are **bitwise-identical for any thread
//! count** — see [`pool`] and DESIGN.md for the contract. Tests can
//! scope a pool with [`pool::with_threads`] instead of the environment
//! variable.
//!
//! # Examples
//!
//! ```
//! use rapidnn::{Pipeline, PipelineConfig};
//! use rapidnn::tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(7);
//! let config = PipelineConfig::tiny_for_tests();
//! let report = Pipeline::new(config).run(&mut rng)?;
//! assert!(report.compose.delta_e < 0.5);
//! assert!(report.simulation.hardware.latency_ns > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;

pub use pipeline::{Pipeline, PipelineConfig, PipelineReport};

pub use rapidnn_accel as accel;
pub use rapidnn_analyze as analyze;
pub use rapidnn_baselines as baselines;
pub use rapidnn_core as composer;
pub use rapidnn_data as data;
pub use rapidnn_gateway as gateway;
pub use rapidnn_memristor as memristor;
pub use rapidnn_ndcam as ndcam;
pub use rapidnn_nn as nn;
pub use rapidnn_pool as pool;
pub use rapidnn_serve as serve;
pub use rapidnn_tensor as tensor;
