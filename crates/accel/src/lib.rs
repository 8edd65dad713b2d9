//! RAPIDNN accelerator simulator: RNA blocks, tiles, chip, controller and
//! the cycle/energy/area model (§4, Table 1).
//!
//! What the accelerator computes is the composer's encoded-domain
//! program, op for op. This crate does not run that program; it prices
//! it, from each op's shape alone (neurons, fan-in, codebook and AM
//! rows, pool windows), so it depends on nothing but the memory
//! substrates:
//!
//! * [`params`] — the Table 1 area/power constants and the
//!   [`AcceleratorConfig`] (1k RNAs per tile, 32 tiles per chip, 1 GHz);
//! * [`WeightedAccumulator`] — the counter-based accumulation unit:
//!   parallel counting with per-weight buffers (§4.1.1), shift-add
//!   decomposition of counters (including the longest-run-of-1s trick),
//!   and the NOR-built carry-save adder tree (§4.1.2);
//! * [`RnaCost`] — per-neuron latency/energy combining accumulation with
//!   the activation and encoder AM searches;
//! * [`Simulator`] — prices a program's [`OpShape`]s, one stage per op:
//!   maps them onto tiles/RNAs, pipelines layers through broadcast
//!   buffers (§4.3), and reports
//!   latency, throughput, energy breakdown (Figure 13), area breakdown
//!   (Figure 14) and compute efficiency, including RNA sharing (§5.6).
//!
//! # Examples
//!
//! ```
//! use rapidnn_accel::{AcceleratorConfig, WeightedAccumulator};
//!
//! let acc = WeightedAccumulator::new(16);
//! // Add pre-stored value 2.5 four times and 1.0 three times.
//! let report = acc.accumulate(&[(2.5, 4), (1.0, 3)]);
//! assert!((report.sum - 13.0).abs() < 0.01);
//! assert!(report.cycles() > 0);
//! let config = AcceleratorConfig::default();
//! assert_eq!(config.total_rnas(), 32 * 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulate;
pub mod area;
mod metrics;
pub mod params;
mod rna;
mod sim;

pub use accumulate::{decompose_counter, operand_count, AccumulateReport, WeightedAccumulator};
pub use area::{rna_area_breakdown, system_area_breakdown, AreaBreakdown};
pub use metrics::{BlockBreakdown, BlockClass, HardwareReport};
pub use params::{AcceleratorConfig, DatapathModel};
pub use rna::{neuron_cost, RnaCost};
pub use sim::{OpShape, SimulationReport, Simulator, StageCost};
