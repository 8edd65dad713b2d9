//! Static verifier for compiled RAPIDNN models.
//!
//! RAPIDNN inference is a *finite* computation: every multiply is a
//! bounded product-table lookup, every activation a nearest-distance
//! search over a finite LUT, every accumulation a counter of statically
//! known width. That finiteness makes correctness of a compiled model
//! statically decidable, and this crate decides it: an abstract
//! interpretation over the flattened op program with an interval
//! domain ([`Interval`]) for decoded values and contiguous
//! reachable-code ranges for encoded values.
//!
//! Per op the checker proves:
//!
//! * **index soundness** — every encoded index stays in bounds for its
//!   table: span bounds, weight codes vs table rows, code domains vs
//!   table columns, codebooks within the 16-bit index range, pool
//!   geometry with the padded-pool sentinel (`error`s);
//! * **bit-width feasibility** — fan-in vs the occurrence counters and
//!   worst-case partial-sum magnitude vs the fixed-point accumulator
//!   word of the modeled accelerator datapath
//!   ([`rapidnn_accel::DatapathModel`], `warning`s);
//! * **finiteness** — no reachable centroid, product, bias, or LUT
//!   entry is NaN/Inf, so neither can propagate to outputs (`error`s);
//! * **liveness** — dead codebook entries, unreferenced product-table
//!   rows, dead columns and LUT rows (`warning`s/`note`s). The op list
//!   is a straight line, so op-level reachability is trivial; liveness
//!   findings are about dead *data*.
//!
//! Findings are collected into a [`Report`] of rustc-style
//! [`Diagnostic`]s. The serving crate (`rapidnn-serve`) decodes its
//! artifacts into the [`Program`] IR and a `CompiledModel` holds one —
//! every constructor there is gated on a clean report — and
//! [`Program::from_reinterpreted`] lowers the composer's stage graph,
//! both as the one compile path and so pipelines can be linted before
//! compilation (`PipelineReport::analyze()` in the `rapidnn` facade).
//!
//! # Examples
//!
//! ```
//! use rapidnn_analyze::{analyze, Program, Span};
//! use std::borrow::Cow;
//!
//! // A degenerate program: encode 2 features through a 2-entry book
//! // and never decode them.
//! let program = Program {
//!     input_features: 2,
//!     output_features: 2,
//!     virtual_encoder: Span { start: 0, len: 2 },
//!     ops: vec![],
//!     floats: Cow::Owned(vec![-1.0, 1.0]),
//!     codes: Cow::Owned(vec![]),
//! };
//! let report = analyze(&program);
//! assert!(report.has_errors()); // ends in the encoded domain
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod cost;
mod diag;
mod interval;
mod pad;
mod program;
mod quant;

pub use checker::{analyze, MAX_EXTENT};
pub use cost::{op_costs, op_shapes, OpCost};
pub use diag::{DiagCode, Diagnostic, LivenessCounts, Report, Severity};
pub use interval::{f32_sum_slack, Interval};
pub use pad::inject_dead_rows;
pub use program::{Act, Boundary, Geom, Neuron, Op, Program, Span, TableRef};
pub use quant::{
    factor_table, quantize_plan, FallbackReason, FinishPlan, LicensedOp, OpQuant, QuantPlan,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    /// Hand-built single-dense-layer program:
    /// 2 inputs -> encode through a 4-entry book -> dense(2 -> 1,
    /// 2x4 product table, relu) -> floats out.
    fn tiny() -> Program<'static> {
        let mut floats = vec![-1.0, 0.0, 0.5, 2.0]; // virtual encoder book
        let table_offset = floats.len();
        // 2 weight rows x 4 input columns.
        floats.extend_from_slice(&[
            -0.5, 0.0, 0.25, 1.0, // w0 * book
            1.0, 0.0, -0.5, -2.0, // w1 * book
        ]);
        let bias_offset = floats.len();
        floats.push(0.125);
        Program {
            input_features: 2,
            output_features: 1,
            virtual_encoder: Span { start: 0, len: 4 },
            ops: vec![Op::Dense {
                inputs: 2,
                outputs: 1,
                weight_codes: Span { start: 0, len: 2 },
                bias: Span {
                    start: bias_offset,
                    len: 1,
                },
                table: TableRef {
                    offset: table_offset,
                    weight_count: 2,
                    input_count: 4,
                },
                act: Act::Relu,
                encoder: None,
            }],
            floats: Cow::Owned(floats),
            codes: Cow::Owned(vec![0, 1]),
        }
    }

    #[test]
    fn clean_program_is_clean() {
        let report = analyze(&tiny());
        assert!(!report.has_errors(), "{report}");
        // Both rows used, full domain reachable: no liveness findings.
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn weight_code_out_of_range_is_flagged() {
        let mut p = tiny();
        p.codes.to_mut()[1] = 7; // only 2 rows exist
        let report = analyze(&p);
        assert!(
            report.find(DiagCode::IndexOutOfBounds).is_some(),
            "{report}"
        );
    }

    #[test]
    fn nan_in_reachable_table_entry_is_an_error() {
        let mut p = tiny();
        p.floats.to_mut()[5] = f32::NAN; // w0 column 1, reachable
        let report = analyze(&p);
        let d = report.find(DiagCode::NonFinite).expect("flagged");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.op, Some(0));
    }

    #[test]
    fn nan_in_bias_is_an_error() {
        let mut p = tiny();
        let bias = p.floats.len() - 1;
        p.floats.to_mut()[bias] = f32::INFINITY;
        let report = analyze(&p);
        assert!(report.find(DiagCode::NonFinite).is_some(), "{report}");
    }

    #[test]
    fn oversized_codebook_is_typed() {
        let mut p = tiny();
        p.virtual_encoder = Span {
            start: 0,
            len: (1 << 16) + 1,
        };
        // The span must exist for the cap check to be reached.
        p.floats.to_mut().resize((1 << 16) + 1, 0.0);
        let report = analyze(&p);
        assert!(
            report.find(DiagCode::OversizedCodebook).is_some(),
            "{report}"
        );
    }

    #[test]
    fn padded_pool_is_typed() {
        let mut p = tiny();
        // Geometry is self-consistent (out dims follow from pad = 1),
        // so the *only* finding is the padded-pool sentinel.
        p.ops = vec![Op::MaxPool(Geom {
            in_channels: 1,
            in_height: 2,
            in_width: 1,
            kernel_h: 2,
            kernel_w: 1,
            stride: 1,
            pad: 1,
            out_height: 3,
            out_width: 3,
        })];
        p.input_features = 2;
        p.output_features = 9;
        let report = analyze(&p);
        let d = report.find(DiagCode::PaddedPool).expect("flagged");
        assert_eq!(d.severity, Severity::Error);
        assert!(!d.notes.is_empty());
    }

    #[test]
    fn shape_mismatch_and_end_domain() {
        let mut p = tiny();
        p.output_features = 9;
        let report = analyze(&p);
        assert!(report.find(DiagCode::ShapeMismatch).is_some(), "{report}");

        let mut p = tiny();
        p.ops.clear();
        p.output_features = 2;
        let report = analyze(&p);
        assert!(report.find(DiagCode::DomainMismatch).is_some(), "{report}");
    }

    #[test]
    fn unsorted_codebook_is_an_error() {
        let mut p = tiny();
        p.floats.to_mut()[..4].copy_from_slice(&[2.0, -1.0, 0.5, 0.0]);
        let report = analyze(&p);
        let found = report.find(DiagCode::UnsortedCodebook);
        assert_eq!(found.map(|d| d.severity), Some(Severity::Error), "{report}");
    }

    #[test]
    fn dead_rows_and_entries_are_noted() {
        let mut p = tiny();
        p.codes.to_mut().copy_from_slice(&[0, 0]); // row 1 never used
        let report = analyze(&p);
        assert!(!report.has_errors(), "{report}");
        assert!(report.find(DiagCode::DeadTableRows).is_some(), "{report}");
    }

    #[test]
    fn accumulator_warning_on_huge_magnitudes() {
        let mut p = tiny();
        // Blow up the product table far past the Q8.8 range.
        for v in &mut p.floats.to_mut()[4..12] {
            *v *= 1.0e4;
        }
        let report = analyze(&p);
        assert!(!report.has_errors(), "{report}");
        assert!(
            report.find(DiagCode::AccumulatorOverflow).is_some(),
            "{report}"
        );
    }

    #[test]
    fn composed_network_analyzes_clean() {
        use rapidnn_core::{ReinterpretOptions, ReinterpretedNetwork};
        use rapidnn_data::SyntheticSpec;
        use rapidnn_nn::{Activation, ActivationLayer, Dense, Network};
        use rapidnn_tensor::SeededRng;

        let mut rng = SeededRng::new(11);
        let mut net = Network::new(5);
        net.push(Dense::new(5, 8, &mut rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        net.push(Dense::new(8, 2, &mut rng));
        let data = SyntheticSpec::new(5, 2, 2.0)
            .generate(30, &mut rng)
            .unwrap();
        let opts = ReinterpretOptions {
            weight_clusters: 8,
            input_clusters: 8,
            ..ReinterpretOptions::default()
        };
        let network =
            ReinterpretedNetwork::build(&mut net, data.inputs(), &opts, &mut rng).unwrap();
        let program = Program::from_reinterpreted(&network);
        let report = analyze(&program);
        assert!(!report.has_errors(), "{report}");
    }
}
