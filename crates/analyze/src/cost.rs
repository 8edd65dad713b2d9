//! Per-op execution-cost estimates for pipeline sharding.
//!
//! The paper's chip pipelines layers across tiles: once the pipeline is
//! full, throughput is bounded by the *slowest* stage, so splitting a
//! model into balanced stages needs a per-op cost estimate. This module
//! derives one from each op and the row widths the program's dataflow
//! walk ([`Program::flow`]) gives around it.
//!
//! Costs are unitless work estimates, not wall-clock promises: one unit
//! is one product-table lookup-and-accumulate — the operation the RNA
//! datapath retires once per cycle, so a stage's `lookups` total is also
//! its cycle estimate on the modeled accelerator (Table 1 clock,
//! `rapidnn_accel::CLOCK_GHZ`). Software pays extra for nearest-code
//! encodes (a branch-free binary search, ~`log2(book)` probes) where the
//! hardware's associative memory answers in one cycle; [`OpCost::units`]
//! weighs encodes accordingly so the estimate balances *software* stages
//! while [`OpCost::lookups`] remains the hardware-cycle view.

use crate::program::{Act, Op, Program};

/// Weight of one nearest-code encode relative to one table lookup in
/// [`OpCost::units`]: roughly the probe depth of the branch-free binary
/// search over the codebooks real models carry (8–64 entries).
const ENCODE_WEIGHT: u64 = 4;

/// Estimated work of one op over one sample, split by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Product-table lookup-and-accumulate steps (= RNA datapath
    /// cycles: the hardware retires one per cycle).
    pub lookups: u64,
    /// Nearest-code searches: activation LUTs, re-encoders, pooling
    /// codebooks.
    pub encodes: u64,
    /// Element-wise touches: activations, pooling reductions, residual
    /// snapshots and joins.
    pub elementwise: u64,
}

impl OpCost {
    /// Folds the components into one scalar software-work estimate.
    pub fn units(&self) -> u64 {
        self.lookups + ENCODE_WEIGHT * self.encodes + self.elementwise
    }
}

/// Estimates every op's per-sample cost in program order.
///
/// Widths come from the program's dataflow walk ([`Program::flow`]);
/// nothing here touches pool data.
pub fn op_costs(program: &Program<'_>) -> Vec<OpCost> {
    let flow = program.flow();
    program
        .ops
        .iter()
        .zip(flow.windows(2))
        .map(|(op, at)| {
            // What the op reads, and what it leaves.
            let (width, out) = (at[0].width as u64, at[1].width as u64);
            let mut c = OpCost::default();
            match op {
                Op::Dense { act, encoder, .. } | Op::Conv { act, encoder, .. } => {
                    let fan_in = match op {
                        Op::Conv { geom, .. } => geom.patch_len() as u64,
                        _ => width,
                    };
                    c.lookups = out * fan_in;
                    c.elementwise = out;
                    if matches!(act, Act::Lookup { .. }) {
                        c.encodes += out;
                    }
                    if encoder.is_some() {
                        c.encodes += out;
                    }
                }
                Op::MaxPool(g) => c.elementwise = out * (g.kernel_h * g.kernel_w) as u64,
                Op::AvgPool { geom: g, .. } => {
                    c.elementwise = out * (g.kernel_h * g.kernel_w) as u64;
                    // Decode-average-re-encode on encoded flows; the
                    // re-encode dominates, count it unconditionally.
                    c.encodes = out;
                }
                // Snapshot (decode) of the current flow.
                Op::ResidualBegin { .. } => c.elementwise = width,
                Op::ResidualEnd { encoder } => {
                    c.elementwise = width;
                    if encoder.is_some() {
                        c.encodes = width;
                    }
                }
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Geom, Span, TableRef};
    use std::borrow::Cow;

    fn dense(nin: usize, nout: usize, encoded: bool) -> Op {
        Op::Dense {
            inputs: nin,
            outputs: nout,
            weight_codes: Span { start: 0, len: 0 },
            bias: Span { start: 0, len: 0 },
            table: TableRef {
                offset: 0,
                weight_count: 1,
                input_count: 1,
            },
            act: Act::Relu,
            encoder: encoded.then_some(Span { start: 0, len: 2 }),
        }
    }

    fn program(ops: Vec<Op>) -> Program<'static> {
        Program {
            input_features: 4,
            output_features: 3,
            virtual_encoder: Span { start: 0, len: 2 },
            ops,
            floats: Cow::Owned(vec![-1.0, 1.0]),
            codes: Cow::Owned(vec![]),
        }
    }

    #[test]
    fn dense_cost_scales_with_fanin_times_fanout() {
        let p = program(vec![dense(4, 8, true), dense(8, 3, false)]);
        let costs = op_costs(&p);
        assert_eq!(costs.len(), 2);
        assert_eq!(costs[0].lookups, 32);
        assert_eq!(costs[0].encodes, 8);
        assert_eq!(costs[1].lookups, 24);
        assert_eq!(costs[1].encodes, 0);
        assert!(costs[0].units() > costs[1].units());
    }

    #[test]
    fn pooling_and_residual_cost_track_volume() {
        let g = Geom {
            in_channels: 2,
            in_height: 4,
            in_width: 4,
            kernel_h: 2,
            kernel_w: 2,
            stride: 2,
            pad: 0,
            out_height: 2,
            out_width: 2,
        };
        let p = program(vec![
            Op::MaxPool(g),
            Op::ResidualBegin {
                skip_codebook: Span { start: 0, len: 2 },
            },
        ]);
        let costs = op_costs(&p);
        // 2 channels x 4 output pixels x 4-tap window.
        assert_eq!(costs[0].elementwise, 32);
        assert_eq!(costs[0].units(), 32);
        // Snapshot of the pooled 2x4-wide flow.
        assert_eq!(costs[1].elementwise, 8);
    }

    #[test]
    fn units_weight_encodes_over_elementwise() {
        let c = OpCost {
            lookups: 10,
            encodes: 5,
            elementwise: 3,
        };
        assert_eq!(c.units(), 10 + 4 * 5 + 3);
    }
}
