//! Per-op shapes and their software cost: [`op_shapes`] reads each op,
//! with the widths and codebooks the dataflow walk ([`Program::flow`])
//! gives around it, into the [`OpShape`] the chip simulator prices, so
//! a simulation's `stages[i]` is op `i`'s hardware cost; [`op_costs`]
//! prices the same shapes in software work units.

use crate::program::{Act, Op, Program, Span};
use rapidnn_accel::OpShape;

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

/// Every op's shape in program order. Reads no pool data.
pub fn op_shapes(program: &Program<'_>) -> Vec<OpShape> {
    let flow = program.flow();
    let rows = |span: Option<Span>| span.map_or(0, |s| s.len);
    let ops = program.ops.iter().zip(flow.windows(2));
    ops.map(|(op, at)| {
        let (width, outputs) = (at[0].width, at[1].width);
        match op {
            Op::Dense { .. } | Op::Conv { .. } => {
                let n = op.neuron().expect("dense and conv ops are neurons");
                OpShape::Neuron {
                    neurons: outputs,
                    edges: n.window.patch_len(),
                    // The largest weight book: a conv's channels may differ.
                    weight_rows: n.weight_books.iter().fold(1, |m, b| m.max(b.len)),
                    input_rows: rows(at[0].book),
                    activation_rows: match n.act {
                        Act::Lookup { inputs, .. } => inputs.len,
                        Act::Identity | Act::Relu => 0,
                    },
                    encoder_rows: rows(n.encoder),
                }
            }
            Op::MaxPool(g) => OpShape::MaxPool {
                outputs,
                window: g.kernel_h * g.kernel_w,
            },
            Op::AvgPool { geom: g, .. } => OpShape::AvgPool {
                outputs,
                window: g.kernel_h * g.kernel_w,
            },
            Op::ResidualBegin { .. } => OpShape::ResidualBegin { width },
            Op::ResidualEnd { encoder } => OpShape::ResidualEnd {
                width,
                encoder_rows: rows(*encoder),
            },
        }
    })
    .collect()
}

/// Every op's per-sample software cost in program order: [`op_shapes`]
/// priced in work units.
///
/// Only the frozen benchmark harness (`bench/`) calls it now; ROADMAP
/// item 1(a) moves the harness to [`op_shapes`] or drops the metric.
pub fn op_costs(program: &Program<'_>) -> Vec<OpCost> {
    let per = |n: usize, rows: usize| if rows > 0 { n } else { 0 };
    let cost = |shape: &OpShape| {
        let (lookups, encodes, elementwise) = match *shape {
            OpShape::Neuron {
                neurons: n,
                edges,
                activation_rows: act,
                encoder_rows: enc,
                ..
            } => (n * edges, per(n, act) + per(n, enc), n),
            OpShape::MaxPool { outputs, window } => (0, 0, outputs * window),
            // Decode-average-re-encode on encoded flows; the re-encode
            // dominates, count it unconditionally.
            OpShape::AvgPool { outputs, window } => (0, outputs, outputs * window),
            // Snapshot (decode) of the current flow.
            OpShape::ResidualBegin { width } => (0, 0, width),
            OpShape::ResidualEnd {
                width,
                encoder_rows,
            } => (0, per(width, encoder_rows), width),
        };
        let [lookups, encodes, elementwise] = [lookups, encodes, elementwise].map(|n| n as u64);
        OpCost {
            lookups,
            encodes,
            elementwise,
        }
    };
    op_shapes(program).iter().map(cost).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Geom, Span};
    use std::borrow::Cow;

    fn dense(nin: usize, nout: usize, encoded: bool) -> Op {
        Op::Dense {
            inputs: nin,
            outputs: nout,
            weight_codes: Span { start: 0, len: 0 },
            bias: Span { start: 0, len: 0 },
            weight_book: Span { start: 0, len: 1 },
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
