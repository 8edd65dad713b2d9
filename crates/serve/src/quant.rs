//! Materialized integer-kernel state.
//!
//! [`CompiledModel::quantize`] derives a [`rapidnn_analyze::QuantPlan`]
//! and [`materialize`] turns each licensed op into the flat tiles the
//! integer batch kernel streams through — its [`Kernel::Madd`], which
//! replaces the kernel the op held: an expanded `i16` weight matrix and
//! the quantized input codebook it multiplies against, `i32` biases on
//! the accumulator grid, and a precomputed finish LUT whose entries
//! went through the *exact* scalar f32 finish (activation lookup,
//! nearest re-encode) at each bucket's center — so the integer path's
//! only deviations from f32 are the rounding terms the plan's error
//! bound already accounts for. There is one integer strategy, the
//! factored multiply-accumulate; an op the plan refuses (a table that
//! does not factor is `FallbackReason::NotFactored`) keeps its kernel
//! and serves on the bit-exact f32 path.
//!
//! A licensed op multiplies `xq[code]`, never the code, so whatever
//! produces its input writes that operand directly
//! ([`Domain::Quants`](crate::kernels::Domain::Quants)): a finish LUT
//! feeding one is composed here, once, into
//! `xq_next[lut_codes[bucket]]`, and every other producer is handed the
//! op's `xq` ([`CompiledModel::madd_levels`]) when it runs.
//!
//! Weight codes are read here exactly once, as a slice of the model's
//! code pool; at run time the integer path never touches the pool
//! again, and the batch arena holds no weight tile for any op.

use crate::artifact::{apply_act, nearest, CompiledModel};
use crate::kernels::Kernel;
use rapidnn_analyze::{Act, FinishPlan, Op, OpQuant, QuantPlan};

/// One dense op lowered to integer tiles.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantOp {
    /// Fan-in per output neuron.
    pub(crate) nin: usize,
    /// Output neuron count.
    pub(crate) nout: usize,
    /// The expanded `nout × nin` weight matrix at `2^w_frac`.
    pub(crate) weights: Vec<i16>,
    /// The input codebook at `2^x_frac`, one entry per input code —
    /// the levels this op's producer writes into the flow in place of
    /// codes.
    pub(crate) xq: Vec<i16>,
    /// Per-output bias on the `2^acc_frac` grid.
    pub(crate) bias_q: Vec<i32>,
    /// How the accumulator leaves the op.
    pub(crate) finish: QuantFinish,
}

/// Integer finish: one requantize/dequantize at the op boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QuantFinish {
    /// `acc as f32 * inv` — output-stage identity.
    Dequant {
        /// `2^-acc_frac`.
        inv: f32,
    },
    /// `(acc as f32 * inv).max(0.0)` — output-stage ReLU.
    DequantRelu {
        /// `2^-acc_frac`.
        inv: f32,
    },
    /// Bucketed lookup `(acc - lo_q) >> shift`, entries precomputed
    /// through the exact scalar finish at each bucket center.
    Lut {
        /// Accumulator value of bucket 0's left edge.
        lo_q: i32,
        /// Accumulator-to-bucket right shift.
        shift: u32,
        /// One finished output per bucket.
        out: LutOut,
    },
}

/// The entries of a finish LUT, in the domain the next op reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LutOut {
    /// The op re-encodes: output codes.
    Codes(Vec<u16>),
    /// The op re-encodes into a licensed op: that op's operand
    /// `xq[code]` of each output code, composed at load.
    Quants(Vec<i16>),
    /// The op does not re-encode: finished floats.
    Floats(Vec<f32>),
}

/// A licensed op's operand for `code`: `xq[code]`. Every producer
/// encodes through the book `xq` was quantized from (the codebook the
/// program's walk says the op reads), so the analyzer's code-domain
/// proof covers the index.
pub(crate) fn level_of(xq: &[i16], code: u16) -> i16 {
    xq[usize::from(code)]
}

impl CompiledModel {
    /// The integer kernel of op `oi`, if the analyzer licensed one.
    pub(crate) fn quant_op(&self, oi: usize) -> Option<&QuantOp> {
        match self.kernels.get(oi)? {
            Kernel::Madd(q) => Some(q),
            Kernel::Mul(_) | Kernel::Table => None,
        }
    }

    /// The per-code operands of op `oi` when it runs the integer
    /// kernel — what the producer of its input writes in place of
    /// codes — and `None` for every other op (and past the program's
    /// end).
    pub(crate) fn madd_levels(&self, oi: usize) -> Option<&[i16]> {
        Some(&self.quant_op(oi)?.xq)
    }
}

/// Lowers every op `plan` licenses onto integer tiles, over the kernel
/// it held.
///
/// Every constructed model has passed the analyzer, so spans are in
/// bounds, each weight code names a row of its table, which `wvals`
/// holds one factor per row of, and a licensed op reads codes through
/// the book its boundary of the walk names.
pub(crate) fn materialize(model: &mut CompiledModel, plan: &QuantPlan) {
    let CompiledModel {
        program, kernels, ..
    } = model;
    let pool_f: &[f32] = &program.floats;
    let reads = program.ops.iter().zip(program.flow());
    for ((op, at), (verdict, kernel)) in reads.zip(plan.ops.iter().zip(kernels.iter_mut())) {
        let (
            OpQuant::Licensed(lic),
            Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                act,
                encoder,
                ..
            },
            Some(book),
        ) = (verdict, op, at.book)
        else {
            continue;
        };
        let book = book.slice(pool_f);
        let scale = exp2(lic.acc_frac);
        let bias_q = bias
            .slice(pool_f)
            .iter()
            .map(|&b| quant_i32(f64::from(b), scale))
            .collect();
        // Quantize `wvals`' few levels once; a weight is its code's level.
        let wq = Vec::from_iter(lic.wvals.iter().map(|&w| quant_i16(w, lic.w_frac)));
        let wcodes = weight_codes.slice(&program.codes);
        let weights = wcodes.iter().map(|&c| level_of(&wq, c)).collect();
        let xq = book.iter().map(|&b| quant_i16(b, lic.x_frac)).collect();
        let inv = 1.0 / scale;
        let finish = match lic.finish {
            FinishPlan::Direct => match act {
                Act::Relu => QuantFinish::DequantRelu { inv },
                _ => QuantFinish::Dequant { inv },
            },
            FinishPlan::Lut { lo_q, shift, len } => {
                let step = 1i64 << shift;
                // Each bucket's center on the accumulator grid,
                // exact in f64, finished through the scalar path.
                let finished = (0..len as i64).map(|idx| {
                    let rep_q = lo_q + idx * step + step / 2;
                    apply_act(act, pool_f, (rep_q as f64 / f64::from(scale)) as f32)
                });
                let out = match encoder {
                    // RNA0004 caps a codebook at 2^16 entries.
                    Some(e) => LutOut::Codes(
                        finished
                            .map(|a| nearest(e.slice(pool_f), a) as u16)
                            .collect(),
                    ),
                    None => LutOut::Floats(finished.collect()),
                };
                let lo_q = i32::try_from(lo_q).unwrap_or(i32::MIN);
                QuantFinish::Lut { lo_q, shift, out }
            }
        };
        *kernel = Kernel::Madd(QuantOp {
            nin: *inputs,
            nout: *outputs,
            weights,
            xq,
            bias_q,
            finish,
        });
    }
    // A finish LUT that feeds a licensed op emits that op's
    // operands: compose the two tables once, here.
    for oi in 1..kernels.len() {
        let (producers, consumers) = kernels.split_at_mut(oi);
        let (Kernel::Madd(producer), Kernel::Madd(consumer)) =
            (&mut producers[oi - 1], &consumers[0])
        else {
            continue;
        };
        let QuantFinish::Lut { out, .. } = &mut producer.finish else {
            continue;
        };
        if let LutOut::Codes(codes) = out {
            let xq = &consumer.xq;
            *out = LutOut::Quants(codes.iter().map(|&c| level_of(xq, c)).collect());
        }
    }
}

fn exp2(bits: u32) -> f32 {
    (1u64 << bits.min(62)) as f32
}

/// Round-to-nearest quantization onto `2^frac`, saturated to `i16`.
fn quant_i16(v: f32, frac: u32) -> i16 {
    let q = (f64::from(v) * f64::from(exp2(frac))).round();
    q.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}

/// Round-to-nearest quantization onto `scale`, saturated to `i32`.
fn quant_i32(v: f64, scale: f32) -> i32 {
    let q = (v * f64::from(scale)).round();
    q.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}
