//! Materialized integer-kernel state.
//!
//! [`CompiledModel::quantize`] derives a [`rapidnn_analyze::QuantPlan`]
//! and [`materialize`] turns each licensed op into the flat tiles the
//! integer batch kernel streams through — its [`Kernel::Madd`], which
//! replaces the kernel the op held: an expanded `i16` weight matrix, the
//! quantized input codebook it multiplies against and `i32` biases on
//! the accumulator grid. Its finish is the op's tabulated finish
//! ([`crate::finish`]) with the edges moved onto the plan's grid of
//! buckets, each finished at its center through the *exact* scalar f32
//! finish, so the integer path's only deviations from f32 are the
//! rounding terms the plan's error bound already accounts for. An op the
//! plan refuses (a weight book too wide for `i16` is
//! `FallbackReason::ValueRangeTooWide`) keeps its kernel and serves on
//! the bit-exact f32 path.
//!
//! A licensed op multiplies `xq[code]`, never the code, so whatever
//! produces its input writes that operand directly
//! ([`Domain::Quants`](crate::kernels::Domain::Quants)): a tabulated
//! finish feeding one holds `xq[code]` per run, and a max pool, a
//! residual region's entry and the input encoder are handed the op's
//! `xq` ([`CompiledModel::madd_levels`]) when they run.
//!
//! Weight codes are read here exactly once, as a slice of the model's
//! code pool; at run time the integer path never touches the pool
//! again, and the batch arena holds no weight tile for any op.

use crate::artifact::CompiledModel;
use crate::finish;
use crate::kernels::Kernel;
use rapidnn_analyze::{Act, FinishPlan, OpQuant, QuantPlan};

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
    /// `2^-acc_frac`: the dequantize of an op with no tabulated finish
    /// (Identity or ReLU, nothing after it).
    pub(crate) inv: f32,
    /// Per output, when `nin % 16` is not zero and `nin >= 16`: the
    /// row's last sixteen weights with those a whole 16-lane step
    /// already covers zeroed — the tile's last step (else empty).
    pub(crate) tails: Vec<[i16; 16]>,
}

impl QuantOp {
    /// An op over the `nout × nin` `weights`, with the tails they imply.
    pub(crate) fn new(
        nin: usize,
        nout: usize,
        weights: Vec<i16>,
        xq: Vec<i16>,
        bias_q: Vec<i32>,
        inv: f32,
    ) -> QuantOp {
        let counted = 16 - nin % 16;
        let tail =
            |row: &[i16]| std::array::from_fn(|l| if l >= counted { row[nin - 16 + l] } else { 0 });
        let tails = if nin >= 16 && counted < 16 {
            weights.chunks_exact(nin).map(tail).collect()
        } else {
            Vec::new()
        };
        QuantOp {
            nin,
            nout,
            weights,
            xq,
            bias_q,
            inv,
            tails,
        }
    }
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
            Kernel::Mul(_) | Kernel::Step => None,
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
/// it held, and its finish onto the plan's accumulator grid
/// ([`on_grid`](finish::Finish::on_grid)); then every finish that feeds
/// a licensed op writes that op's operands. The finishes are tabulated
/// afresh first, so quantizing again changes nothing.
///
/// Every constructed model has passed the analyzer, so spans are in
/// bounds, each weight code names an entry of its weight book, which
/// `wvals` holds one value per entry of, and a licensed op reads codes through
/// the book its boundary of the walk names. Its activation inputs and
/// re-encode book are sorted (the checker refuses an unsorted axis) and
/// finite (else `FallbackReason::UnsortedBook`), so its finish is a step
/// function of the accumulator whose runs the grid keeps exactly.
pub(crate) fn materialize(model: &mut CompiledModel, plan: &QuantPlan) {
    let CompiledModel {
        program,
        kernels,
        finishes,
        ..
    } = model;
    *finishes = finish::tabulate(program);
    let pool_f: &[f32] = &program.floats;
    let reads = program.ops.iter().zip(program.flow()).zip(&plan.ops);
    for (oi, ((op, at), verdict)) in reads.enumerate() {
        // Only a dense op is licensed.
        let (OpQuant::Licensed(lic), Some(n), Some(book)) = (verdict, op.neuron(), at.book) else {
            continue;
        };
        let scale = exp2(lic.acc_frac);
        let bias = n.bias.slice(pool_f).iter();
        let bias_q = bias.map(|&b| quant_i32(f64::from(b), scale)).collect();
        // Quantize `wvals`' few levels once; a weight is its code's level.
        let wq = Vec::from_iter(lic.wvals.iter().map(|&w| quant_i16(w, lic.w_frac)));
        let wcodes = n.weight_codes.slice(&program.codes);
        let weights = wcodes.iter().map(|&c| level_of(&wq, c)).collect();
        let book = book.slice(pool_f);
        let xq = book.iter().map(|&b| quant_i16(b, lic.x_frac)).collect();
        // The plan alone decides: a direct finish dequantizes, a grid
        // re-finishes the op's lookup or re-encode at its buckets.
        finishes[oi] = match lic.finish {
            FinishPlan::Direct => None,
            FinishPlan::Lut { lo_q, shift, len } => {
                let f = finishes[oi].as_ref().expect("a lookup or re-encode");
                let relu = matches!(n.act, Act::Relu);
                Some(f.on_grid(relu, scale, (lo_q, shift, len)))
            }
        };
        let (nin, nout) = (n.window.patch_len(), n.channels);
        kernels[oi] = Kernel::Madd(QuantOp::new(nin, nout, weights, xq, bias_q, 1.0 / scale));
    }
    for (finish, next) in finishes.iter_mut().zip(kernels.iter().skip(1)) {
        if let (Some(f), Kernel::Madd(next)) = (finish.as_mut(), next) {
            *f = f.to_levels(&next.xq);
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
