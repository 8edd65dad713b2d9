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
//! feeding one holds `xq_next[code]` per bucket, and every other
//! producer is handed the op's `xq` ([`CompiledModel::madd_levels`])
//! when it runs. A LUT is filled by runs of buckets that share one
//! output, each run finished once ([`finish_lut`] says why that is exact).
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
/// the book its boundary of the walk names. Its activation inputs and
/// re-encode book are sorted and finite (anything else is
/// `FallbackReason::UnsortedBook`), which is what makes [`finish_lut`]'s
/// fill by runs exact.
pub(crate) fn materialize(model: &mut CompiledModel, plan: &QuantPlan) {
    let CompiledModel {
        program, kernels, ..
    } = model;
    let pool_f: &[f32] = &program.floats;
    let reads = program.ops.iter().zip(program.flow()).zip(&plan.ops);
    // Last op first: a finish LUT feeding a licensed op reads the
    // operands already derived for it.
    for (oi, ((op, at), verdict)) in reads.enumerate().rev() {
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
        let book = book.slice(pool_f);
        let xq = book.iter().map(|&b| quant_i16(b, lic.x_frac)).collect();
        let inv = 1.0 / scale;
        let finish = match lic.finish {
            FinishPlan::Direct => match act {
                Act::Relu => QuantFinish::DequantRelu { inv },
                _ => QuantFinish::Dequant { inv },
            },
            FinishPlan::Lut { lo_q, shift, len } => {
                let next_xq = match kernels.get(oi + 1) {
                    Some(Kernel::Madd(next)) => Some(&next.xq[..]),
                    _ => None,
                };
                let enc = encoder.map(|e| e.slice(pool_f));
                let out = finish_lut(pool_f, act, enc, next_xq, scale, (lo_q, shift, len));
                QuantFinish::Lut { lo_q, shift, out }
            }
        };
        kernels[oi] = Kernel::Madd(QuantOp {
            nin: *inputs,
            nout: *outputs,
            weights,
            xq,
            bias_q,
            finish,
        });
    }
}

/// A finish LUT of `len` buckets of `2^shift` accumulator steps from
/// `lo_q`: bucket `idx` holds the exact scalar f32 finish at its center
/// (activation, then nearest re-encode through `enc`, then the
/// consumer's operand `next_xq[code]` when one is licensed).
///
/// Filled in runs: with `act`'s lookup inputs and `enc` sorted and
/// finite, `nearest` never decreases as its input grows, nor do the
/// centers as `idx` does, so neither does a bucket's key — its lookup
/// row, else its output code, else its activation value. A run of
/// equal keys shares one output, so its end is found by galloping then
/// bisecting on the key, and only its first bucket is finished.
fn finish_lut(
    pool_f: &[f32],
    act: &Act,
    enc: Option<&[f32]>,
    next_xq: Option<&[i16]>,
    scale: f32,
    (lo_q, shift, len): (i32, u32, usize),
) -> LutOut {
    let step = 1i64 << shift;
    // Each bucket's center on the accumulator grid, exact in f64.
    let center = |idx: usize| {
        let rep_q = i64::from(lo_q) + idx as i64 * step + step / 2;
        (rep_q as f64 / f64::from(scale)) as f32
    };
    let act_at = |idx| apply_act(act, pool_f, center(idx));
    // RNA0004 caps a codebook at 2^16 entries.
    let code_at = |e, idx| nearest(e, act_at(idx)) as u16;
    let key = |idx| match (act, enc) {
        (Act::Lookup { inputs, .. }, _) => nearest(inputs.slice(pool_f), center(idx)) as u32,
        (_, Some(e)) => u32::from(code_at(e, idx)),
        (_, None) => act_at(idx).to_bits(),
    };
    match (enc, next_xq) {
        (Some(e), Some(xq)) => LutOut::Quants(fill_runs(len, key, |i| level_of(xq, code_at(e, i)))),
        (Some(e), None) => LutOut::Codes(fill_runs(len, key, |i| code_at(e, i))),
        (None, _) => LutOut::Floats(fill_runs(len, key, act_at)),
    }
}

/// `len` entries, each run of equal `key` (which never decreases over
/// the indices) filled with `finish` of its first index.
fn fill_runs<T: Copy>(
    len: usize,
    key: impl Fn(usize) -> u32,
    finish: impl Fn(usize) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let (start, k) = (out.len(), key(out.len()));
        let in_run = |i| i < len && key(i) == k;
        // Gallop past the run, then bisect: `lo` is in it, `hi` is not.
        let (mut lo, mut hi) = (start, start + 1);
        while in_run(hi) {
            (lo, hi) = (hi, 2 * hi - start + 1);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            *if in_run(mid) { &mut lo } else { &mut hi } = mid;
        }
        out.resize(hi, finish(start));
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use rapidnn_analyze::Span;

    /// The fill [`finish_lut`] replaced: every bucket through the
    /// scalar finish, its code then composed into the consumer's operand.
    fn per_bucket(
        pool_f: &[f32],
        act: &Act,
        enc: Option<&[f32]>,
        next_xq: Option<&[i16]>,
        scale: f32,
        (lo_q, shift, len): (i32, u32, usize),
    ) -> LutOut {
        let step = 1i64 << shift;
        let finished = (0..len as i64).map(|idx| {
            let rep_q = i64::from(lo_q) + idx * step + step / 2;
            apply_act(act, pool_f, (rep_q as f64 / f64::from(scale)) as f32)
        });
        let Some(e) = enc else {
            return LutOut::Floats(finished.collect());
        };
        let codes = finished.map(|a| nearest(e, a) as u16);
        match next_xq {
            Some(xq) => LutOut::Quants(codes.map(|c| level_of(xq, c)).collect()),
            None => LutOut::Codes(codes.collect()),
        }
    }

    /// The fill by runs holds bit for bit what finishing every bucket
    /// held: on each LUT of mnist-tiny at five seeds (codes composed into
    /// the consumer's operands among them), and on hand-built finishes —
    /// a lookup with a duplicate input and centers on its ties, with and
    /// without a re-encode, one bucket, and one run.
    #[test]
    fn finish_lut_runs_match_the_per_bucket_fill() {
        // Exact: `Debug` prints an `f32` in full, and the license keeps
        // LUT outputs finite.
        let debug = |out: &LutOut| format!("{out:?}");
        let mut composed = 0;
        for seed in [1, 2, 3, 42, 43] {
            let mut model = CompiledModel::mnist_tiny_for_tests(seed);
            model.quantize().unwrap();
            let (f, plan) = (&model.program.floats, model.quant_plan().unwrap());
            for (oi, (op, verdict)) in model.program.ops.iter().zip(&plan.ops).enumerate() {
                let (OpQuant::Licensed(lic), Op::Dense { act, encoder, .. }) = (verdict, op) else {
                    continue;
                };
                let FinishPlan::Lut { lo_q, shift, len } = lic.finish else {
                    continue;
                };
                let (enc, next_xq) = (encoder.map(|e| e.slice(f)), model.madd_levels(oi + 1));
                let want = per_bucket(f, act, enc, next_xq, exp2(lic.acc_frac), (lo_q, shift, len));
                let Some(QuantFinish::Lut { out, .. }) = model.quant_op(oi).map(|q| &q.finish)
                else {
                    panic!("seed {seed} op {oi}: no LUT kernel");
                };
                assert_eq!(debug(out), debug(&want), "seed {seed} op {oi}");
                composed += usize::from(matches!(out, LutOut::Quants(_)));
            }
        }
        assert!(composed > 0, "no LUT fed a licensed op");

        // Inputs with a duplicate, their outputs, and a re-encode book.
        let f = [-1.0, 0.0, 0.0, 1.0, 0.5, -0.25, 0.75, 2.0, -1.0, 0.0, 1.0];
        let span = |start| Span { start, len: 4 };
        let (inputs, enc, xq) = (span(0), Some(&f[8..]), &[-3, 0, 7]);
        // `bumpy`'s rows encode to 1, 1, 2, 1: keyed on its codes, the
        // short third run would vanish under the gallop.
        let [lookup, bumpy] = [span(4), span(1)].map(|outputs| Act::Lookup { inputs, outputs });
        // Centers every 1/64 over [-2, 2], on each tie between inputs;
        // the last LUT's centers all encode to 1.0, one run.
        let wide = (-514, 2, 257);
        for (act, enc, next_xq, lut) in [
            (&lookup, enc, None, wide),
            (&bumpy, enc, None, wide),
            (&lookup, enc, Some(&xq[..]), wide),
            (&lookup, None, None, wide),
            (&Act::Relu, enc, Some(xq), wide),
            (&lookup, enc, Some(xq), (0, 0, 1)),
            (&Act::Identity, enc, None, (154, 0, 50)),
        ] {
            let runs = finish_lut(&f, act, enc, next_xq, 256.0, lut);
            let want = per_bucket(&f, act, enc, next_xq, 256.0, lut);
            assert_eq!(debug(&runs), debug(&want));
        }
    }
}
