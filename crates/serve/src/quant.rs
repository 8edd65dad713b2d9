//! Materialized integer-kernel state.
//!
//! [`CompiledModel::quantize`] derives a [`rapidnn_analyze::QuantPlan`]
//! and [`materialize`] turns each licensed op into the flat tiles the
//! integer batch kernel streams through — its [`Kernel::Madd`], which
//! replaces the kernel the op held: an expanded `i16` weight matrix and
//! the quantized input codebook it multiplies against, `i32` biases on
//! the accumulator grid, and a finish holding one output per run of
//! buckets that share one, each through the *exact* scalar f32 finish
//! (activation lookup, nearest re-encode) at a bucket's center — so the
//! integer path's only deviations from f32 are the rounding terms the
//! plan's error bound already accounts for. There is one integer
//! strategy, the factored multiply-accumulate; an op the plan refuses
//! (a table that does not factor is `FallbackReason::NotFactored`)
//! keeps its kernel and serves on the bit-exact f32 path.
//!
//! A licensed op multiplies `xq[code]`, never the code, so whatever
//! produces its input writes that operand directly
//! ([`Domain::Quants`](crate::kernels::Domain::Quants)): a finish
//! feeding one holds `xq_next[code]` per run, and every other producer
//! is handed the op's `xq` ([`CompiledModel::madd_levels`]) when it
//! runs. A finish has no more runs than the lookup rows or codes it is
//! keyed on, however wide the accumulator range ([`finish_runs`]).
//!
//! Weight codes are read here exactly once, as a slice of the model's
//! code pool; at run time the integer path never touches the pool
//! again, and the batch arena holds no weight tile for any op.

use crate::artifact::{apply_act, CompiledModel};
use crate::kernels::{Kernel, EDGE_LANES};
use rapidnn_analyze::{Act, FinishPlan, Op, OpQuant, QuantPlan};
use rapidnn_core::nearest::nearest;

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
        finish: QuantFinish,
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
            finish,
            tails,
        }
    }
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
    /// The runs of the plan's bucket grid that share one output: an
    /// accumulator with `i` of `edges` at or below it finishes as
    /// `out[i]` ([`run_of`](crate::kernels::run_of)).
    Runs {
        /// Accumulator value where each run after the first starts,
        /// ascending, in whole lane groups: the last run's edge repeats
        /// to fill the last group.
        edges: Vec<[i32; EDGE_LANES]>,
        /// One finished output per run, then one per repeated edge.
        out: LutOut,
    },
}

/// The outputs of a finish's runs, in the domain the next op reads.
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
/// `FallbackReason::UnsortedBook`), which is what makes the runs
/// [`finish_runs`] keeps exact.
pub(crate) fn materialize(model: &mut CompiledModel, plan: &QuantPlan) {
    let CompiledModel {
        program, kernels, ..
    } = model;
    let pool_f: &[f32] = &program.floats;
    let reads = program.ops.iter().zip(program.flow()).zip(&plan.ops);
    // Last op first: a finish feeding a licensed op reads the operands
    // already derived for it.
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
                finish_runs(pool_f, act, enc, next_xq, scale, (lo_q, shift, len))
            }
        };
        kernels[oi] = Kernel::Madd(QuantOp::new(*inputs, *outputs, weights, xq, bias_q, finish));
    }
}

/// The plan's grid of `len` buckets of `2^shift` accumulator steps from
/// `lo_q`, kept as its runs: the scalar f32 finish (activation, nearest
/// re-encode through `enc`, then `next_xq[code]` when licensed) at the
/// center of each run's first bucket. With `act`'s lookup inputs and
/// `enc` sorted and finite, a bucket's key (its lookup row, else its
/// code) never decreases, so runs of one key share one output, number
/// at most the key's values, and are found by a search on the key.
fn finish_runs(
    pool_f: &[f32],
    act: &Act,
    enc: Option<&[f32]>,
    next_xq: Option<&[i16]>,
    scale: f32,
    (lo_q, shift, len): (i32, u32, usize),
) -> QuantFinish {
    let step = 1i64 << shift;
    // A bucket's left edge and center on the accumulator grid.
    let left = |idx: usize| i64::from(lo_q) + idx as i64 * step;
    let center = |idx| ((left(idx) + step / 2) as f64 / f64::from(scale)) as f32;
    let act_at = |idx| apply_act(act, pool_f, center(idx));
    // RNA0004 caps a codebook at 2^16 entries.
    let code_at = |e, idx| nearest(e, act_at(idx)) as u16;
    let key = |idx| match (act, enc) {
        (Act::Lookup { inputs, .. }, _) => nearest(inputs.slice(pool_f), center(idx)),
        // Identity and Relu reach a grid only through a re-encode:
        // without one the plan dequantizes them directly.
        (_, e) => usize::from(code_at(e.expect("a re-encode"), idx)),
    };
    let mut starts = run_starts(len, key);
    // The last run repeats until its edges fill whole lane groups.
    starts.resize(
        (starts.len() - 1).next_multiple_of(EDGE_LANES) + 1,
        starts[starts.len() - 1],
    );
    let runs = starts.iter().copied();
    let out = match (enc, next_xq) {
        (Some(e), Some(xq)) => LutOut::Quants(runs.map(|i| level_of(xq, code_at(e, i))).collect()),
        (Some(e), None) => LutOut::Codes(runs.map(|i| code_at(e, i)).collect()),
        (None, _) => LutOut::Floats(runs.map(act_at).collect()),
    };
    // A run starts inside `lo_q..=hi_q`, which the plan proved fits `i32`.
    let edges = starts[1..].as_chunks().0.iter();
    let edges = edges.map(|g| g.map(|i| left(i) as i32)).collect();
    QuantFinish::Runs { edges, out }
}

/// Where each run of equal `key` (which never decreases) over `0..len`
/// starts.
fn run_starts(len: usize, key: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut start = 0;
    while start < len {
        starts.push(start);
        let k = key(start);
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
        start = hi;
    }
    starts
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
    use crate::kernels::run_of;
    use rapidnn_analyze::Span;

    /// The finish the runs replaced: every bucket through the scalar
    /// finish, its code then composed into the consumer's operand.
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

    /// Output `i` of `out` with its domain, exact: an `f32` by its bits.
    fn entry(out: &LutOut, i: usize) -> Option<(u8, i64)> {
        match out {
            LutOut::Codes(t) => t.get(i).map(|&v| (0, i64::from(v))),
            LutOut::Quants(t) => t.get(i).map(|&v| (1, i64::from(v))),
            LutOut::Floats(t) => t.get(i).map(|v| (2, i64::from(v.to_bits()))),
        }
    }

    /// The runs finish every accumulator bit for bit as finishing every
    /// bucket did — at each bucket's first and last accumulator and at
    /// every `i32` outside the grid — and number at most the keys they
    /// are found on: on each finish of mnist-tiny at five seeds (codes
    /// composed into the consumer's operands among them), and on
    /// hand-built finishes — a lookup with a duplicate input and centers
    /// on its ties, with and without a re-encode, one bucket, and one
    /// run.
    #[test]
    fn finish_lut_runs_match_the_per_bucket_fill() {
        // (runs, per-bucket table, grid, lookup rows else codes)
        let mut cases = Vec::new();
        let keys = |act: &Act, enc: Option<&[f32]>| match act {
            Act::Lookup { inputs, .. } => inputs.len,
            Act::Identity | Act::Relu => enc.map_or(0, <[f32]>::len),
        };
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
                let (enc, lut) = (encoder.map(|e| e.slice(f)), (lo_q, shift, len));
                let next_xq = model.madd_levels(oi + 1);
                let want = per_bucket(f, act, enc, next_xq, exp2(lic.acc_frac), lut);
                let runs = model.quant_op(oi).unwrap().finish.clone();
                cases.push((runs, want, lut, keys(act, enc)));
            }
        }
        assert!(cases.iter().any(|c| matches!(c.1, LutOut::Quants(_))));

        // Inputs with a duplicate, their outputs, and a re-encode book.
        let f = [-1.0, 0.0, 0.0, 1.0, 0.5, -0.25, 0.75, 2.0, -1.0, 0.0, 1.0];
        let span = |start| Span { start, len: 4 };
        let (inputs, enc, xq) = (span(0), Some(&f[8..]), &[-3, 0, 7]);
        // `bumpy`'s rows encode to 1, 1, 2, 1: keyed on its codes, the
        // short third run would vanish under the gallop.
        let [lookup, bumpy] = [span(4), span(1)].map(|outputs| Act::Lookup { inputs, outputs });
        // Centers every 1/64 over [-2, 2], on each tie between inputs;
        // the last grid's centers all encode to 1.0, one run.
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
            let want = per_bucket(&f, act, enc, next_xq, 256.0, lut);
            let runs = finish_runs(&f, act, enc, next_xq, 256.0, lut);
            cases.push((runs, want, lut, keys(act, enc)));
        }
        for (runs, want, (lo_q, shift, len), keys) in cases {
            let QuantFinish::Runs { edges, out } = runs else {
                panic!("not a finish of runs: {runs:?}");
            };
            let (n, mut real) = (edges.len() * EDGE_LANES, edges.concat());
            real.dedup();
            assert!(real.len() < keys && entry(&out, n).is_some() && entry(&out, n + 1).is_none());
            let (lo_q, step) = (i64::from(lo_q), 1i64 << shift);
            let left = |b: usize| lo_q + b as i64 * step;
            let probes =
                (0..=len).flat_map(|b| [(left(b), b.min(len - 1)), (left(b) - 1, b.max(1) - 1)]);
            let ends = [(i64::from(i32::MIN), 0), (i64::from(i32::MAX), len - 1)];
            for (acc, bucket) in probes.chain(ends) {
                // Past the grid's last bucket need not fit `i32`.
                let Ok(acc) = i32::try_from(acc) else {
                    continue;
                };
                let got = entry(&out, run_of(&edges, acc));
                assert_eq!(got, entry(&want, bucket), "acc {acc}");
            }
        }
    }
}
