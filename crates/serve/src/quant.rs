//! Materialized integer-kernel state.
//!
//! [`CompiledModel::quantize`] derives a [`rapidnn_analyze::QuantPlan`]
//! and this module turns each licensed op into the flat tiles the
//! integer batch kernels stream through: expanded `i16` weight
//! matrices (Madd) or compacted `i16` product tables plus row offsets
//! (Gather), `i32` biases on the accumulator grid, and precomputed
//! finish LUTs whose entries went through the *exact* scalar f32
//! finish (activation lookup, nearest re-encode) at each bucket's
//! center — so the integer path's only deviations from f32 are the
//! rounding terms the plan's error bound already accounts for.
//!
//! An integer Madd op multiplies `xq[code]`, never the code, so whatever
//! produces its input writes that operand directly ([`Domain::Quants`]):
//! a finish LUT feeding one is composed here, once, into
//! `xq_next[lut_codes[bucket]]`, and every other producer is handed the
//! op's `xq` ([`CompiledModel::madd_levels`]) when it runs.
//!
//! Weight codes are consumed here exactly once, streamed straight out
//! of the artifact's (possibly bit-packed) code pool via
//! `CodePool::map_range`; at run time the integer path never touches
//! the code sections again, and the batch arena never holds a weight
//! tile for a licensed op.

use crate::artifact::{nearest, ActRef, CompiledModel, Op};
use crate::kernels::Domain;
use rapidnn_analyze::{FinishPlan, OpQuant, QuantMode, QuantPlan};

/// Everything the integer batch path needs, op-aligned with the model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantState {
    /// The licensing plan (exposed via `CompiledModel::quant_plan`).
    pub(crate) plan: QuantPlan,
    /// One materialized kernel per op; `None` where the op runs f32.
    pub(crate) ops: Vec<Option<QuantOp>>,
}

/// One dense op lowered to integer tiles.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantOp {
    /// Fan-in per output neuron.
    pub(crate) nin: usize,
    /// Output neuron count.
    pub(crate) nout: usize,
    /// How the accumulator is fed.
    pub(crate) kind: QuantKind,
    /// Per-output bias on the `2^acc_frac` grid.
    pub(crate) bias_q: Vec<i32>,
    /// How the accumulator leaves the op.
    pub(crate) finish: QuantFinish,
}

/// Integer multiply strategy of one op.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum QuantKind {
    /// Factored multiply-accumulate: `weights` is the expanded
    /// `nout × nin` quantized weight matrix, `xq` the quantized input
    /// codebook (indexed by input code) — the levels this op's
    /// producer writes into the flow in place of codes.
    Madd {
        /// `nout × nin` weights at `2^w_frac`.
        weights: Vec<i16>,
        /// Input codebook at `2^x_frac`, one entry per code.
        xq: Vec<i16>,
    },
    /// Table gather: `rows[o * nin + i]` is the precomputed base offset
    /// of the weight's row in `table_q`; the input code indexes within
    /// the row.
    Gather {
        /// `nout × nin` row base offsets (`weight code × book_len`).
        rows: Vec<u32>,
        /// Compacted `weight_count × book_len` table at `2^acc_frac`.
        table_q: Vec<i16>,
    },
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
    /// The op re-encodes into an integer Madd op: that op's operand
    /// `xq[code]` of each output code, composed at load.
    Quants(Vec<i16>),
    /// The op does not re-encode: finished floats.
    Floats(Vec<f32>),
}

impl QuantOp {
    /// The flow domain the op's kernel reads.
    pub(crate) fn reads(&self) -> Domain {
        match self.kind {
            QuantKind::Madd { .. } => Domain::Quants,
            QuantKind::Gather { .. } => Domain::Codes,
        }
    }
}

/// An integer Madd op's operand for `code`: `xq[code]`, clamped like
/// every gather of an unproven index (an identity on real data).
pub(crate) fn level_of(xq: &[i16], code: u16) -> i16 {
    xq[usize::from(code).min(xq.len() - 1)]
}

impl CompiledModel {
    /// The integer kernel of op `oi`, if the analyzer licensed one.
    pub(crate) fn quant_op(&self, oi: usize) -> Option<&QuantOp> {
        self.quant.as_ref()?.ops.get(oi)?.as_ref()
    }

    /// The per-code operands of op `oi` when it is an integer Madd op —
    /// what the producer of its input writes in place of codes — and
    /// `None` for every other op (and past the program's end).
    pub(crate) fn madd_levels(&self, oi: usize) -> Option<&[i16]> {
        match &self.quant_op(oi)?.kind {
            QuantKind::Madd { xq, .. } => Some(xq),
            QuantKind::Gather { .. } => None,
        }
    }
}

impl QuantState {
    /// Builds the integer tiles for every licensed op of `plan`.
    ///
    /// Every constructed model has passed the analyzer, so spans are
    /// in bounds; weight codes are still clamped defensively — this
    /// runs once at load time, never in the batch loop.
    pub(crate) fn materialize(model: &CompiledModel, plan: QuantPlan) -> QuantState {
        let pool_f = model.float_pool();
        let mut ops: Vec<Option<QuantOp>> = Vec::with_capacity(model.ops.len());
        for (op, verdict) in model.ops.iter().zip(&plan.ops) {
            let OpQuant::Licensed(lic) = verdict else {
                ops.push(None);
                continue;
            };
            let Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                table,
                act,
                encoder,
            } = op
            else {
                ops.push(None);
                continue;
            };
            let book = &pool_f[lic.input_book.start..lic.input_book.start + lic.input_book.len];
            let scale = exp2(lic.acc_frac);
            let bias_q = bias
                .slice(pool_f)
                .iter()
                .map(|&b| quant_i32(f64::from(b), scale))
                .collect();
            let kind = match lic.mode {
                QuantMode::Madd { w_frac, x_frac } => {
                    let ws = exp2(w_frac);
                    let last = lic.wvals.len().saturating_sub(1);
                    let mut weights = Vec::with_capacity(weight_codes.len);
                    model
                        .codes
                        .map_range(weight_codes.start, weight_codes.len, |c| {
                            let w = lic.wvals[(c as usize).min(last)];
                            weights.push(quant_i16(f64::from(w), ws));
                        });
                    let xs = exp2(x_frac);
                    let xq = book.iter().map(|&b| quant_i16(f64::from(b), xs)).collect();
                    QuantKind::Madd { weights, xq }
                }
                QuantMode::Gather => {
                    let blen = book.len();
                    let last = table.weight_count.saturating_sub(1) as u32;
                    let mut rows = Vec::with_capacity(weight_codes.len);
                    model
                        .codes
                        .map_range(weight_codes.start, weight_codes.len, |c| {
                            rows.push(u32::from(c).min(last) * blen as u32);
                        });
                    let mut table_q = Vec::with_capacity(table.weight_count * blen);
                    for w in 0..table.weight_count {
                        let row = table.row(pool_f, w as u16);
                        table_q.extend(row[..blen].iter().map(|&v| quant_i16(f64::from(v), scale)));
                    }
                    QuantKind::Gather { rows, table_q }
                }
            };
            let inv = 1.0 / scale;
            let finish = match lic.finish {
                FinishPlan::Direct => match act {
                    ActRef::Relu => QuantFinish::DequantRelu { inv },
                    _ => QuantFinish::Dequant { inv },
                },
                FinishPlan::Lut { lo_q, shift, len } => {
                    let enc = encoder.as_ref().map(|e| e.slice(pool_f));
                    let mut codes = Vec::new();
                    let mut vals = Vec::new();
                    let step = 1i64 << shift;
                    for idx in 0..len as i64 {
                        // Bucket center on the accumulator grid, exact
                        // in f64, finished through the scalar path.
                        let rep_q = lo_q + idx * step + step / 2;
                        let y = (rep_q as f64 / f64::from(scale)) as f32;
                        let a = act.apply(pool_f, y);
                        match enc {
                            Some(book) => codes.push(nearest(book, a)),
                            None => vals.push(a),
                        }
                    }
                    QuantFinish::Lut {
                        lo_q: i32::try_from(lo_q).unwrap_or(i32::MIN),
                        shift,
                        out: match enc {
                            Some(_) => LutOut::Codes(codes),
                            None => LutOut::Floats(vals),
                        },
                    }
                }
            };
            ops.push(Some(QuantOp {
                nin: *inputs,
                nout: *outputs,
                kind,
                bias_q,
                finish,
            }));
        }
        // A finish LUT that feeds an integer Madd op emits that op's
        // operands: compose the two tables once, here.
        for oi in 1..ops.len() {
            let (producers, consumers) = ops.split_at_mut(oi);
            let (Some(producer), Some(consumer)) = (&mut producers[oi - 1], &consumers[0]) else {
                continue;
            };
            let (QuantFinish::Lut { out, .. }, QuantKind::Madd { xq, .. }) =
                (&mut producer.finish, &consumer.kind)
            else {
                continue;
            };
            if let LutOut::Codes(codes) = out {
                *out = LutOut::Quants(codes.iter().map(|&c| level_of(xq, c)).collect());
            }
        }
        QuantState { plan, ops }
    }
}

fn exp2(bits: u32) -> f32 {
    (1u64 << bits.min(62)) as f32
}

/// Round-to-nearest quantization onto `scale`, saturated to `i16`.
fn quant_i16(v: f64, scale: f32) -> i16 {
    let q = (v * f64::from(scale)).round();
    q.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}

/// Round-to-nearest quantization onto `scale`, saturated to `i32`.
fn quant_i32(v: f64, scale: f32) -> i32 {
    let q = (v * f64::from(scale)).round();
    q.clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32
}
