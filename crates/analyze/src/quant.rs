//! Integer-lowering licenses: per-op quantization plans.
//!
//! The checker ([`crate::analyze`]) proves *hardware feasibility* —
//! would the paper's Q8.8 datapath overflow? This module answers the
//! adjacent *software* question: which ops of a program may the serving
//! kernels lower from `f32` multiplies to `i16`-operand / `i32`-
//! accumulator arithmetic without changing answers beyond a provable
//! bound? The result is a [`QuantPlan`]: one [`OpQuant`] per op, either
//! a [`LicensedOp`] carrying the chosen fixed-point formats, the proven
//! accumulator interval, the requantization recipe and a sound error
//! bound, or a [`FallbackReason`] explaining why the op must stay on
//! the f32 path. Mixed plans are normal — the serving runtime executes
//! licensed ops in integers and everything else unchanged.
//!
//! # How a dense op gets licensed
//!
//! A dense op reads codes, takes for each weight code `w` and input code
//! `x` the product `fl(book_w[w] · book[x])` of the two codebooks' values
//! — the entry the paper's `w × u` product table holds — accumulates,
//! applies bias + activation, and (except at the output) re-encodes.
//! There is one integer lowering, a multiply-accumulate: weights and
//! book values are quantized separately to `i16` at `2^w_frac` /
//! `2^x_frac` and the kernel runs a pure `i16×i16 → i32`
//! multiply-accumulate stream.
//!
//! # Precondition: an analyzer-clean program
//!
//! The plan is derived for programs the checker passes, which every
//! serving model is by construction. The codebook each op reads comes
//! from the program's dataflow walk ([`Program::flow`]), whose rules the
//! checker proves. The plan trusts what the checker refuses
//! as an `error` — spans, shapes, weight codes, finite codebooks, biases
//! and the products of referenced weights — and checks only what
//! the checker warns about or proves for reachable entries alone:
//! sorted axes, and the finiteness of LUT inputs and of every finish
//! output.
//!
//! Headroom is proven, not hoped for: with `mag = max_o (|bias_o| +
//! Σ_i max_x |fl(w(o,i) · x)|)` bounding every partial sum over the
//! *full* code domain (so late code flips cannot escape it), the plan
//! only licenses a format when `mag · 2^acc_frac` plus worst-case
//! per-term rounding stays within `2^30` — a quarter of the `i32`
//! range. The accumulator fraction never drops below the accelerator
//! datapath's fraction bits ([`rapidnn_accel::DatapathModel::paper`],
//! Q8.8), so the served integer path requantizes at op boundaries
//! exactly where the simulated hardware does.
//!
//! # The error-bound contract
//!
//! [`QuantPlan::output_error`] bounds `|integer-path output − f32-path
//! output|` element-wise, for every input. It composes per op as a
//! linear recursion `err_out = A · err_in + B`: quantization noise `B`
//! from rounding operands to `i16` and finishing on a bucket grid,
//! and propagation `A · err_in` through the products (`fl(w · x)` is
//! Lipschitz in `x` along the sorted input codebook), activation lookups and
//! re-encoders. Nearest-encode through a sorted book is *almost*
//! contractive — `|enc(a) − enc(b)| ≤ |a − b| + 2·R` where `R` is the
//! book's largest adjacent half-gap — which keeps the recursion sound
//! even when integer noise flips a code at a cluster boundary. The
//! property suite (`tests/quantized.rs`) holds measured deviations
//! against this bound across random topologies.

use crate::checker::DATAPATH;
use crate::interval::Interval;
use crate::program::{Act, Neuron, Op, Program, Span};
use std::fmt;

/// Largest quantized operand magnitude we round to: one below
/// `i16::MAX` so rounding can never overflow the word.
const Q_MAX: f64 = 32766.0;
/// Accumulator budget: worst-case `|acc|` must stay within `2^30`,
/// leaving a 4× safety margin inside `i32`.
const ACC_BUDGET: f64 = (1u64 << 30) as f64;
/// Longest LUT axis [`QuantWalk::lut_axis`] accepts, the checker's
/// codebook cap (RNA0004). A finish's runs are keyed on a lookup row or
/// an output code, so none holds more runs than this.
const MAX_AXIS_LEN: usize = 1 << 16;

/// How a licensed op leaves the `i32` accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishPlan {
    /// Dequantize (and clamp at zero for ReLU) straight to `f32`; only
    /// for output-stage ops with exact activations.
    Direct,
    /// Requantize on a grid of buckets `(acc - lo_q) >> shift`, each
    /// finished at its center. Serving keeps the grid's runs of buckets
    /// that share one output, so `len` sizes no table.
    Lut {
        /// Accumulator value (at `2^acc_frac`) of bucket 0's left edge.
        lo_q: i32,
        /// Right-shift from accumulator grid to bucket grid
        /// (`acc_frac - datapath fraction bits`).
        shift: u32,
        /// Bucket count: the proven range with its margins, both ends
        /// inside `i32`.
        len: usize,
    },
}

/// Why an op stays on the f32 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The op kind has no integer lowering (convolutions today).
    UnsupportedOp,
    /// An activation-LUT input axis the error bound walks — sorted, as
    /// the checker requires of every axis (RNA0018), but otherwise
    /// unchecked — is non-finite or longer than `2^16`.
    UnsortedBook,
    /// A value the lowering must quantize is NaN or infinite: a
    /// referenced weight's product with an input value, or an
    /// activation output.
    NonFinite,
    /// Weights or codebook entries too large for `i16` even at zero
    /// fraction bits.
    ValueRangeTooWide,
    /// The proven accumulator range cannot fit the integer budget at
    /// the datapath's minimum fraction.
    AccumulatorRangeTooWide,
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            FallbackReason::UnsupportedOp => "op kind has no integer lowering",
            FallbackReason::UnsortedBook => "a LUT input axis is non-finite or over 2^16 long",
            FallbackReason::NonFinite => "quantization source values are not finite",
            FallbackReason::ValueRangeTooWide => "operand range exceeds i16 at any fraction",
            FallbackReason::AccumulatorRangeTooWide => "accumulator range exceeds the i32 budget",
        };
        f.write_str(msg)
    }
}

/// A fully licensed integer lowering of one dense op: a
/// multiply-accumulate whose products land on the `2^(w_frac + x_frac)`
/// accumulator grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LicensedOp {
    /// Fraction bits of the quantized weights.
    pub w_frac: u32,
    /// Fraction bits of the quantized input codebook.
    pub x_frac: u32,
    /// Fraction bits of the `i32` accumulator grid (`w_frac + x_frac`).
    pub acc_frac: u32,
    /// The weight book's value per weight code (zero for an entry no
    /// weight code references, so it widens no format).
    pub wvals: Vec<f32>,
    /// Proven accumulator hull over the full input code domain.
    pub acc: Interval,
    /// Bound on `|integer accumulator · 2^-acc_frac − f32 accumulator|`
    /// including propagated upstream deviation.
    pub acc_error: f64,
    /// How the accumulator is finished.
    pub finish: FinishPlan,
    /// Bound on the op's output deviation from the f32 path (after
    /// activation and re-encode), fed forward to downstream ops.
    pub error: f64,
}

/// The licensing verdict for one program op.
#[derive(Debug, Clone, PartialEq)]
pub enum OpQuant {
    /// The op carries no weights to quantize (pooling, residual
    /// bookkeeping); it runs unchanged on either path.
    NotApplicable,
    /// Licensed for the integer path.
    Licensed(Box<LicensedOp>),
    /// Must stay on the f32 path.
    Fallback(FallbackReason),
}

impl OpQuant {
    /// `true` for [`OpQuant::Licensed`].
    pub fn is_licensed(&self) -> bool {
        matches!(self, OpQuant::Licensed(_))
    }
}

/// Per-op integer-lowering licenses for a whole program, plus the
/// composed output error bound. Produced by [`quantize_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantPlan {
    /// One verdict per program op, in op order.
    pub ops: Vec<OpQuant>,
    /// Sound bound on `|integer-path output − f32-path output|` for
    /// every output element (infinite when deviation crosses an op the
    /// plan cannot bound, e.g. a convolution downstream of a licensed
    /// op).
    pub output_error: f64,
}

impl QuantPlan {
    /// Number of ops licensed for the integer path.
    pub fn licensed(&self) -> usize {
        self.ops.iter().filter(|o| o.is_licensed()).count()
    }

    /// Number of neuron ops that fell back to f32.
    pub fn fallbacks(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, OpQuant::Fallback(_)))
            .count()
    }
}

/// Derives a [`QuantPlan`] against the paper's datapath
/// ([`rapidnn_accel::DatapathModel::paper`], Q8.8): the accumulator fraction of every
/// licensed op is at least its fraction bits, so requantization happens
/// on (at least) the simulated hardware's grid.
///
/// # Panics
///
/// The precondition is an analyzer-clean `program`
/// (`!analyze(program).has_errors()`), which every serving model is by
/// construction: the walk indexes every span and weight code the
/// checker proved in bounds without checking again, and may panic on a
/// program the checker refuses.
pub fn quantize_plan(program: &Program<'_>) -> QuantPlan {
    let mut walk = QuantWalk {
        program,
        lut_frac: DATAPATH.fraction_bits.min(24),
        err: 0.0,
        skip_errs: Vec::new(),
        ops: Vec::with_capacity(program.ops.len()),
    };
    walk.run();
    QuantPlan {
        ops: walk.ops,
        output_error: walk.err,
    }
}

/// What a neuron op's referenced weights bound, over its outputs `o`
/// ([`QuantWalk::scan_rows`]); the row of weight `w` is its products
/// `fl(w · x)` with the input book, a row of the paper's product table.
struct RowScan {
    /// Hull of every output's accumulator `b_o + Σ_i row w(o, i)`.
    acc: Interval,
    /// `max_o (|b_o| + Σ_i mag(row w(o, i)))`.
    mag_sum: f64,
    /// The largest magnitude of one referenced row.
    row_mag: f64,
    /// `max_o Σ_i lip(row w(o, i))`: an input deviation of `err` moves
    /// output `o`'s accumulator at most `err` times its sum (triangle
    /// inequality per neuron).
    lip_sum: f64,
}

/// Per-weight row facts, memoized while scanning an op's weight codes.
#[derive(Clone, Copy)]
struct RowInfo {
    /// Hull of the row over the input-book columns.
    hull: Interval,
    /// Max |product| over the input-book columns.
    mag: f64,
    /// Max |Δproduct| / Δbook over adjacent book columns (∞ when two
    /// book entries collide at different products).
    lip: f64,
}

struct QuantWalk<'p, 'a> {
    program: &'p Program<'a>,
    lut_frac: u32,
    /// Deviation bound of the integer path vs f32 at this point.
    err: f64,
    skip_errs: Vec<f64>,
    ops: Vec<OpQuant>,
}

impl<'p> QuantWalk<'p, '_> {
    fn floats(&self, s: Span) -> &'p [f32] {
        s.slice(&self.program.floats)
    }

    /// An activation LUT's inputs, which the error bound walks as a
    /// sorted axis of finite values. The checker proves them in bounds,
    /// non-empty and sorted (as it proves a codebook, finite and
    /// addressable too); `None` when they are not finite or longer than
    /// a codebook may be (see [`FallbackReason::UnsortedBook`]).
    fn lut_axis(&self, s: Span) -> Option<&'p [f32]> {
        let vals = self.floats(s);
        let finite = vals.iter().all(|v| v.is_finite());
        (vals.len() <= MAX_AXIS_LEN && finite).then_some(vals)
    }

    fn run(&mut self) {
        let program = self.program;
        for (op, at) in program.ops.iter().zip(program.flow()) {
            let verdict = self.step(op, at.book);
            self.ops.push(verdict);
        }
    }

    /// One op's verdict; `book` is the codebook its input is encoded
    /// through — for a neuron op always one, since the checker refuses
    /// a neuron op fed decoded floats (RNA0007).
    fn step(&mut self, op: &Op, book: Option<Span>) -> OpQuant {
        let neuron = || op.neuron().expect("dense and conv ops are neurons");
        let input_book = || book.expect("a clean neuron op reads codes");
        match op {
            Op::Dense { .. } => self.dense(&neuron(), input_book()),
            Op::Conv { .. } => {
                let (n, book) = (neuron(), input_book());
                // Convolutions stay on f32; if upstream deviation
                // exists it still propagates through the taps.
                if self.err > 0.0 {
                    let rows = self.scan_rows(&n, self.floats(book));
                    let acc_dev = rows.map_or(f64::INFINITY, |r| r.lip_sum * self.err);
                    self.err = self.finish_error(acc_dev, n.act, &n.encoder);
                }
                OpQuant::Fallback(FallbackReason::UnsupportedOp)
            }
            Op::MaxPool(_) => OpQuant::NotApplicable,
            Op::AvgPool { codebook, .. } => {
                if self.err > 0.0 {
                    self.err += 2.0 * half_gap(self.floats(*codebook));
                }
                OpQuant::NotApplicable
            }
            Op::ResidualBegin { .. } => {
                self.skip_errs.push(self.err);
                OpQuant::NotApplicable
            }
            Op::ResidualEnd { encoder } => {
                let skip = self.skip_errs.pop().unwrap_or(0.0);
                self.err += skip;
                if self.err > 0.0 {
                    if let Some(enc) = encoder {
                        self.err += 2.0 * half_gap(self.floats(*enc));
                    }
                }
                OpQuant::NotApplicable
            }
        }
    }

    /// Dense licensing. On any failure the op falls back and upstream
    /// deviation propagates as well as the data allows (infinity when
    /// a LUT axis it must walk is not finite).
    fn dense(&mut self, n: &Neuron<'_>, book_span: Span) -> OpQuant {
        let (inputs, act, encoder) = (n.window.patch_len(), n.act, &n.encoder);
        let fallback = |w: &mut Self, reason: FallbackReason| {
            if w.err > 0.0 {
                // Bound the f32 fallback's own deviation when the data
                // allows; else give up.
                let acc_dev = w.fallback_acc_dev(n, w.floats(book_span));
                let acc_dev = acc_dev.unwrap_or(f64::INFINITY);
                w.err = w.finish_error(acc_dev, act, encoder);
            }
            OpQuant::Fallback(reason)
        };

        // --- What the checker does not refuse: non-finite or oversized
        // LUT inputs, and finish data it proves finite only where
        // reachable.
        let book = self.floats(book_span);
        let act_data = match act {
            Act::Identity | Act::Relu => None,
            Act::Lookup { inputs, outputs } => {
                let Some(xs) = self.lut_axis(*inputs) else {
                    return fallback(self, FallbackReason::UnsortedBook);
                };
                let ys = self.floats(*outputs);
                if ys.iter().any(|v| !v.is_finite()) {
                    return fallback(self, FallbackReason::NonFinite);
                }
                Some((xs, ys))
            }
        };
        let enc_book = encoder.map(|e| self.floats(e));

        // --- Row scan, then the weights the codes reference.
        let Some(rows) = self.scan_rows(n, book) else {
            return fallback(self, FallbackReason::NonFinite);
        };
        let (acc, mag_bound, count) = (rows.acc, rows.mag_sum, inputs as f64);
        // A dense op has one weight book.
        let weights = self.floats(n.weight_books[0]);
        let mut wvals = vec![0.0f32; weights.len()];
        for &c in n.weight_codes.slice(&self.program.codes) {
            wvals[usize::from(c)] = weights[usize::from(c)];
        }

        // --- Choose a fraction split with proven headroom.
        let lut_frac = self.lut_frac;
        // An entry no weight code references keeps its zero level.
        let wmax = wvals
            .iter()
            .map(|v| f64::from(*v).abs())
            .fold(0.0, f64::max);
        let xmax = book.iter().map(|v| f64::from(*v).abs()).fold(0.0, f64::max);
        let (Some(mut w_frac), Some(mut x_frac)) = (frac_cap(wmax), frac_cap(xmax)) else {
            return fallback(self, FallbackReason::ValueRangeTooWide);
        };
        if w_frac + x_frac < lut_frac {
            return fallback(self, FallbackReason::ValueRangeTooWide);
        }
        // Per-term rounding slack: |wq·xq - w·x·2^F| stays within
        // (Wmax·2^wf + Xmax·2^xf)/2 + 1/4 ≤ 2^15.
        while mag_bound * exp2(w_frac + x_frac) + count * 32768.0 + 1.0 > ACC_BUDGET {
            if w_frac + x_frac <= lut_frac {
                return fallback(self, FallbackReason::AccumulatorRangeTooWide);
            }
            if w_frac >= x_frac {
                w_frac -= 1;
            } else {
                x_frac -= 1;
            }
        }
        let acc_frac = w_frac + x_frac;
        let eps_acc = count
            * (wmax * exp2_neg(x_frac + 1) + xmax * exp2_neg(w_frac + 1) + exp2_neg(acc_frac + 2))
            + exp2_neg(acc_frac + 1)
            + (count + 3.0) * mag_bound * exp2_neg(23);
        let acc_error = eps_acc + flip_term(rows.lip_sum, self.err);

        // --- Finish: direct dequantization when nothing follows the
        // accumulator but an exact activation, else a bucket grid
        // covering the proven range (flipped codes included — the hull
        // is over the full code domain).
        let direct = enc_book.is_none() && matches!(act, Act::Identity | Act::Relu);
        let finish = if direct {
            FinishPlan::Direct
        } else {
            let shift = acc_frac - lut_frac;
            let margin = eps_acc + exp2_neg(lut_frac);
            let lo_f = acc.lo - margin;
            let hi_f = acc.hi + margin;
            let step = 1i64 << shift;
            let lo_q = (lo_f * exp2(acc_frac)).floor() as i64;
            let lo_q = lo_q.div_euclid(step) * step;
            let hi_q = (hi_f * exp2(acc_frac)).ceil() as i64;
            let len = usize::try_from((hi_q - lo_q).div_euclid(step) + 1).unwrap_or(usize::MAX);
            let (Ok(lo_q), Ok(_)) = (i32::try_from(lo_q), i32::try_from(hi_q)) else {
                return fallback(self, FallbackReason::AccumulatorRangeTooWide);
            };
            FinishPlan::Lut { lo_q, shift, len }
        };

        // --- Output deviation through the finish.
        let bucket = match finish {
            FinishPlan::Direct => 0.0,
            FinishPlan::Lut { .. } => exp2_neg(lut_frac + 1),
        };
        let delta = acc_error + bucket;
        let act_err = match act_data {
            None => delta,
            Some((xs, ys)) => slice_lip(xs, ys) * (delta + 2.0 * half_gap(xs)),
        };
        let out_err = match enc_book {
            None => act_err,
            Some(eb) => act_err + 2.0 * half_gap(eb),
        };
        self.err = out_err;

        OpQuant::Licensed(Box::new(LicensedOp {
            w_frac,
            x_frac,
            acc_frac,
            wvals,
            acc,
            acc_error,
            finish,
            error: out_err,
        }))
    }

    /// One pass over a neuron op's referenced weights along `book`,
    /// each weight's row facts found once per weight book
    /// ([`row_info`]); `None` when a referenced row is not finite.
    fn scan_rows(&self, n: &Neuron<'_>, book: &[f32]) -> Option<RowScan> {
        let wcodes = n.weight_codes.slice(&self.program.codes);
        let mut bias = self.floats(n.bias).iter();
        let (mut acc, mut mag_sum, mut row_mag, mut lip_sum) = (None, 0.0f64, 0.0f64, 0.0f64);
        for (span, codes) in n.readers(wcodes) {
            let weights = self.floats(span);
            let mut seen = vec![None; weights.len()];
            for (wrow, &b) in codes.chunks_exact(n.window.patch_len()).zip(&mut bias) {
                let b = f64::from(b);
                let (mut hull_o, mut mag_o, mut lip_o) = (Interval::point(b), b.abs(), 0.0);
                for &c in wrow {
                    let c = usize::from(c);
                    let info = match seen[c] {
                        Some(info) => info,
                        None => *seen[c].insert(row_info(weights[c], book)?),
                    };
                    hull_o = hull_o + info.hull;
                    mag_o += info.mag;
                    lip_o += info.lip;
                    row_mag = row_mag.max(info.mag);
                }
                acc = Some(acc.map_or(hull_o, |a: Interval| a.hull(hull_o)));
                (mag_sum, lip_sum) = (mag_sum.max(mag_o), lip_sum.max(lip_o));
            }
        }
        Some(RowScan {
            acc: acc?,
            mag_sum,
            row_mag,
            lip_sum,
        })
    }

    /// Accumulator deviation of an *unlicensed* dense op fed deviated
    /// inputs: upstream error through the per-neuron sum of its rows'
    /// Lipschitz constants ([`RowScan::lip_sum`]); `None` when a
    /// referenced row is not finite.
    fn fallback_acc_dev(&self, n: &Neuron<'_>, book: &[f32]) -> Option<f64> {
        let rows = self.scan_rows(n, book)?;
        let count = n.window.patch_len() as f64;
        // The flip term plus the f32 re-accumulation's own rounding on
        // the shifted values.
        Some(
            flip_term(rows.lip_sum, self.err) + (count + 1.0) * count * rows.row_mag * exp2_neg(23),
        )
    }

    /// Propagates an accumulator deviation through activation and
    /// re-encode of an f32-path op (shared by conv and dense
    /// fallbacks).
    fn finish_error(&self, acc_dev: f64, act: &Act, encoder: &Option<Span>) -> f64 {
        let act_err = match act {
            Act::Identity | Act::Relu => acc_dev,
            Act::Lookup { inputs, outputs } => match self.lut_axis(*inputs) {
                Some(xs) => slice_lip(xs, self.floats(*outputs)) * (acc_dev + 2.0 * half_gap(xs)),
                None => f64::INFINITY,
            },
        };
        let r = encoder.map_or(0.0, |e| half_gap(self.floats(e)));
        act_err + 2.0 * r
    }
}

/// `lip · err` with the `∞ · 0` corner pinned to zero: no upstream
/// deviation means nothing to amplify.
fn flip_term(lip: f64, err: f64) -> f64 {
    if err == 0.0 {
        0.0
    } else {
        lip * err
    }
}

fn exp2(bits: u32) -> f64 {
    (1u64 << bits.min(62)) as f64
}

fn exp2_neg(bits: u32) -> f64 {
    1.0 / exp2(bits)
}

/// Largest fraction `f ≤ 15` with `v · 2^f ≤ Q_MAX`; `None` when even
/// `f = 0` overflows `i16` (or `v` is not finite).
fn frac_cap(v: f64) -> Option<u32> {
    (0..=15u32).rev().find(|&f| v * exp2(f) <= Q_MAX)
}

/// Largest adjacent half-gap of a sorted book: the contraction defect
/// of nearest-encode (`|enc(a) − enc(b)| ≤ |a − b| + 2 · half_gap`).
fn half_gap(book: &[f32]) -> f64 {
    book.windows(2)
        .map(|w| (f64::from(w[1]) - f64::from(w[0])) / 2.0)
        .fold(0.0, f64::max)
}

/// Max adjacent `|Δvalue| / Δkey` of a weight's row, or of a lookup's
/// outputs, along its sorted key axis; `∞` when two equal keys map to
/// different values. Telescoping over the sorted keys makes this a
/// global Lipschitz constant.
fn slice_lip(keys: &[f32], vals: &[f32]) -> f64 {
    let mut lip = 0.0f64;
    for i in 1..keys.len().min(vals.len()) {
        let dk = f64::from(keys[i]) - f64::from(keys[i - 1]);
        let dv = (f64::from(vals[i]) - f64::from(vals[i - 1])).abs();
        if dv > 0.0 {
            lip = lip.max(if dk > 0.0 { dv / dk } else { f64::INFINITY });
        }
    }
    lip
}

/// Hull / magnitude / Lipschitz facts of weight `w`'s row: its products
/// `fl(w · x)` over the input book; `None` when one is not finite.
fn row_info(w: f32, book: &[f32]) -> Option<RowInfo> {
    let row: Vec<f32> = book.iter().map(|&x| w * x).collect();
    let hull = Interval::of_slice(&row)?;
    Some(RowInfo {
        hull,
        mag: hull.magnitude(),
        lip: slice_lip(book, &row),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    /// The input book the test programs encode through.
    const BOOK: [f32; 4] = [-1.0, 0.0, 0.5, 2.0];

    /// Single dense layer: 2 inputs through [`BOOK`], one output over
    /// `weights`, relu, no encoder (mirrors the checker's `tiny`).
    fn tiny(weights: &[f32]) -> Program<'static> {
        let mut floats = BOOK.to_vec();
        let weight_book = Span {
            start: floats.len(),
            len: weights.len(),
        };
        floats.extend_from_slice(weights);
        let bias = Span {
            start: floats.len(),
            len: 1,
        };
        floats.push(0.125);
        Program {
            input_features: 2,
            output_features: 1,
            virtual_encoder: Span { start: 0, len: 4 },
            ops: vec![Op::Dense {
                inputs: 2,
                outputs: 1,
                weight_codes: Span { start: 0, len: 2 },
                bias,
                weight_book,
                act: Act::Relu,
                encoder: None,
            }],
            floats: Cow::Owned(floats),
            codes: Cow::Owned(vec![0, 1]),
        }
    }

    #[test]
    fn factored_dense_licenses_as_madd() {
        let plan = quantize_plan(&tiny(&[-0.5, 1.0]));
        assert_eq!(plan.licensed(), 1);
        let OpQuant::Licensed(op) = &plan.ops[0] else {
            panic!("expected license, got {:?}", plan.ops[0]);
        };
        assert_eq!(op.w_frac + op.x_frac, op.acc_frac);
        assert!(op.acc_frac >= 8, "acc_frac {} below Q8.8", op.acc_frac);
        assert_eq!(op.finish, FinishPlan::Direct);
        assert_eq!(op.wvals, vec![-0.5, 1.0]);
        // Hull: 0.125 + [-1, 0.5] + [-1, 2] = [-1.875, 2.625].
        assert!(
            op.acc.contains(2.6) && op.acc.contains(-1.8),
            "{:?}",
            op.acc
        );
        assert!(!op.acc.contains(2.7), "{:?}", op.acc);
        assert!(op.error > 0.0 && op.error < 1e-2, "error {}", op.error);
        assert_eq!(plan.output_error, op.error);
    }

    #[test]
    fn huge_values_fall_back() {
        let plan = quantize_plan(&tiny(&[1.0e9, 1.0]));
        assert_eq!(plan.licensed(), 0);
        assert_eq!(
            plan.ops[0],
            OpQuant::Fallback(FallbackReason::ValueRangeTooWide)
        );
        assert_eq!(plan.output_error, 0.0);

        // Downstream of a licensed op the f32 fallback still carries a
        // finite bound (`fallback_acc_dev`) to the output.
        let mut program = stacked();
        let Op::Dense { weight_book, .. } = &program.ops[1] else {
            unreachable!("stacked is all dense");
        };
        let first_weight = weight_book.start;
        program.floats.to_mut()[first_weight] = 1.0e9;
        let plan = quantize_plan(&program);
        assert!(plan.ops[0].is_licensed(), "{:?}", plan.ops[0]);
        assert_eq!(
            plan.ops[1],
            OpQuant::Fallback(FallbackReason::ValueRangeTooWide)
        );
        assert!(plan.output_error.is_finite() && plan.output_error > 0.0);
    }

    #[test]
    fn broken_spans_never_panic() {
        // The plan trusts the checker, which refuses a span past its
        // pool before any plan is asked for.
        let mut program = tiny(&[-0.5, 1.0]);
        if let Op::Dense { weight_codes, .. } = &mut program.ops[0] {
            weight_codes.len = usize::MAX;
        }
        let report = crate::analyze(&program);
        assert!(report.has_errors(), "{report}");
    }

    #[test]
    fn encoded_output_gets_a_lut_finish() {
        let mut program = tiny(&[-0.5, 1.0]);
        // Re-encode through the virtual book to force a LUT finish.
        if let Op::Dense { encoder, .. } = &mut program.ops[0] {
            *encoder = Some(Span { start: 0, len: 4 });
        }
        let plan = quantize_plan(&program);
        let OpQuant::Licensed(op) = &plan.ops[0] else {
            panic!("expected license, got {:?}", plan.ops[0]);
        };
        let FinishPlan::Lut { lo_q, shift, len } = op.finish else {
            panic!("expected lut finish, got {:?}", op.finish);
        };
        assert_eq!(shift, op.acc_frac - 8);
        assert!(len > 0);
        // The bucketed domain covers the proven accumulator hull.
        let step = 1i64 << shift;
        let hi_q = i64::from(lo_q) + step * (len as i64 - 1);
        let scale = exp2(op.acc_frac);
        assert!(f64::from(lo_q) / scale <= op.acc.lo);
        assert!((hi_q as f64) / scale >= op.acc.hi);
        // Encoding adds the book's contraction defect to the bound.
        assert!(op.error >= 2.0 * 0.75, "error {}", op.error);
    }

    /// Two stacked dense layers, 2 → 2 → 1, the first re-encoding
    /// through the input book.
    fn stacked() -> Program<'static> {
        let mut floats = BOOK.to_vec();
        let w1 = floats.len();
        floats.extend_from_slice(&[-0.5, 1.0]);
        let b1 = floats.len();
        floats.extend_from_slice(&[0.0, 0.0]);
        let w2 = floats.len();
        floats.extend_from_slice(&[0.25, 0.75]);
        let b2 = floats.len();
        floats.push(0.0);
        Program {
            input_features: 2,
            output_features: 1,
            virtual_encoder: Span { start: 0, len: 4 },
            ops: vec![
                Op::Dense {
                    inputs: 2,
                    outputs: 2,
                    weight_codes: Span { start: 0, len: 4 },
                    bias: Span { start: b1, len: 2 },
                    weight_book: Span { start: w1, len: 2 },
                    act: Act::Relu,
                    encoder: Some(Span { start: 0, len: 4 }),
                },
                Op::Dense {
                    inputs: 2,
                    outputs: 1,
                    weight_codes: Span { start: 4, len: 2 },
                    bias: Span { start: b2, len: 1 },
                    weight_book: Span { start: w2, len: 2 },
                    act: Act::Identity,
                    encoder: None,
                },
            ],
            floats: Cow::Owned(floats),
            codes: Cow::Owned(vec![0, 1, 1, 0, 0, 1]),
        }
    }

    #[test]
    fn error_bound_composes_across_ops() {
        // The second op's bound must include the first op's deviation
        // amplified by the fan-in.
        let plan = quantize_plan(&stacked());
        assert_eq!(plan.licensed(), 2, "{:?}", plan.ops);
        let (OpQuant::Licensed(op1), OpQuant::Licensed(op2)) = (&plan.ops[0], &plan.ops[1]) else {
            panic!("expected two licenses");
        };
        assert!(op1.error > 0.0);
        // op2 sees op1's deviation: its bound strictly exceeds its own
        // standalone quantization noise.
        assert!(op2.error > op2.acc_error || op2.acc_error > op1.error);
        assert!(plan.output_error.is_finite());
        assert_eq!(plan.output_error, op2.error);
    }

    /// A convolution stays on f32 but carries the upstream deviation
    /// through its taps: fan-in times its products' Lipschitz constant
    /// along the book (here one weight of 2, so 2).
    #[test]
    fn conv_downstream_of_license_propagates_through_its_taps() {
        use crate::program::Geom;
        let mut program = tiny(&[-0.5, 1.0]);
        let Op::Dense { bias, .. } = program.ops[0] else {
            unreachable!("tiny is one dense op");
        };
        if let Op::Dense { encoder, .. } = &mut program.ops[0] {
            *encoder = Some(Span { start: 0, len: 4 });
        }
        let start = program.floats.len();
        program.floats.to_mut().push(2.0);
        program.ops.push(Op::Conv {
            geom: Geom {
                in_channels: 1,
                in_height: 1,
                in_width: 1,
                kernel_h: 1,
                kernel_w: 1,
                stride: 1,
                pad: 0,
                out_height: 1,
                out_width: 1,
            },
            out_channels: 1,
            weight_codes: Span { start: 0, len: 1 },
            bias,
            weight_books: vec![Span { start, len: 1 }],
            zero_code: 0,
            act: Act::Identity,
            encoder: None,
        });
        let report = crate::analyze(&program);
        assert!(!report.has_errors(), "{report}");
        let plan = quantize_plan(&program);
        let OpQuant::Licensed(op) = &plan.ops[0] else {
            panic!("expected license, got {:?}", plan.ops[0]);
        };
        assert_eq!(
            plan.ops[1],
            OpQuant::Fallback(FallbackReason::UnsupportedOp)
        );
        assert!(op.error > 0.0);
        assert_eq!(plan.output_error, 2.0 * op.error);
    }
}
