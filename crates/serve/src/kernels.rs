//! Zero-allocation batched inference kernels.
//!
//! [`BatchRunner`] executes a [`CompiledModel`]'s op program *batch-major*:
//! each op runs once per batch over all rows, instead of once per sample.
//! All intermediate state lives in a reusable scratch arena — one
//! ping-pong pair of buffers per flow domain (`codes`, `quants`,
//! `floats`), each sized `batch × width` for the widest flow the program
//! reaches *in that domain*, and a stack of residual-skip buffers.
//! Buffers are cleared, never dropped, between batches, so once their
//! capacity has grown to the model's high-water mark the steady-state op
//! loop performs **zero heap allocations** per sample.
//!
//! # Memory layout
//!
//! The flow between ops is one flat row-major buffer, `rows × width`, in
//! one of three domains: encoded (`u16` codes), quantized (`i16`, the
//! operand an integer Madd op multiplies — see [`Domain::Quants`]) or
//! decoded (`f32`). Dense and
//! Conv process the batch in [`LANES`]-row blocks: the accumulators of a
//! block live in a fixed-size local array (registers, not memory) and
//! the weight/tap loop runs innermost, so
//!
//! * the per-sample serial `acc += table[w][x]` chain — the latency
//!   bottleneck of single-sample inference, since every table fits in
//!   cache and the adds cannot overlap — becomes [`LANES`] independent
//!   chains the CPU overlaps;
//! * one weight-code row and one product table stay hot while the block
//!   streams through them, and a block's codes (`LANES` consecutive
//!   rows) stay L1-resident across all output neurons;
//! * the gather indexes its table row with the code as it is: a model
//!   only exists once the analyzer has proven every code in range, and
//!   the slice bounds check turns an analyzer hole into a panic the
//!   engine's workers contain (`ServeError::WorkerPanic`), never UB.
//!
//! Pools, residual joins and encode steps are element-wise or
//! window-local and run as plain batched loops.
//!
//! # One kernel per op, chosen once
//!
//! The model holds one [`Kernel`] per op; the batch loop derives
//! nothing the model fixes. An op the analyzer licensed
//! ([`CompiledModel::quantize`]) runs the one integer kernel, the
//! `i16 × i16 → i32` multiply-accumulate tile ([`madd_tile`]). Every
//! other dense op runs in `f32`: when its table factors back into
//! `fl(w · book[x])`, [`lower`] decoded its weight matrix when the
//! model was assembled and a batch of at least [`LANES`] rows runs as a
//! packed multiply ([`dense_mul_block`]); else — a table that does not
//! factor (an op refused as `FallbackReason::NotFactored` serves here),
//! a batch below a block — as the table gather ([`dense_block_gather`],
//! [`dense_row`]), reading its weight codes as a slice of the model's
//! pool. Every other op runs its table, or is its pool or residual
//! step.
//!
//! Where the flow stands between two ops — its width and domain — is
//! fixed when the model is built ([`FlowState`], one per op boundary,
//! derived from the program's dataflow walk [`Program::flow`]), and
//! the batch loop executes it as it is: op `i` reads the model's
//! `flow[i]` and leaves `flow[i + 1]`. Nothing is re-checked per batch.
//! Every model that exists passed the construction gate, which refuses
//! a domain mismatch, an unbalanced residual region and an encoded
//! exit. A model that bypassed it (only tests build one) runs the same
//! safe code, where a contradiction panics on a slice bound inside the
//! engine's containment.
//!
//! # Equivalence
//!
//! Results are bit-for-bit identical to per-sample inference (and
//! therefore to `ReinterpretedNetwork::infer_sample`): samples are
//! independent, and for each sample every accumulation, activation
//! lookup and nearest-representative search happens in exactly the
//! order the per-sample path uses. Batching only reorders work *across*
//! samples.

use crate::artifact::{apply_act, CompiledModel, InputEncoder};
use crate::error::{Result, ServeError};
use crate::lanes::Acc;
use crate::quant::{level_of, LutOut, QuantFinish, QuantOp};
use rapidnn_analyze::{factor_table, Act, Boundary, Geom, Op, Program, Span, TableRef};
// The branch-free nearest-representative search originated here and now
// lives in `rapidnn_core::nearest`, shared with the composer's encode
// paths so both sides pay the same cost per encode.
use rapidnn_core::nearest::{
    load_keys, nearest_index, nearest_sorted, nearest_sorted_block, nearest_thresholded_block,
    nearest_thresholded_levels,
};

/// Domain of the data currently flowing between ops.
///
/// Which encoded domain a boundary is in is the *consumer's* choice,
/// fixed when the model is loaded: the flow into an analyzer-licensed
/// integer Madd op ([`CompiledModel::madd_levels`]) is `Quants`, the
/// flow into every other op that reads encoded values is `Codes`, and
/// whatever produces that flow — the input encoder, an integer finish,
/// an f32 re-encode, a pool — writes it in that domain directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Domain {
    /// Encoded `u16` cluster codes.
    Codes,
    /// The next op's quantized input operand per value: `xq[code]`, the
    /// `i16` its Madd kernel multiplies.
    Quants,
    /// Decoded `f32` values.
    Floats,
}

impl Domain {
    /// The domain of the flow at boundary `at`: decoded floats, or the
    /// encoded domain its reader takes — `Quants` when that reader
    /// runs the integer Madd kernel, `Codes` otherwise.
    pub(crate) fn of(at: &Boundary, reads_quants: bool) -> Domain {
        match at.book {
            None => Domain::Floats,
            Some(_) if reads_quants => Domain::Quants,
            Some(_) => Domain::Codes,
        }
    }

    /// Name used by the plan preview (`lint_artifact quant`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Domain::Codes => "codes",
            Domain::Quants => "i16",
            Domain::Floats => "f32",
        }
    }
}

/// Where the flow stands between two ops: which domain it is in and how
/// wide a row is. A model holds one per op boundary, derived once when
/// it is built; a pipeline stage resumes from the one at its first op,
/// bit-identically to an uncut run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowState {
    /// Current flow domain.
    pub(crate) domain: Domain,
    /// Values per row.
    pub(crate) width: usize,
}

/// Owned batch buffer handed between pipeline stages. Buffers are
/// swapped in and out of the runner's arena, so a handoff moves one
/// allocation downstream instead of copying `rows × width` values; in
/// steady state each stage keeps recycling the buffers that arrive from
/// upstream and only stage 0 allocates (one codes buffer per
/// micro-batch).
#[derive(Debug)]
pub(crate) enum FlowData {
    /// Encoded flow (`padded × width` codes, row-major).
    Codes(Vec<u16>),
    /// Quantized flow (`padded × width` Madd operands, row-major).
    Quants(Vec<i16>),
    /// Decoded flow (`padded × width` floats, row-major).
    Floats(Vec<f32>),
}

/// Rows per register-resident accumulator block in the dense/conv
/// gather loops. The constant bound lets the compiler unroll the lane
/// loop completely and keep the whole block in registers.
const LANES: usize = 8;

/// Output neurons processed per pass over a dense block: one code load
/// feeds this many accumulator blocks. `OBLOCK * LANES`
/// accumulators fill the SSE register file exactly.
///
/// 8 lanes by 2 outputs measured fastest: fewer lanes starve the
/// floating-point add chains, more outputs spill the register file.
const OBLOCK: usize = 2;

// The u64 lane folding in `dense_block_gather` spells out eight lanes.
const _: () = assert!(LANES == 8, "lane folding assumes eight lanes");

/// Rows per tile of the integer Madd kernel ([`madd_tile`]): with
/// [`OBLOCK`] outputs that is eight vector accumulators, which with the
/// two weight vectors and a row vector still fits the sixteen SSE
/// registers. Divides [`LANES`], so a padded batch is whole tiles.
const TILE_ROWS: usize = 4;
const _: () = assert!(LANES.is_multiple_of(TILE_ROWS));

/// Reusable scratch arena executing a compiled model's op program over
/// whole batches.
///
/// A runner is plain state — it holds no reference to any model and may
/// be reused across models of different shapes; buffers grow to the
/// largest `batch × width` ever required and are then recycled. For a
/// long-lived serving loop, construct one with [`BatchRunner::for_model`]
/// (which pre-reserves the high-water capacity) and call
/// [`BatchRunner::run`] per batch.
#[derive(Debug, Default)]
pub struct BatchRunner {
    /// The flow between ops, one buffer pair per domain.
    flow: Flow,
    /// Arena of residual-skip snapshots, indexed by nesting depth.
    /// Entries are reused across batches; only `0..depth` are live.
    skips: Vec<Vec<f32>>,
    /// Total-order keys of the codebook currently being encoded
    /// through, recomputed per encode step (see
    /// [`rapidnn_core::nearest::total_key`]).
    keys: Vec<i32>,
    /// Total-order keys of the activation lookup table currently being
    /// applied (alive at the same time as the encoder's `keys`).
    act_keys: Vec<i32>,
    /// Interleaved code tile for one [`LANES`]-row block (see
    /// [`interleave`]).
    tile: Vec<u16>,
    /// Interleaved *decoded* tile for the f32 multiply kernel (see
    /// [`interleave_decode`]).
    tile_f: Vec<f32>,
}

/// The arena's flow buffers: per [`Domain`], the current flow
/// (`rows × width`, row-major) and the scratch the next op writes into,
/// which [`Flow::advance`] then swaps in.
#[derive(Debug, Default)]
struct Flow {
    codes: Vec<u16>,
    codes_next: Vec<u16>,
    /// An integer Madd op reads its rows from here in place.
    quants: Vec<i16>,
    quants_next: Vec<i16>,
    floats: Vec<f32>,
    floats_next: Vec<f32>,
}

impl Flow {
    /// Makes the scratch buffer an op just filled the current flow of
    /// `domain`.
    fn advance(&mut self, domain: Domain) {
        match domain {
            Domain::Codes => std::mem::swap(&mut self.codes, &mut self.codes_next),
            Domain::Quants => std::mem::swap(&mut self.quants, &mut self.quants_next),
            Domain::Floats => std::mem::swap(&mut self.floats, &mut self.floats_next),
        }
    }
}

impl BatchRunner {
    /// Creates an empty runner; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// Creates a runner with capacity pre-reserved for running `model` on
    /// batches of up to `max_rows` samples, so even the first batch
    /// allocates nothing inside the op loop.
    pub fn for_model(model: &CompiledModel, max_rows: usize) -> Self {
        let mut runner = BatchRunner::new();
        runner.reserve(model, max_rows);
        runner
    }

    /// Grows the scratch arena to the high-water capacity `model` needs
    /// for batches of `max_rows` samples.
    pub fn reserve(&mut self, model: &CompiledModel, max_rows: usize) {
        let plan = plan(model);
        self.keys.reserve(plan.max_book);
        self.act_keys.reserve(plan.max_act);
        self.tile.reserve(plan.max_tile.saturating_mul(LANES));
        self.tile_f.reserve(plan.max_tile_f.saturating_mul(LANES));
        let rows = |width: usize| max_rows.saturating_mul(width);
        self.flow.codes.reserve(rows(plan.max_codes));
        self.flow.codes_next.reserve(rows(plan.max_codes));
        self.flow.quants.reserve(rows(plan.max_quants));
        self.flow.quants_next.reserve(rows(plan.max_quants));
        self.flow.floats.reserve(rows(plan.max_floats));
        self.flow.floats_next.reserve(rows(plan.max_floats));
        self.skips
            .resize_with(self.skips.len().max(plan.skip_depth), Vec::new);
        for skip in &mut self.skips {
            skip.reserve(rows(plan.max_skip));
        }
    }

    /// Total bytes currently reserved across the scratch arena
    /// (capacities, not live lengths).
    ///
    /// This is the runner's whole heap footprint, exposed so tests can
    /// pin the high-water accounting — in particular that it holds
    /// flow buffers and block tiles only: weights in every form live in
    /// the model, so the arena does not scale with its code pool.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.flow.codes.capacity() * size_of::<u16>()
            + self.flow.codes_next.capacity() * size_of::<u16>()
            + self.flow.quants.capacity() * size_of::<i16>()
            + self.flow.quants_next.capacity() * size_of::<i16>()
            + self.flow.floats.capacity() * size_of::<f32>()
            + self.flow.floats_next.capacity() * size_of::<f32>()
            + self
                .skips
                .iter()
                .map(|s| s.capacity() * size_of::<f32>())
                .sum::<usize>()
            + self.keys.capacity() * size_of::<i32>()
            + self.act_keys.capacity() * size_of::<i32>()
            + self.tile.capacity() * size_of::<u16>()
            + self.tile_f.capacity() * size_of::<f32>()
    }

    /// Runs batched inference over `rows × features` row-major `inputs`,
    /// appending the `rows × output_features` logits to `out` (which is
    /// cleared first) and returning the number of rows executed.
    ///
    /// Outputs are bit-for-bit identical to calling
    /// [`CompiledModel::infer`] per row. The op loop executes the flow
    /// states the model fixed when it was built, so nothing about the
    /// model is checked per batch. The runner fully re-initialises its
    /// scratch state on entry, so a runner whose previous `run`
    /// panicked (possible only on a model that bypassed the analyzer)
    /// is safe to reuse.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when `inputs` is not a whole
    /// number of feature rows — the one thing outside the model.
    pub fn run(
        &mut self,
        model: &CompiledModel,
        inputs: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<usize> {
        let features = model.input_features();
        if features == 0 || !inputs.len().is_multiple_of(features) {
            return Err(ServeError::InvalidInput(format!(
                "{} values is not a whole number of {features}-feature rows",
                inputs.len()
            )));
        }
        let rows = inputs.len() / features;
        out.clear();
        if rows == 0 {
            return Ok(0);
        }
        let padded = pad_rows(rows);
        self.encode_batch(model, inputs, padded);
        self.exec_ops(model, 0..model.op_count(), padded);
        let exit = model.flow[model.op_count()];
        out.extend_from_slice(&self.flow.floats[..rows * exit.width]);
        Ok(rows)
    }

    /// Encodes a `padded`-row batch through the model's virtual input
    /// codebook into the arena buffer the first op reads — `quants` when
    /// it is an integer Madd op, whose level of each code the encoder
    /// then writes directly, `codes` otherwise. `inputs` may hold fewer than
    /// `padded` rows; pad rows keep zeros — code 0 is valid for every
    /// non-empty codebook and a zero operand for every Madd — and their
    /// results are computed but never copied out.
    pub(crate) fn encode_batch(&mut self, model: &CompiledModel, inputs: &[f32], padded: usize) {
        let program = &model.program;
        let features = program.input_features;
        let book = || program.virtual_encoder.slice(&program.floats);
        match model.madd_levels(0) {
            None => {
                let codes = &mut self.flow.codes;
                refill(codes, padded * features);
                match &model.input_enc {
                    InputEncoder::Thresholds(thr) => nearest_thresholded_block(thr, inputs, codes),
                    InputEncoder::Keys(keys) => {
                        nearest_sorted_block(book(), keys, inputs, codes, |i| i as u16);
                    }
                }
            }
            Some(xq) => {
                let quants = &mut self.flow.quants;
                refill(quants, padded * features);
                match &model.input_enc {
                    InputEncoder::Thresholds(thr) => {
                        nearest_thresholded_levels(thr, xq, inputs, quants);
                    }
                    InputEncoder::Keys(keys) => {
                        nearest_sorted_block(book(), keys, inputs, quants, |i| xq[i]);
                    }
                }
            }
        }
    }

    /// Takes the current flow out of the arena as an owned buffer for a
    /// cross-stage handoff (the arena keeps its other scratch; the next
    /// [`run_segment`](Self::run_segment) swaps an incoming buffer back
    /// in).
    pub(crate) fn take_flow(&mut self, domain: Domain) -> FlowData {
        match domain {
            Domain::Codes => FlowData::Codes(std::mem::take(&mut self.flow.codes)),
            Domain::Quants => FlowData::Quants(std::mem::take(&mut self.flow.quants)),
            Domain::Floats => FlowData::Floats(std::mem::take(&mut self.flow.floats)),
        }
    }

    /// Runs the contiguous op range of one pipeline stage: installs the
    /// handed-off `data` as the current flow of its domain — the
    /// model's flow state at `range.start` — and executes `range`. The
    /// result stays in the arena: a stage that forwards it takes it out
    /// ([`take_flow`](Self::take_flow)), the last one copies its rows
    /// out of [`floats`](Self::floats) and keeps the buffer.
    ///
    /// The planner never cuts a residual region, so the concatenation
    /// of all stages' `run_segment` calls performs exactly the op
    /// sequence (and arithmetic order) of an uncut [`run`](Self::run),
    /// and outputs are bit-identical.
    pub(crate) fn run_segment(
        &mut self,
        model: &CompiledModel,
        range: std::ops::Range<usize>,
        data: FlowData,
        padded: usize,
    ) {
        match data {
            FlowData::Codes(v) => self.flow.codes = v,
            FlowData::Quants(v) => self.flow.quants = v,
            FlowData::Floats(v) => self.flow.floats = v,
        }
        self.exec_ops(model, range, padded);
    }

    /// The current decoded flow (`padded × width`, row-major).
    pub(crate) fn floats(&self) -> &[f32] {
        &self.flow.floats
    }

    /// Executes the ops in `range` (global op indices) over the current
    /// arena flow. This is the op loop shared by the whole-model
    /// [`run`](Self::run) (`0..ops.len()`) and the pipeline stages (one
    /// contiguous sub-range each).
    ///
    /// Op `oi` reads the model's `flow[oi]` and writes the scratch
    /// buffer of the domain `flow[oi + 1]` names, which the loop then
    /// makes the current flow. Kernels and flow states are looked up by
    /// *global* op index, so a stage executes exactly what the
    /// unsharded run would.
    fn exec_ops(&mut self, model: &CompiledModel, range: std::ops::Range<usize>, padded: usize) {
        let BatchRunner {
            flow,
            skips,
            keys,
            act_keys,
            tile,
            tile_f,
        } = self;
        let program = &model.program;
        let pool_f: &[f32] = &program.floats;
        // Residual nesting is stage-local: the planner only cuts at
        // depth 0, so every range starts and ends outside all regions.
        let mut skip_depth = 0usize;

        for oi in range {
            let op = &program.ops[oi];
            let (at, next) = (model.flow[oi], model.flow[oi + 1].domain);
            // An op that hands encoded values to an integer Madd op
            // writes that op's operand for each code, not the code.
            let levels = model.madd_levels(oi + 1);
            match op {
                Op::Dense {
                    inputs: nin,
                    outputs,
                    weight_codes,
                    bias,
                    table,
                    act,
                    encoder,
                } => {
                    let (nin, nout) = (*nin, *outputs);
                    let mul = match &model.kernels[oi] {
                        // Analyzer-licensed ops run the integer path on
                        // tiles materialized once at load time; the
                        // activation + re-encode are baked into the
                        // finish's runs, so the op is one pass.
                        Kernel::Madd(q) => {
                            debug_assert_eq!((q.nin, q.nout), (nin, nout));
                            quant_dense(q, flow, padded);
                            flow.advance(next);
                            continue;
                        }
                        Kernel::Mul(mul) => Some(mul),
                        Kernel::Table => None,
                    };
                    let codes = &flow.codes;
                    let floats_next = &mut flow.floats_next;
                    let wcodes = weight_codes.slice(&program.codes);
                    let b = bias.slice(pool_f);
                    refill(floats_next, padded * nout);
                    let mut r0 = 0usize;
                    while r0 + LANES <= padded {
                        let xblock = &codes[r0 * nin..(r0 + LANES) * nin];
                        let dst = &mut floats_next[r0 * nout..(r0 + LANES) * nout];
                        match mul {
                            Some(mul) => {
                                interleave_decode(xblock, nin, mul.book.slice(pool_f), tile_f);
                                dense_mul_block(&mul.weights, b, tile_f, dst, nout);
                            }
                            None => {
                                interleave(xblock, nin, tile);
                                dense_block_gather(pool_f, table, wcodes, b, dst, nout, tile);
                            }
                        }
                        r0 += LANES;
                    }
                    for r in r0..padded {
                        dense_row(
                            pool_f,
                            table,
                            wcodes,
                            b,
                            &codes[r * nin..(r + 1) * nin],
                            &mut floats_next[r * nout..(r + 1) * nout],
                        );
                    }
                    finish_neuron(pool_f, act, encoder, levels, flow, keys, act_keys);
                }
                Op::Conv {
                    geom: g,
                    out_channels,
                    weight_codes,
                    bias,
                    tables,
                    zero_code,
                    act,
                    encoder,
                } => {
                    let codes = &flow.codes;
                    let floats_next = &mut flow.floats_next;
                    let wcodes = weight_codes.slice(&program.codes);
                    let b = bias.slice(pool_f);
                    let in_vol = g.in_volume();
                    let nout = out_channels * g.out_pixels();
                    refill(floats_next, padded * nout);
                    let mut r0 = 0usize;
                    while r0 + LANES <= padded {
                        conv_block(
                            pool_f,
                            g,
                            *out_channels,
                            wcodes,
                            b,
                            tables,
                            *zero_code,
                            &codes[r0 * in_vol..(r0 + LANES) * in_vol],
                            &mut floats_next[r0 * nout..(r0 + LANES) * nout],
                            in_vol,
                            nout,
                            tile,
                        );
                        r0 += LANES;
                    }
                    for r in r0..padded {
                        conv_row(
                            pool_f,
                            g,
                            *out_channels,
                            wcodes,
                            b,
                            tables,
                            *zero_code,
                            &codes[r * in_vol..(r + 1) * in_vol],
                            &mut floats_next[r * nout..(r + 1) * nout],
                        );
                    }
                    finish_neuron(pool_f, act, encoder, levels, flow, keys, act_keys);
                }
                Op::MaxPool(g) => {
                    let (same, max) = (|c: u16| c, |a: u16, b: u16| a.max(b));
                    // A pool reads codes whenever it reads encoded values:
                    // only an integer Madd op reads `Quants`.
                    match (at.domain, levels) {
                        (Domain::Floats, _) => {
                            let (src, dst) = (&flow.floats, &mut flow.floats_next);
                            pool_rows(g, src, dst, padded, |v| v, f32::max, |v| v);
                        }
                        (_, None) => {
                            let (src, dst) = (&flow.codes, &mut flow.codes_next);
                            pool_rows(g, src, dst, padded, same, max, same);
                        }
                        (_, Some(xq)) => {
                            let (src, dst) = (&flow.codes, &mut flow.quants_next);
                            pool_rows(g, src, dst, padded, same, max, |c| level_of(xq, c));
                        }
                    }
                }
                Op::AvgPool { geom: g, codebook } => {
                    let window = (g.kernel_h * g.kernel_w) as f32;
                    let sum = |a: f32, b: f32| a + b;
                    if at.domain == Domain::Floats {
                        let (src, dst) = (&flow.floats, &mut flow.floats_next);
                        pool_rows(g, src, dst, padded, |v| v, sum, |s| s / window);
                    } else {
                        // Fused decode + average + re-encode: codebook
                        // values are gathered straight out of the window
                        // (the sum order of decoding the sample first).
                        let book = codebook.slice(pool_f);
                        load_keys(keys, book);
                        let encode = |s: f32| nearest_sorted(book, keys, s / window);
                        let decode = |c: u16| book[c as usize];
                        let src = &flow.codes;
                        match levels {
                            None => {
                                let dst = &mut flow.codes_next;
                                pool_rows(g, src, dst, padded, decode, sum, encode);
                            }
                            Some(xq) => {
                                let dst = &mut flow.quants_next;
                                pool_rows(g, src, dst, padded, decode, sum, |s| {
                                    level_of(xq, encode(s))
                                });
                            }
                        }
                    }
                }
                Op::ResidualBegin { skip_codebook } => {
                    let book = skip_codebook.slice(pool_f);
                    if skips.len() == skip_depth {
                        skips.push(Vec::new());
                    }
                    let buf = &mut skips[skip_depth];
                    buf.clear();
                    let src = &flow.codes[..padded * at.width];
                    buf.extend(src.iter().map(|&c| book[c as usize]));
                    skip_depth += 1;
                    // The codes pass through to the region's first op;
                    // an integer Madd op there reads them as operands.
                    if let Some(xq) = levels {
                        flow.quants.clear();
                        flow.quants.extend(src.iter().map(|&c| level_of(xq, c)));
                    }
                    continue;
                }
                Op::ResidualEnd { encoder } => {
                    skip_depth -= 1;
                    let skip = &skips[skip_depth];
                    let n = padded * at.width;
                    let joined = &flow.floats;
                    match encoder {
                        Some(enc) => {
                            let book = enc.slice(pool_f);
                            load_keys(keys, book);
                            emit_encoded(
                                levels,
                                &mut flow.codes_next,
                                &mut flow.quants_next,
                                n,
                                |i| nearest_sorted(book, keys, joined[i] + skip[i]),
                            );
                        }
                        None => {
                            let dst = &mut flow.floats_next;
                            refill(dst, n);
                            for i in 0..n {
                                dst[i] = joined[i] + skip[i];
                            }
                        }
                    }
                }
            }
            flow.advance(next);
        }
    }
}

/// Rows the kernels actually execute for a `rows`-sample batch: padded
/// to a whole number of [`LANES`]-row blocks so the final partial block
/// runs through the block kernels instead of the serial row path. Pad
/// rows carry code 0 and are computed but never copied out. Small
/// batches stay unpadded: below a block the serial path is cheaper.
pub(crate) fn pad_rows(rows: usize) -> usize {
    if rows >= LANES {
        rows.next_multiple_of(LANES)
    } else {
        rows
    }
}

/// Scratch-arena high-water marks for one model (see [`plan`]).
#[derive(Default)]
struct Plan {
    /// Widest flow the op program reaches in each domain — a model
    /// whose whole program runs in one encoded domain reserves nothing
    /// for the other. `max_floats` also covers the raw accumulators an
    /// f32 neuron op stages before it re-encodes.
    max_codes: usize,
    max_quants: usize,
    max_floats: usize,
    /// Deepest residual nesting, and the widest flow snapshotted.
    skip_depth: usize,
    max_skip: usize,
    /// Widest input any op interleaves into a [`LANES`]-row code tile
    /// (f32 gathers, convolutions), and into a decoded tile (the f32
    /// multiply kernel).
    max_tile: usize,
    max_tile_f: usize,
    /// Largest codebook encoded through.
    max_book: usize,
    /// Largest activation lookup table applied.
    max_act: usize,
}

/// Collects the scratch arena's high-water marks from the model's flow
/// states, the program's residual depths ([`Program::flow`]) and each
/// op's kernel.
///
/// No op reserves anything for its weights — codes, decoded matrix
/// and integer tiles all live in the model — so the arena is flow
/// buffers plus one block tile and does not grow with the code pool.
/// Quantized models reserve less still: an analyzer-licensed dense op
/// writes its finish straight into the next op's flow buffer, so it
/// contributes no tile, activation-key, encode-book or accumulator
/// capacity — nothing at all, reading its rows from the flow in place.
fn plan(model: &CompiledModel) -> Plan {
    let mut p = Plan::default();
    fn span_len(enc: &Option<Span>) -> usize {
        enc.as_ref().map_or(0, |e| e.len)
    }
    fn act_len(act: &Act) -> usize {
        match act {
            Act::Lookup { inputs, .. } => inputs.len,
            _ => 0,
        }
    }
    let program = &model.program;
    for at in &model.flow {
        let max = match at.domain {
            Domain::Codes => &mut p.max_codes,
            Domain::Quants => &mut p.max_quants,
            Domain::Floats => &mut p.max_floats,
        };
        *max = (*max).max(at.width);
    }
    p.skip_depth = program.flow().iter().map(|at| at.depth).max().unwrap_or(0);
    let flow = &model.flow;
    for ((op, kernel), at) in program.ops.iter().zip(&model.kernels).zip(flow.windows(2)) {
        // `at[0]` is what the op reads, `at[1]` what it leaves.
        let (reads, nout) = (at[0].width, at[1].width);
        match op {
            Op::Dense { encoder, act, .. } | Op::Conv { encoder, act, .. } => {
                // A block is interleaved for the kernel the op holds; a
                // licensed op reads its rows from the flow in place and
                // its weights from tiles materialized at load.
                let tile = match kernel {
                    Kernel::Madd(_) => continue,
                    Kernel::Mul(_) => &mut p.max_tile_f,
                    Kernel::Table => &mut p.max_tile,
                };
                *tile = (*tile).max(reads);
                p.max_floats = p.max_floats.max(nout);
                p.max_book = p.max_book.max(span_len(encoder));
                p.max_act = p.max_act.max(act_len(act));
            }
            Op::MaxPool(_) => {}
            Op::AvgPool { codebook, .. } => p.max_book = p.max_book.max(codebook.len),
            Op::ResidualBegin { .. } => p.max_skip = p.max_skip.max(reads),
            Op::ResidualEnd { encoder } => p.max_book = p.max_book.max(span_len(encoder)),
        }
    }
    p
}

/// Dense table gather over one [`LANES`]-row block: for each output
/// neuron, [`LANES`] accumulators live in a local array while the weight
/// loop runs innermost, so the block's add chains are independent and
/// the current table row is shared by all lanes. The block's codes come
/// transposed into the interleaved `tile` ([`interleave`]: feature-major,
/// lane-minor), so the hot loop reads one contiguous `LANES`-code group
/// per weight — `chunks_exact` makes the lane indices provably in-bounds.
#[inline]
fn dense_block_gather(
    pool_f: &[f32],
    table: &TableRef,
    wcodes: &[u16],
    bias: &[f32],
    dst: &mut [f32],
    nout: usize,
    tile: &[u16],
) {
    let nin = tile.len() / LANES;
    // Output neurons go in groups of OBLOCK sharing one pass over the
    // block's codes: each lane's load feeds OBLOCK accumulator blocks,
    // dividing the per-product bookkeeping. Each accumulator still sums
    // its weights in ascending order, so per-output results are
    // unchanged.
    let mut o = 0usize;
    while o + OBLOCK <= nout {
        let w0 = &wcodes[o * nin..(o + 1) * nin];
        let w1 = &wcodes[(o + 1) * nin..(o + 2) * nin];
        let mut acc0 = [bias[o]; LANES];
        let mut acc1 = [bias[o + 1]; LANES];
        for ((xs, &wa), &wb) in tile.chunks_exact(LANES).zip(w0).zip(w1) {
            let ta = table.row(pool_f, usize::from(wa));
            let tb = table.row(pool_f, usize::from(wb));
            // Fold the lane group into two words so the eight code
            // loads become two 64-bit loads plus shifts, easing the
            // pressure on the load ports (the loop's throughput limit).
            let lo = u64::from(xs[0])
                | u64::from(xs[1]) << 16
                | u64::from(xs[2]) << 32
                | u64::from(xs[3]) << 48;
            let hi = u64::from(xs[4])
                | u64::from(xs[5]) << 16
                | u64::from(xs[6]) << 32
                | u64::from(xs[7]) << 48;
            for l in 0..LANES {
                let word = if l < 4 { lo } else { hi };
                let x = (word >> (16 * (l & 3))) as u16 as usize;
                acc0[l] += ta[x];
                acc1[l] += tb[x];
            }
        }
        for l in 0..LANES {
            dst[l * nout + o] = acc0[l];
            dst[l * nout + o + 1] = acc1[l];
        }
        o += OBLOCK;
    }
    while o < nout {
        let wrow = &wcodes[o * nin..(o + 1) * nin];
        let mut acc = [bias[o]; LANES];
        for (xs, &w) in tile.chunks_exact(LANES).zip(wrow) {
            let trow = table.row(pool_f, usize::from(w));
            for (l, a) in acc.iter_mut().enumerate() {
                *a += trow[xs[l] as usize];
            }
        }
        for (l, &a) in acc.iter().enumerate() {
            dst[l * nout + o] = a;
        }
        o += 1;
    }
}

/// Transposes a row-major `LANES`-row block of codes into the
/// interleaved tile layout `tile[i * LANES + l] = block[l * width + i]`,
/// putting all lanes of one feature side by side.
fn interleave(xblock: &[u16], width: usize, tile: &mut Vec<u16>) {
    refill(tile, width * LANES);
    for (l, xrow) in xblock.chunks_exact(width).enumerate() {
        for (i, &x) in xrow.iter().enumerate() {
            tile[i * LANES + l] = x;
        }
    }
}

/// A dense op lowered to the `f32` multiply kernel: its table is
/// `fl(w · book[x])` ([`factor_table`] verified every product a weight
/// code can select, bitwise), so `weights[j] * book[x]` is the entry
/// the gather would have loaded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseMul {
    /// Codebook the op's input codes decode through.
    pub(crate) book: Span,
    /// The decoded `outputs × inputs` weight matrix [`dense_mul_block`]
    /// streams through: each weight code's recovered factor.
    pub(crate) weights: Vec<f32>,
}

/// The kernel one op runs on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    /// The op as the program states it: the table gather for a dense or
    /// conv op, the step itself for a pool or a residual op.
    Table,
    /// A dense op whose table factors: the `f32` multiply.
    Mul(DenseMul),
    /// An analyzer-licensed dense op: the `i16` multiply-accumulate,
    /// materialized by [`CompiledModel::quantize`].
    Madd(QuantOp),
}

/// Lowers every op of a gated program to its `f32` kernel: the
/// multiply for a dense op whose table factors over the codebook its
/// input is encoded through ([`Program::flow`]), the table for every
/// other op.
pub(crate) fn lower(program: &Program<'_>) -> Vec<Kernel> {
    let lower = |(op, at): (&Op, &Boundary)| match (op, at.book) {
        (
            Op::Dense {
                weight_codes,
                table,
                ..
            },
            Some(book),
        ) => {
            let wcodes = weight_codes.slice(&program.codes);
            let factors = factor_table(&program.floats, table, book.slice(&program.floats), wcodes);
            factors.map_or(Kernel::Table, |factors| {
                let weights = wcodes.iter().map(|&w| factors[usize::from(w)]).collect();
                Kernel::Mul(DenseMul { book, weights })
            })
        }
        _ => Kernel::Table,
    };
    program.ops.iter().zip(&program.flow()).map(lower).collect()
}

/// [`interleave`] fused with a codebook decode, producing the `f32`
/// tile the factored dense path multiplies against:
/// `tile_f[i * LANES + l] = book[block[l * width + i]]`. The block was
/// encoded through `book`, so the analyzer's code-domain proof covers
/// the index.
fn interleave_decode(xblock: &[u16], width: usize, book: &[f32], tile_f: &mut Vec<f32>) {
    refill(tile_f, width * LANES);
    for (l, xrow) in xblock.chunks_exact(width).enumerate() {
        for (i, &x) in xrow.iter().enumerate() {
            tile_f[i * LANES + l] = book[usize::from(x)];
        }
    }
}

/// Multiply-accumulate form of [`dense_block_gather`] for factored
/// tables: `acc += w · x` on the decoded weight matrix and tile. Every
/// product is bitwise equal to the table entry the gather would have
/// loaded (see [`DenseMul`]) and each accumulator
/// still sums its weights in ascending order, so results are unchanged
/// — but the inner loop is a pure mul-add stream the compiler turns
/// into packed vector arithmetic, with no loads serialised behind
/// gathered indices.
fn dense_mul_block(wdec: &[f32], bias: &[f32], tile_f: &[f32], dst: &mut [f32], nout: usize) {
    let nin = tile_f.len() / LANES;
    let mut o = 0usize;
    while o + OBLOCK <= nout {
        let w0 = &wdec[o * nin..(o + 1) * nin];
        let w1 = &wdec[(o + 1) * nin..(o + 2) * nin];
        let mut acc0 = [bias[o]; LANES];
        let mut acc1 = [bias[o + 1]; LANES];
        for ((xs, &wa), &wb) in tile_f.chunks_exact(LANES).zip(w0).zip(w1) {
            for l in 0..LANES {
                acc0[l] += wa * xs[l];
                acc1[l] += wb * xs[l];
            }
        }
        for l in 0..LANES {
            dst[l * nout + o] = acc0[l];
            dst[l * nout + o + 1] = acc1[l];
        }
        o += OBLOCK;
    }
    while o < nout {
        let wrow = &wdec[o * nin..(o + 1) * nin];
        let mut acc = [bias[o]; LANES];
        for (xs, &wa) in tile_f.chunks_exact(LANES).zip(wrow) {
            for (l, a) in acc.iter_mut().enumerate() {
                *a += wa * xs[l];
            }
        }
        for (l, &a) in acc.iter().enumerate() {
            dst[l * nout + o] = a;
        }
        o += 1;
    }
}

/// Dense over a single row: the serial per-sample chain, used for
/// `rows == 1` and the tail of a batch that doesn't fill a block.
fn dense_row(
    pool_f: &[f32],
    table: &TableRef,
    wcodes: &[u16],
    bias: &[f32],
    xrow: &[u16],
    dst: &mut [f32],
) {
    let nin = xrow.len();
    for (o, d) in dst.iter_mut().enumerate() {
        let wrow = &wcodes[o * nin..(o + 1) * nin];
        let mut acc = bias[o];
        for (&w, &x) in wrow.iter().zip(xrow) {
            acc += table.fetch(pool_f, usize::from(w), usize::from(x));
        }
        *d = acc;
    }
}

/// Runs one analyzer-licensed dense op over the padded batch: runs
/// [`quant_dense_exec`] with the finish the plan baked — dequantize,
/// dequantize + ReLU, or the output of the accumulator's run
/// ([`run_of`]), already what the next op reads — into the scratch
/// buffer of that domain.
fn quant_dense(q: &QuantOp, flow: &mut Flow, padded: usize) {
    let quants = &flow.quants;
    match &q.finish {
        QuantFinish::Dequant { inv } => {
            let (dst, inv) = (&mut flow.floats_next, *inv);
            quant_dense_exec(q, quants, dst, padded, move |a| a as f32 * inv);
        }
        QuantFinish::DequantRelu { inv } => {
            let (dst, inv) = (&mut flow.floats_next, *inv);
            quant_dense_exec(q, quants, dst, padded, move |a| (a as f32 * inv).max(0.0));
        }
        QuantFinish::Runs { edges, out } => {
            let run = |a| run_of(edges, a);
            match out {
                LutOut::Codes(o) => {
                    quant_dense_exec(q, quants, &mut flow.codes_next, padded, |a| o[run(a)]);
                }
                LutOut::Quants(o) => {
                    quant_dense_exec(q, quants, &mut flow.quants_next, padded, |a| o[run(a)]);
                }
                LutOut::Floats(o) => {
                    quant_dense_exec(q, quants, &mut flow.floats_next, padded, |a| o[run(a)]);
                }
            }
        }
    }
}

/// The integer dense op proper: accumulates every (row, output) in
/// `i32` and writes `finish(acc)` — branch-free dequantize or the
/// output of its run — into `dst`, resized to the batch, reading its
/// operand rows from `quants` in place.
///
/// `i32` addition is associative and exact inside the plan's `2^30`
/// budget, so tiles, single rows and any lane grouping produce the same
/// accumulator, and the batch path stays bit-for-bit identical to
/// per-sample execution — the property the f32 kernels only get by
/// fixing the summation order.
fn quant_dense_exec<T: Copy + Default>(
    q: &QuantOp,
    quants: &[i16],
    dst: &mut Vec<T>,
    padded: usize,
    finish: impl Fn(i32) -> T + Copy,
) {
    let (nin, nout) = (q.nin, q.nout);
    refill(dst, padded * nout);
    // One kernel at two heights: whole tiles of `TILE_ROWS`, then the
    // same code one row at a time for what is left (only batches below
    // `LANES` leave any).
    let mut r0 = 0usize;
    while r0 + TILE_ROWS <= padded {
        let xs = &quants[r0 * nin..(r0 + TILE_ROWS) * nin];
        let dst = &mut dst[r0 * nout..(r0 + TILE_ROWS) * nout];
        madd_tile::<TILE_ROWS, _>(&q.weights, &q.bias_q, xs, dst, nout, finish);
        r0 += TILE_ROWS;
    }
    for r in r0..padded {
        let xs = &quants[r * nin..(r + 1) * nin];
        let dst = &mut dst[r * nout..(r + 1) * nout];
        madd_tile::<1, _>(&q.weights, &q.bias_q, xs, dst, nout, finish);
    }
}

/// Edges a finish compares an accumulator against in one step.
pub(crate) const EDGE_LANES: usize = 8;

/// The run of a finish `acc` lies in: how many run `edges` are at or
/// below it, counted a whole lane group at a time without a branch, as
/// `rapidnn_core::nearest` counts keys below a probe. Total over `i32`:
/// below the first edge is the first run, past the last the last.
#[inline]
pub(crate) fn run_of(edges: &[[i32; EDGE_LANES]], acc: i32) -> usize {
    let mut below = [0u32; EDGE_LANES];
    for group in edges {
        for (b, &e) in below.iter_mut().zip(group) {
            *b += u32::from(e <= acc);
        }
    }
    below.iter().sum::<u32>() as usize
}

/// Integer Madd over a register-blocked tile of `R` operand rows (`xs`,
/// `R × nin`, read where they lie in the flow): output neurons go two at a time, and for each pair one
/// sweep over `nin` in 8-lane steps keeps `R × 2` vector accumulators
/// live, so a weight vector is loaded once per `R` rows and the lanes
/// are folded once per (row, output). Weights stay in their row-major
/// `nout × nin` layout; an odd last output takes the same sweep alone.
fn madd_tile<const R: usize, T: Copy>(
    weights: &[i16],
    bias_q: &[i32],
    xs: &[i16],
    dst: &mut [T],
    nout: usize,
    finish: impl Fn(i32) -> T,
) {
    let nin = xs.len() / R;
    let xs: [&[i16]; R] = std::array::from_fn(|r| &xs[r * nin..(r + 1) * nin]);
    let mut o = 0usize;
    while o + OBLOCK <= nout {
        madd_outputs::<R, OBLOCK, _>(weights, bias_q, &xs, dst, nout, o, &finish);
        o += OBLOCK;
    }
    if o < nout {
        madd_outputs::<R, 1, _>(weights, bias_q, &xs, dst, nout, o, &finish);
    }
}

/// Outputs `o..o + O` of [`madd_tile`] for all `R` rows.
///
/// A single product cannot overflow `i32`, and the quant plan proved
/// the sum of absolute products — over the *full* input code domain,
/// rounding slack included — stays within the `2^30` accumulator
/// budget, so every lane and partial sum is exact in any association
/// and all groupings produce the same bits. The lanes wrap silently
/// where a wrong license would overflow, so debug builds recompute
/// each sum in `i64` and compare.
#[inline(always)]
fn madd_outputs<const R: usize, const O: usize, T: Copy>(
    weights: &[i16],
    bias_q: &[i32],
    xs: &[&[i16]; R],
    dst: &mut [T],
    nout: usize,
    o: usize,
    finish: &impl Fn(i32) -> T,
) {
    let nin = xs[0].len();
    let ws: [&[i16]; O] = std::array::from_fn(|j| &weights[(o + j) * nin..(o + j + 1) * nin]);
    let wv: [&[[i16; 8]]; O] = std::array::from_fn(|j| ws[j].as_chunks().0);
    let xv: [&[[i16; 8]]; R] = std::array::from_fn(|r| xs[r].as_chunks().0);
    let steps = nin / 8;
    let mut acc = [[Acc::zero(); O]; R];
    for k in 0..steps {
        for r in 0..R {
            for j in 0..O {
                acc[r][j].madd(&wv[j][k], &xv[r][k]);
            }
        }
    }
    for r in 0..R {
        for j in 0..O {
            let mut sum = bias_q[o + j] + acc[r][j].sum();
            for i in steps * 8..nin {
                sum += i32::from(ws[j][i]) * i32::from(xs[r][i]);
            }
            debug_assert_eq!(
                i64::from(sum),
                ws[j]
                    .iter()
                    .zip(xs[r])
                    .fold(i64::from(bias_q[o + j]), |s, (&w, &x)| {
                        s + i64::from(w) * i64::from(x)
                    }),
                "i32 tile sum differs from the exact i64 sum: the op's license does not hold"
            );
            dst[r * nout + o + j] = finish(sum);
        }
    }
}

/// Convolution over one [`LANES`]-row block, mirroring [`dense_block_gather`]:
/// per output pixel, the tap loop runs innermost over a register block
/// of accumulators reading contiguous lane groups from the interleaved
/// tile; padding taps add the same product to every lane.
#[allow(clippy::too_many_arguments)]
fn conv_block(
    pool_f: &[f32],
    g: &Geom,
    out_channels: usize,
    wcodes: &[u16],
    bias: &[f32],
    tables: &[TableRef],
    zero_code: u16,
    xblock: &[u16],
    dst: &mut [f32],
    in_vol: usize,
    nout: usize,
    tile: &mut Vec<u16>,
) {
    interleave(xblock, in_vol, tile);
    let patch_len = g.patch_len();
    for oc in 0..out_channels {
        let wrow = &wcodes[oc * patch_len..(oc + 1) * patch_len];
        conv_channel_block(
            pool_f,
            g,
            &tables[oc],
            wrow,
            bias[oc],
            zero_code,
            tile,
            dst,
            nout,
            oc,
        );
    }
}

/// Tap loop of [`conv_block`] for one output channel.
#[allow(clippy::too_many_arguments)]
#[inline]
fn conv_channel_block(
    pool_f: &[f32],
    g: &Geom,
    table: &TableRef,
    wrow: &[u16],
    bias: f32,
    zero_code: u16,
    tile: &[u16],
    dst: &mut [f32],
    nout: usize,
    oc: usize,
) {
    let pixels = g.out_pixels();
    let (c, h, w) = (g.in_channels, g.in_height, g.in_width);
    for oy in 0..g.out_height {
        for ox in 0..g.out_width {
            let mut acc = [bias; LANES];
            let mut k = 0usize;
            for ic in 0..c {
                for kh in 0..g.kernel_h {
                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                    for kw in 0..g.kernel_w {
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        let trow = table.row(pool_f, usize::from(wrow[k]));
                        k += 1;
                        if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            let src = ic * h * w + iy as usize * w + ix as usize;
                            let xs: &[u16; LANES] = tile[src * LANES..(src + 1) * LANES]
                                .try_into()
                                .expect("lane group");
                            for (l, a) in acc.iter_mut().enumerate() {
                                *a += trow[xs[l] as usize];
                            }
                        } else {
                            let pad_v = trow[zero_code as usize];
                            for a in acc.iter_mut() {
                                *a += pad_v;
                            }
                        }
                    }
                }
            }
            let pixel = oc * pixels + oy * g.out_width + ox;
            for (l, &a) in acc.iter().enumerate() {
                dst[l * nout + pixel] = a;
            }
        }
    }
}

/// Convolution over a single row (`rows == 1` and block tails).
#[allow(clippy::too_many_arguments)]
fn conv_row(
    pool_f: &[f32],
    g: &Geom,
    out_channels: usize,
    wcodes: &[u16],
    bias: &[f32],
    tables: &[TableRef],
    zero_code: u16,
    xrow: &[u16],
    dst: &mut [f32],
) {
    let patch_len = g.patch_len();
    let pixels = g.out_pixels();
    let (c, h, w) = (g.in_channels, g.in_height, g.in_width);
    for oc in 0..out_channels {
        let table = &tables[oc];
        let wrow = &wcodes[oc * patch_len..(oc + 1) * patch_len];
        for oy in 0..g.out_height {
            for ox in 0..g.out_width {
                let mut acc = bias[oc];
                let mut k = 0usize;
                for ic in 0..c {
                    for kh in 0..g.kernel_h {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        for kw in 0..g.kernel_w {
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            let xcode =
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    xrow[ic * h * w + iy as usize * w + ix as usize]
                                } else {
                                    zero_code
                                };
                            acc += table.fetch(pool_f, usize::from(wrow[k]), usize::from(xcode));
                            k += 1;
                        }
                    }
                }
                dst[oc * pixels + oy * g.out_width + ox] = acc;
            }
        }
    }
}

/// Applies the activation to the raw accumulators in `floats_next` and
/// leaves them in the scratch buffer of the next flow domain, mirroring
/// the per-sample finish-neuron step: activate every value, then encode
/// through the stage encoder if one is present ([`emit_encoded`]).
///
/// A `Lookup` activation is a nearest-input search over a sorted LUT —
/// the same shape as an encode step — so its total-order keys are
/// cached once per op and every value goes through the branch-free
/// [`nearest_index`] instead of [`apply_act`]'s binary search. The
/// LUT's inputs are strictly increasing (built sorted and deduplicated),
/// so both searches pick the same index bit-for-bit.
fn finish_neuron(
    pool_f: &[f32],
    act: &Act,
    encoder: &Option<Span>,
    levels: Option<&[i16]>,
    flow: &mut Flow,
    keys: &mut Vec<i32>,
    act_keys: &mut Vec<i32>,
) {
    let lut = match act {
        Act::Lookup { inputs, outputs } => {
            let xs = inputs.slice(pool_f);
            load_keys(act_keys, xs);
            Some((xs, outputs.slice(pool_f)))
        }
        _ => None,
    };
    let act_keys: &[i32] = act_keys;
    let apply = |y: f32| match lut {
        Some((xs, ys)) => ys[nearest_index(xs, act_keys, y)],
        None => apply_act(act, pool_f, y),
    };
    match encoder {
        Some(enc) => {
            let book = enc.slice(pool_f);
            load_keys(keys, book);
            let raw = &flow.floats_next;
            emit_encoded(
                levels,
                &mut flow.codes_next,
                &mut flow.quants_next,
                raw.len(),
                |i| nearest_sorted(book, keys, apply(raw[i])),
            );
        }
        None => {
            for y in flow.floats_next.iter_mut() {
                *y = apply(*y);
            }
        }
    }
}

/// Fills the scratch buffer the next op reads with `n` freshly encoded
/// values: the codes themselves, or — handed the `levels` of an integer
/// Madd op — that op's operand for each code.
fn emit_encoded(
    levels: Option<&[i16]>,
    codes_next: &mut Vec<u16>,
    quants_next: &mut Vec<i16>,
    n: usize,
    code_at: impl Fn(usize) -> u16,
) {
    match levels {
        None => {
            codes_next.clear();
            codes_next.extend((0..n).map(code_at));
        }
        Some(xq) => {
            quants_next.clear();
            quants_next.extend((0..n).map(|i| level_of(xq, code_at(i))));
        }
    }
}

/// Windowed reduction of one sample in the same iteration order as the
/// per-sample pool (channel, output row, output column, kernel row,
/// kernel column): every element goes through `load`, the accumulator
/// starts at the window's first element, `combine` folds the rest in
/// visit order and `finish` maps the result to what is stored.
fn pool_into<S: Copy, A, T>(
    g: &Geom,
    src: &[S],
    dst: &mut [T],
    load: impl Fn(S) -> A,
    combine: impl Fn(A, A) -> A,
    finish: impl Fn(A) -> T,
) {
    let (c, h, w) = (g.in_channels, g.in_height, g.in_width);
    let mut i = 0usize;
    for ch in 0..c {
        let base = ch * h * w;
        for oy in 0..g.out_height {
            for ox in 0..g.out_width {
                let mut acc = load(src[base + oy * g.stride * w + ox * g.stride]);
                for kh in 0..g.kernel_h {
                    for kw in 0..g.kernel_w {
                        if kh == 0 && kw == 0 {
                            continue;
                        }
                        acc = combine(
                            acc,
                            load(src[base + (oy * g.stride + kh) * w + ox * g.stride + kw]),
                        );
                    }
                }
                dst[i] = finish(acc);
                i += 1;
            }
        }
    }
}

/// [`pool_into`] over every row of the padded batch, into `dst` resized
/// to fit.
fn pool_rows<S: Copy, A, T: Copy + Default>(
    g: &Geom,
    src: &[S],
    dst: &mut Vec<T>,
    padded: usize,
    load: impl Fn(S) -> A + Copy,
    combine: impl Fn(A, A) -> A + Copy,
    finish: impl Fn(A) -> T + Copy,
) {
    let (in_vol, out_w) = (g.in_volume(), g.in_channels * g.out_pixels());
    refill(dst, padded * out_w);
    for r in 0..padded {
        let (src, dst) = (
            &src[r * in_vol..(r + 1) * in_vol],
            &mut dst[r * out_w..(r + 1) * out_w],
        );
        pool_into(g, src, dst, load, combine, finish);
    }
}

/// Resets `buf` to `len` default-filled elements, reusing its capacity:
/// no allocation happens once capacity has reached the high-water mark.
fn refill<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.resize(len, T::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::nearest;
    use rapidnn_prop::{check, usize_in, SeededRng};

    /// The integer Madd op — tiles, single rows, 8-lane body, scalar
    /// tails, odd last output, every finish — reading operand rows in
    /// place equals the two-step reference: each code through `xq`,
    /// then a plain `i64` dot product put through the same finish (a
    /// run found by a linear scan of its edges), at every row count
    /// around the tile and block sizes and every `nin`/`nout` remainder.
    #[test]
    fn madd_tile_matches_i64_reference_dot() {
        const BOOK: usize = 8;
        const RUNS: usize = 65;
        const KINDS: usize = 5;
        // A run every 2^24 from -2^29, and the run a linear scan finds.
        let flat: Vec<i32> = (1..RUNS as i32).map(|i| (i << 24) - (1 << 29)).collect();
        let edges = flat.as_chunks::<EDGE_LANES>().0.to_vec();
        let scan = |acc: i32| flat.iter().take_while(|&&e| e <= acc).count();
        let draw = |rng: &mut SeededRng, mag: usize| rng.index(2 * mag + 1) as i32 - mag as i32;
        check(4, |rng| {
            let mut kind = usize_in(rng, 0, KINDS);
            let mut flow = Flow::default();
            for nin in [1usize, 7, 8, 9, 24, 100, 784] {
                // Largest operands that keep every |sum| inside 2^30.
                let mag = (((1u64 << 29) / nin as u64).isqrt() as usize).min(i16::MAX as usize);
                for nout in [1usize, 2, 3, 10, 32] {
                    let xq: Vec<i16> = (0..BOOK).map(|_| draw(rng, mag) as i16).collect();
                    let weights: Vec<i16> =
                        (0..nout * nin).map(|_| draw(rng, mag) as i16).collect();
                    let bias_q: Vec<i32> = (0..nout).map(|_| draw(rng, 1 << 20)).collect();
                    for rows in 1..=19usize {
                        let inv = 1.0 / 4096.0;
                        kind = (kind + 1) % KINDS;
                        let runs = |out| QuantFinish::Runs {
                            edges: edges.clone(),
                            out,
                        };
                        let finish = match kind {
                            0 => QuantFinish::Dequant { inv },
                            1 => QuantFinish::DequantRelu { inv },
                            2 => runs(LutOut::Codes(
                                (0..RUNS).map(|i| (i * 7 % BOOK) as u16).collect(),
                            )),
                            3 => runs(LutOut::Quants(
                                (0..RUNS).map(|i| (i * 523 % 4001) as i16 - 2000).collect(),
                            )),
                            _ => runs(LutOut::Floats(
                                (0..RUNS).map(|i| i as f32 * 0.37 - 9.0).collect(),
                            )),
                        };
                        let q = QuantOp {
                            nin,
                            nout,
                            weights: weights.clone(),
                            xq: xq.clone(),
                            bias_q: bias_q.clone(),
                            finish,
                        };
                        let input: Vec<u16> =
                            (0..rows * nin).map(|_| rng.index(BOOK) as u16).collect();
                        flow.quants.clear();
                        flow.quants.extend(input.iter().map(|&c| level_of(&xq, c)));
                        quant_dense(&q, &mut flow, rows);
                        for r in 0..rows {
                            for o in 0..nout {
                                let w = &weights[o * nin..(o + 1) * nin];
                                let x = &input[r * nin..(r + 1) * nin];
                                let dot =
                                    w.iter().zip(x).fold(i64::from(bias_q[o]), |s, (&w, &x)| {
                                        s + i64::from(w) * i64::from(xq[x as usize])
                                    });
                                let acc = i32::try_from(dot).expect("inside the budget");
                                let at = r * nout + o;
                                let ctx = format!("rows={rows} nin={nin} nout={nout} r={r} o={o}");
                                let run = scan(acc);
                                let float = |want: f32| {
                                    let got = flow.floats_next[at];
                                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                                };
                                match &q.finish {
                                    QuantFinish::Dequant { inv } => float(acc as f32 * inv),
                                    QuantFinish::DequantRelu { inv } => {
                                        float((acc as f32 * inv).max(0.0));
                                    }
                                    QuantFinish::Runs { out, .. } => match out {
                                        LutOut::Codes(t) => {
                                            assert_eq!(flow.codes_next[at], t[run], "{ctx}");
                                        }
                                        LutOut::Quants(t) => {
                                            assert_eq!(flow.quants_next[at], t[run], "{ctx}");
                                        }
                                        LutOut::Floats(t) => float(t[run]),
                                    },
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    /// One op, one kernel, read off its table: in a mixed plan the
    /// licensed ops hold integer tiles and no `f32` matrix, the op too
    /// wide for `i16` keeps the multiply its table factors into, and
    /// the op whose table does not factor holds nothing — it gathers.
    /// Block batches (multiply, block gather, 4-row tiles) equal the
    /// one-row kernels (row gather, 1-row tiles) bit for bit.
    #[test]
    fn each_dense_op_serves_on_the_kernel_its_table_allows() {
        let (refused, gathered) = (1, 3);
        let model = CompiledModel::deep_mixed_for_tests(5, refused, gathered);
        for (oi, kernel) in model.kernels.iter().enumerate() {
            let held = match kernel {
                Kernel::Madd(_) => "madd",
                Kernel::Mul(_) => "mul",
                Kernel::Table => "table",
            };
            let expected = if oi == refused {
                "mul"
            } else if oi == gathered {
                "table"
            } else {
                "madd"
            };
            assert_eq!(held, expected, "op {oi}");
        }
        let mut runner = BatchRunner::new();
        let (mut block, mut row) = (Vec::new(), Vec::new());
        for rows in [8usize, 64] {
            let inputs: Vec<f32> = (0..rows * 4).map(|i| (i as f32 * 0.37).sin()).collect();
            runner.run(&model, &inputs, &mut block).unwrap();
            for (r, sample) in inputs.chunks(4).enumerate() {
                runner.run(&model, sample, &mut row).unwrap();
                let got = &block[r * 4..(r + 1) * 4];
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&row), "row {r} of {rows}");
            }
        }
    }

    /// The branch-free search must agree with the reference binary
    /// search on every probe, including exact hits, ties, boundary
    /// clamps, signed zeros and NaN.
    #[test]
    fn nearest_sorted_matches_reference() {
        let books: &[&[f32]] = &[
            &[0.0],
            &[-1.0, 1.0],
            &[-2.0, -0.5, 0.0, 0.25, 3.0],
            &[f32::NEG_INFINITY, -1.0, 0.0, f32::INFINITY],
        ];
        let mut probes: Vec<f32> = vec![
            f32::NEG_INFINITY,
            -3.0,
            -1.0,
            -0.75,
            -0.25,
            -0.0,
            0.0,
            0.125,
            0.25,
            1.0,
            2.0,
            3.0,
            10.0,
            f32::INFINITY,
            f32::NAN,
        ];
        for i in -40..=40 {
            probes.push(i as f32 * 0.11);
        }
        for book in books {
            let mut keys = Vec::new();
            load_keys(&mut keys, book);
            for &p in &probes {
                assert_eq!(
                    usize::from(nearest_sorted(book, &keys, p)),
                    nearest(book, p),
                    "book {book:?} probe {p}"
                );
            }
        }
    }
}
