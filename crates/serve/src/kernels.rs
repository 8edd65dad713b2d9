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
//! decoded (`f32`). A dense op and a conv are one kind of op here, a
//! neuron over a receptive field ([`Neuron`]): a dense op's window is
//! 1×1 over its inputs, so its one output position per row is the row.
//! A neuron op that multiplies runs [`dense_block`] over blocks of
//! [`LANES`] output positions — rows of a dense op, (row, pixel) pairs
//! of a conv — whose decoded patches lie in one tap-major tile
//! ([`row_blocks`], [`patches`]), then one lane per position left over.
//! A block's accumulators live in a local array (registers) and the tap
//! loop runs innermost, so the serial `acc += w * x` chain of
//! single-sample inference becomes [`LANES`] independent chains the CPU
//! overlaps (a one-row conv fills them with pixels), and one weight row
//! serves the whole block while its patches stay L1-resident. An op
//! whose tables do not factor gathers one position at a time
//! ([`lone`]), indexing its table with the code as it is: the analyzer
//! proved every code in range, and the slice bounds check turns a hole
//! in that proof into a panic the engine's workers contain
//! (`ServeError::WorkerPanic`), never UB.
//!
//! Pools and residual joins run as plain batched loops. Every
//! activation lookup and re-encode is the op's tabulated [`Finish`],
//! built with the model: a count of run edges per value ([`run_of`]),
//! written in the domain the next op reads.
//!
//! # One kernel per op, chosen once
//!
//! The model holds one [`Kernel`] per op; the batch loop derives
//! nothing the model fixes. An op the analyzer licensed
//! ([`CompiledModel::quantize`]) runs the one integer kernel, the
//! `i16 × i16 → i32` multiply-accumulate tile ([`madd_tile`]). Every
//! other neuron op runs in `f32`, on one kernel at every batch size:
//! the multiply when each of its tables factors back into
//! `fl(w · book[x])`, as every table the composer builds does ([`lower`]
//! decodes its weight matrix when the model is assembled), else the
//! table gather over its weight codes in the model's pool (an op
//! refused as `FallbackReason::NotFactored` serves here). Every other
//! op is its pool or residual step.
//!
//! The executor — input encoder, op loop and every kernel — runs on the
//! lane body [`lanes::run`] picks for the CPU; on an AVX2 CPU the
//! encoder, the integer kernels and the `f32` neuron blocks are
//! compiled at that width (see [`crate::lanes`]), with the same bits.
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
//! independent, every accumulation happens in the per-sample order and
//! every finish tabulates the scalar lookup and search exactly.
//! Batching only reorders work *across* samples.

use crate::artifact::{apply_act, CompiledModel, InputEncoder};
use crate::error::{Result, ServeError};
use crate::finish::{run_of, Finish, LutOut};
use crate::lanes::{self, Acc, LaneWork};
use crate::quant::{level_of, QuantOp};
use rapidnn_analyze::{factor_table, Act, Boundary, Geom, Neuron, Op, Program, Span};
use rapidnn_core::nearest::{
    nearest_sorted_block, nearest_thresholded_block, nearest_thresholded_levels, total_key,
};
use std::ops::Mul;

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
/// it is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowState {
    /// Current flow domain.
    pub(crate) domain: Domain,
    /// Values per row.
    pub(crate) width: usize,
}

/// Owned batch buffer handed from an engine's admission to a worker:
/// the request's rows, encoded into the first op's domain. It is
/// swapped into the worker's arena, so a lone request moves one
/// allocation instead of copying `rows × width` values; only admission
/// allocates (one encoded buffer per request).
#[derive(Debug)]
pub(crate) enum FlowData {
    /// Encoded flow (`padded × width` codes, row-major).
    Codes(Vec<u16>),
    /// Quantized flow (`padded × width` Madd operands, row-major).
    Quants(Vec<i16>),
}

impl FlowData {
    /// Refills this buffer with the first `n` values of each `(job, n)`
    /// in turn, all in this buffer's domain, then zeros it out to `len`:
    /// several encoded jobs gathered into one batch, pad rows zero.
    pub(crate) fn gather<'a>(&mut self, jobs: impl Iterator<Item = (&'a Self, usize)>, len: usize) {
        use FlowData::{Codes, Quants};
        match self {
            Codes(v) => v.clear(),
            Quants(v) => v.clear(),
        }
        for (job, n) in jobs {
            match (&mut *self, job) {
                (Codes(v), Codes(p)) => v.extend_from_slice(&p[..n]),
                (Quants(v), Quants(p)) => v.extend_from_slice(&p[..n]),
                _ => unreachable!("a batch's jobs share the first op's domain"),
            }
        }
        match self {
            Codes(v) => v.resize(len, 0),
            Quants(v) => v.resize(len, 0),
        }
    }
}

/// Output positions per register-resident accumulator block of a
/// neuron op. The constant bound lets the compiler unroll the lane
/// loop completely and keep the whole block in registers.
const LANES: usize = 8;

/// Output neurons processed per pass over a dense block: one code load
/// feeds this many accumulator blocks.
///
/// 8 lanes by 2 outputs measured fastest: fewer lanes starve the
/// floating-point add chains, more outputs spill the register file.
const OBLOCK: usize = 2;

/// Rows per tile of the integer Madd kernel ([`madd_tile`]): with
/// [`OBLOCK`] outputs that is eight vector accumulators, which with the
/// two weight vectors and a row vector still fits the sixteen vector
/// registers, `xmm` or `ymm`. Divides [`LANES`], so a padded batch is
/// whole tiles.
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
    /// One patch of codes, for the table gather ([`lone`]).
    tile: Vec<u16>,
    /// Decoded lane-group tile for the f32 multiply: a block of rows
    /// transposed plus a conv's patch ([`row_blocks`]), or a smaller
    /// batch's patches ([`patches`]).
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
        self.tile.reserve(plan.max_tile);
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
        lanes::run(Exec(self, model, Some(inputs), true, padded));
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
        lanes::run(Exec(self, model, Some(inputs), false, padded));
    }

    /// [`encode_batch`](Self::encode_batch) inside the executor's frame.
    #[inline(always)]
    fn encode(&mut self, model: &CompiledModel, inputs: &[f32], padded: usize) {
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

    /// Takes the current flow out of the arena as an owned buffer — what
    /// admission hands a worker after [`encode_batch`](Self::encode_batch)
    /// (the arena keeps its other scratch; [`run_admitted`](Self::run_admitted)
    /// swaps a buffer back in). `domain` is the first op's: the program
    /// starts at the virtual encoder, so it is `Quants` when that op
    /// runs the integer Madd kernel and `Codes` otherwise.
    pub(crate) fn take_flow(&mut self, domain: Domain) -> FlowData {
        if domain == Domain::Quants {
            FlowData::Quants(std::mem::take(&mut self.flow.quants))
        } else {
            FlowData::Codes(std::mem::take(&mut self.flow.codes))
        }
    }

    /// Runs the op program over admitted rows: installs `data` as the
    /// current flow of its domain — the model's flow state at op 0 —
    /// and executes every op. The result stays in the arena; the caller
    /// copies its rows out of [`floats`](Self::floats). Bit-identical to
    /// [`run`](Self::run) on the rows `data` encodes.
    pub(crate) fn run_admitted(&mut self, model: &CompiledModel, data: FlowData, padded: usize) {
        match data {
            FlowData::Codes(v) => self.flow.codes = v,
            FlowData::Quants(v) => self.flow.quants = v,
        }
        lanes::run(Exec(self, model, None, true, padded));
    }

    /// The current decoded flow (`padded × width`, row-major).
    pub(crate) fn floats(&self) -> &[f32] {
        &self.flow.floats
    }

    /// Executes the op program over the current arena flow: the op loop
    /// shared by [`run`](Self::run) and [`run_admitted`](Self::run_admitted).
    ///
    /// Op `oi` reads the model's `flow[oi]` and writes the scratch
    /// buffer of the domain `flow[oi + 1]` names, which the loop then
    /// makes the current flow.
    #[inline(always)]
    fn exec_ops<A: Acc>(&mut self, model: &CompiledModel, padded: usize) {
        let BatchRunner {
            flow,
            skips,
            tile,
            tile_f,
        } = self;
        let program = &model.program;
        let pool_f: &[f32] = &program.floats;
        // The program starts and ends outside every residual region.
        let mut skip_depth = 0usize;

        for (oi, op) in program.ops.iter().enumerate() {
            let (at, next) = (model.flow[oi], model.flow[oi + 1].domain);
            // A max pool or a region's entry that hands codes to an
            // integer Madd op writes that op's operand for each code.
            let levels = model.madd_levels(oi + 1);
            let finish = model.finishes[oi].as_ref();
            match op {
                Op::Dense { .. } | Op::Conv { .. } => {
                    let n = op.neuron().expect("dense and conv ops are neurons");
                    let relu = matches!(n.act, Act::Relu);
                    let mul = match &model.kernels[oi] {
                        // Analyzer-licensed ops run the integer path on
                        // tiles materialized once at load time; the
                        // activation + re-encode are the finish's runs
                        // on the accumulator, so the op is one pass.
                        Kernel::Madd(q) => {
                            quant_dense::<A>(q, finish, relu, flow, padded);
                            flow.advance(next);
                            continue;
                        }
                        Kernel::Mul(mul) => Some(mul),
                        Kernel::Table => None,
                    };
                    neuron_rows(pool_f, &program.codes, &n, mul, flow, tile, tile_f, padded);
                    match finish {
                        Some(f) => refinish(f, relu, flow),
                        // Identity or ReLU with nothing after it.
                        None => (flow.floats_next.iter_mut())
                            .for_each(|y| *y = apply_act(n.act, pool_f, *y)),
                    }
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
                    let (sum, mean) = (|a: f32, b: f32| a + b, |s: f32| s / window);
                    let dst = &mut flow.floats_next;
                    match finish {
                        None => pool_rows(g, &flow.floats, dst, padded, |v| v, sum, mean),
                        // Decoded straight out of the window (the sum order
                        // of decoding the sample first), then re-encoded.
                        Some(f) => {
                            let book = codebook.slice(pool_f);
                            let decode = |c: u16| book[c as usize];
                            pool_rows(g, &flow.codes, dst, padded, decode, sum, mean);
                            refinish(f, false, flow);
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
                Op::ResidualEnd { .. } => {
                    skip_depth -= 1;
                    let skip = &skips[skip_depth];
                    let n = padded * at.width;
                    let joined = &flow.floats;
                    match finish {
                        Some(f) => flow.finish(f, n, |joined, i| joined[i] + skip[i]),
                        None => fill(&mut flow.floats_next, n, |i| joined[i] + skip[i]),
                    }
                }
            }
            flow.advance(next);
        }
    }
}

/// The batch executor's one entry, run by [`lanes::run`] on the lane
/// body this CPU executes: encodes the inputs, when given, into the
/// runner's flow, then, when asked, runs the op program over it, for
/// `padded` rows.
struct Exec<'a>(
    &'a mut BatchRunner,
    &'a CompiledModel,
    Option<&'a [f32]>,
    bool,
    usize,
);

impl LaneWork for Exec<'_> {
    type Out = ();

    #[inline(always)]
    fn run<A: Acc>(self) {
        let Exec(runner, model, inputs, ops, padded) = self;
        if let Some(inputs) = inputs {
            runner.encode(model, inputs, padded);
        }
        if ops {
            runner.exec_ops::<A>(model, padded);
        }
    }
}

/// Rows the kernels actually execute for a `rows`-sample batch: padded
/// to a whole number of [`LANES`]-row blocks so the final partial block
/// runs through the block kernels instead of the one-lane path. Pad
/// rows carry code 0 and are computed but never copied out. Small
/// batches stay unpadded: below a block the one-lane path is cheaper.
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
    /// Longest patch of codes a table gather copies out ([`lone`]).
    max_tile: usize,
    /// Most [`LANES`]-lane groups the f32 multiply's decoded tile holds:
    /// a block of rows transposed plus a conv's patch, which also covers
    /// the patches a smaller batch takes.
    max_tile_f: usize,
}

/// Collects the scratch arena's high-water marks from the model's flow
/// states, the program's residual depths ([`Program::flow`]) and each
/// op's kernel.
///
/// No op reserves anything for its weights — codes, decoded matrix
/// and integer tiles all live in the model — so the arena is flow
/// buffers plus one block tile and one patch, and does not grow with
/// the code pool.
/// Quantized models reserve less still: an analyzer-licensed dense op
/// writes its finish straight into the next op's flow buffer, so it
/// contributes no tile or accumulator capacity — nothing at all,
/// reading its rows from the flow in place. A finish's runs live in
/// the model.
fn plan(model: &CompiledModel) -> Plan {
    let mut p = Plan::default();
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
            Op::Dense { .. } | Op::Conv { .. } => {
                let n = op.neuron().expect("dense and conv ops are neurons");
                // The multiply's rows decoded and transposed, plus a
                // conv's patch; the gather's one patch; a licensed op
                // reads its rows in place, its weights from its tiles.
                let (g, patch_len) = (&n.window, n.window.patch_len());
                let groups = g.in_volume() + if covers_input(g) { 0 } else { patch_len };
                match kernel {
                    Kernel::Madd(_) => continue,
                    Kernel::Mul(_) => p.max_tile_f = p.max_tile_f.max(groups),
                    Kernel::Table => p.max_tile = p.max_tile.max(patch_len),
                }
                p.max_floats = p.max_floats.max(nout);
            }
            // The averages of a pool over codes, before its re-encode.
            Op::AvgPool { .. } => p.max_floats = p.max_floats.max(nout),
            Op::ResidualBegin { .. } => p.max_skip = p.max_skip.max(reads),
            Op::MaxPool(_) | Op::ResidualEnd { .. } => {}
        }
    }
    p
}

/// One neuron op's raw accumulators over the padded batch, into the
/// flow's `floats_next`, on the kernel the op holds. The multiply makes
/// every output position — a row of a dense op, a (row, pixel) pair of
/// a conv — one lane of [`dense_block`]: [`LANES`] rows at one pixel in
/// a batch of whole blocks ([`row_blocks`]), else positions pixel-major
/// (a one-row conv fills its blocks with pixels, [`patches`]) and one
/// lane per position left over. An op whose tables do not factor
/// gathers one position's patch at a time ([`lone`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn neuron_rows(
    pool_f: &[f32],
    pool_c: &[u16],
    n: &Neuron<'_>,
    mul: Option<&DenseMul>,
    flow: &mut Flow,
    tile: &mut Vec<u16>,
    tile_f: &mut Vec<f32>,
    padded: usize,
) {
    let (codes, dst) = (&flow.codes, &mut flow.floats_next);
    let (g, b, z) = (&n.window, n.bias.slice(pool_f), n.zero_code);
    let (pixels, patch_len, in_vol) = (g.out_pixels(), g.patch_len(), g.in_volume());
    let nout = n.channels * pixels;
    refill(dst, padded * nout);
    let positions = padded * pixels;
    let at = |q: usize| (q % padded) * nout + q / padded;
    if let Some(mul) = mul {
        let book = mul.book.slice(pool_f);
        let decode = |x: u16| book[usize::from(x)];
        let ws = &mul.weights[..];
        if padded >= LANES {
            row_blocks(g, &codes[..padded * in_vol], z, tile_f, decode, ws, b, dst);
            return;
        }
        let blocks = positions - positions % LANES;
        refill(tile_f, patch_len * if blocks > 0 { LANES } else { 1 });
        for q in (0..blocks).step_by(LANES) {
            patches::<LANES, _>(g, codes, z, padded, q, tile_f, decode);
            let (xs, lanes) = (
                tile_f.as_chunks::<LANES>().0,
                std::array::from_fn(|l| at(q + l)),
            );
            dense_block(ws, b, xs, dst, lanes, pixels, |_| f32::mul);
        }
        for q in blocks..positions {
            let xs = &mut tile_f[..patch_len];
            patches::<1, _>(g, codes, z, padded, q, xs, decode);
            dense_block(ws, b, xs.as_chunks().0, dst, [at(q)], pixels, |_| f32::mul);
        }
        return;
    }
    let wcodes = n.weight_codes.slice(pool_c);
    refill(tile, patch_len);
    for q in 0..positions {
        patches::<1, _>(g, codes, z, padded, q, tile, |x| x);
        lone(pool_f, n, wcodes, tile, dst, at(q));
    }
}

/// [`dense_block`] at one lane over a position's patch of input codes,
/// each product fetched from the op's table in the pool. Kept out of
/// the executor's frame: inlined there, the one-lane loop reloaded its
/// pointers from the stack on every tap (a one-row 784 → 512 op on a
/// 2-core AVX2 Xeon: 420 µs against 340).
#[inline(never)]
fn lone(pool_f: &[f32], n: &Neuron<'_>, wcodes: &[u16], xs: &[u16], dst: &mut [f32], at: usize) {
    let (b, stride) = (n.bias.slice(pool_f), n.window.out_pixels());
    let gather = |o| {
        let t = n.table(o);
        move |w: u16, x: u16| t.fetch(pool_f, usize::from(w), usize::from(x))
    };
    dense_block(wcodes, b, xs.as_chunks().0, dst, [at], stride, gather);
}

/// Whether the window is the whole input, so its one patch is the row.
fn covers_input(g: &Geom) -> bool {
    (g.kernel_h, g.kernel_w, g.pad) == (g.in_height, g.in_width, 0)
}

/// The multiply over a batch of whole [`LANES`]-row groups, [`LANES`]
/// rows at one pixel: per group, its rows decoded and transposed into
/// the head of `tile`, one lane group per input — which is the patch of
/// a window that covers the input — then per pixel each tap's lane
/// group copied into the patch in the tail, a tap in the padding
/// reading `zero`, and [`dense_block`] run over each patch.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_blocks(
    g: &Geom,
    codes: &[u16],
    zero: u16,
    tile: &mut Vec<f32>,
    decode: impl Fn(u16) -> f32,
    weights: &[f32],
    bias: &[f32],
    dst: &mut [f32],
) {
    let (in_vol, pixels, whole) = (g.in_volume(), g.out_pixels(), covers_input(g));
    let nout = bias.len() * pixels;
    let groups = in_vol + if whole { 0 } else { g.patch_len() };
    refill(tile, groups * LANES);
    let (rows, patch) = tile.as_chunks_mut::<LANES>().0.split_at_mut(in_vol);
    let pad = [decode(zero); LANES];
    for (gi, group) in codes.chunks_exact(LANES * in_vol).enumerate() {
        for (l, xrow) in group.chunks_exact(in_vol).enumerate() {
            for (lanes, &x) in rows.iter_mut().zip(xrow) {
                lanes[l] = decode(x);
            }
        }
        let at = |p| std::array::from_fn(|l| (gi * LANES + l) * nout + p);
        if whole {
            dense_block(weights, bias, rows, dst, at(0), pixels, |_| f32::mul);
            continue;
        }
        for p in 0..pixels {
            taps(g, p, |k, i| patch[k] = i.map_or(pad, |i| rows[i]));
            dense_block(weights, bias, patch, dst, at(p), pixels, |_| f32::mul);
        }
    }
}

/// Gathers the patches of the `L` positions from `q` on of a batch of
/// `rows` rows, taken pixel-major (position `q` is row `q % rows` at
/// pixel `q / rows`), into `tile` through `map`, tap-major:
/// `tile[k * L + l]` is tap `k` of lane `l`, where a tap in the padding
/// reads `zero`.
#[inline(always)]
fn patches<const L: usize, T>(
    g: &Geom,
    codes: &[u16],
    zero: u16,
    rows: usize,
    q: usize,
    tile: &mut [T],
    map: impl Fn(u16) -> T,
) {
    let in_vol = g.in_volume();
    for l in 0..L {
        let (p, r) = ((q + l) / rows, (q + l) % rows);
        let xrow = &codes[r * in_vol..(r + 1) * in_vol];
        let tap = |at: Option<usize>| map(at.map_or(zero, |i| xrow[i]));
        taps(g, p, |k, at| tile[k * L + l] = tap(at));
    }
}

/// Visits the taps of the window at output pixel `p` in patch order
/// (input channel, kernel row, kernel column): `visit(k, at)` with the
/// tap's index in the patch and its offset in the input volume, `None`
/// when it falls in the padding.
#[inline(always)]
fn taps(g: &Geom, p: usize, mut visit: impl FnMut(usize, Option<usize>)) {
    let (oy, ox) = (p / g.out_width, p % g.out_width);
    let (h, w) = (g.in_height, g.in_width);
    let mut k = 0usize;
    for ic in 0..g.in_channels {
        for kh in 0..g.kernel_h {
            // Above or left of the input wraps past its extent.
            let iy = (oy * g.stride + kh).wrapping_sub(g.pad);
            for kw in 0..g.kernel_w {
                let ix = (ox * g.stride + kw).wrapping_sub(g.pad);
                visit(k, (iy < h && ix < w).then(|| (ic * h + iy) * w + ix));
                k += 1;
            }
        }
    }
}

/// One block of `L` output positions of a neuron op, read from a
/// tap-major `tile` ([`patches`]: one `L`-lane group per tap). For each
/// output channel `o`, `L` accumulators start at its bias and add
/// `row(o)(w, x)`, the product of weight `w` and a lane's input `x`,
/// over its weights in ascending order — the order per-sample inference
/// adds in — and lane `l`'s sum lands at `dst[at[l] + o * stride]`. They
/// live in a local array while the weight loop runs innermost, so the
/// block's add chains are independent and one weight serves every
/// lane; [`OBLOCK`] outputs share each pass over the tile, an odd last
/// output takes it alone. `row(o)` is the multiply by a decoded weight
/// ([`DenseMul`]) — a pure mul-add stream the compiler turns into packed
/// arithmetic — or, at one lane, channel `o`'s table gather ([`lone`]).
#[inline(always)]
fn dense_block<const L: usize, W: Copy, X: Copy, F: Fn(W, X) -> f32>(
    weights: &[W],
    bias: &[f32],
    tile: &[[X; L]],
    dst: &mut [f32],
    at: [usize; L],
    stride: usize,
    row: impl Fn(usize) -> F,
) {
    let (nin, nout) = (tile.len(), bias.len());
    let mut o = 0usize;
    while o + OBLOCK <= nout {
        let (ra, rb) = (row(o), row(o + 1));
        let w0 = &weights[o * nin..(o + 1) * nin];
        let w1 = &weights[(o + 1) * nin..(o + 2) * nin];
        let mut acc0 = [bias[o]; L];
        let mut acc1 = [bias[o + 1]; L];
        for ((xs, &wa), &wb) in tile.iter().zip(w0).zip(w1) {
            for l in 0..L {
                acc0[l] += ra(wa, xs[l]);
                acc1[l] += rb(wb, xs[l]);
            }
        }
        for l in 0..L {
            dst[at[l] + o * stride] = acc0[l];
            dst[at[l] + (o + 1) * stride] = acc1[l];
        }
        o += OBLOCK;
    }
    while o < nout {
        let r = row(o);
        let mut acc = [bias[o]; L];
        for (xs, &w) in tile.iter().zip(&weights[o * nin..(o + 1) * nin]) {
            for (a, &x) in acc.iter_mut().zip(xs) {
                *a += r(w, x);
            }
        }
        for (l, &a) in acc.iter().enumerate() {
            dst[at[l] + o * stride] = a;
        }
        o += 1;
    }
}

/// A neuron op lowered to the `f32` multiply kernel: each of its tables
/// is `fl(w · book[x])` ([`factor_table`] verified every product a
/// weight code can select, bitwise), so `weights[j] * book[x]` is the
/// entry the gather would have loaded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseMul {
    /// Codebook the op's input codes decode through.
    pub(crate) book: Span,
    /// The decoded `channels × patch_len` weight matrix [`dense_block`]
    /// streams through: each weight code's recovered factor.
    pub(crate) weights: Vec<f32>,
}

/// The kernel one op runs on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    /// The op as the program states it: the table gather for a dense or
    /// conv op, the step itself for a pool or a residual op.
    Table,
    /// A neuron op whose every table factors: the `f32` multiply.
    Mul(DenseMul),
    /// An analyzer-licensed dense op: the `i16` multiply-accumulate,
    /// materialized by [`CompiledModel::quantize`].
    Madd(QuantOp),
}

/// Lowers every op of a gated program to its `f32` kernel: the
/// multiply for a neuron op whose every table factors over the codebook
/// its input is encoded through ([`Program::flow`]), the table for
/// every other op.
pub(crate) fn lower(program: &Program<'_>) -> Vec<Kernel> {
    let (pool, codes) = (&program.floats[..], &program.codes[..]);
    let lower = |(op, at): (&Op, &Boundary)| {
        let (Some(n), Some(book)) = (op.neuron(), at.book) else {
            return Kernel::Table;
        };
        let wcodes = n.weight_codes.slice(codes);
        let mut weights = Vec::with_capacity(wcodes.len());
        let readers = wcodes.chunks(n.group * n.window.patch_len());
        for (table, wcodes) in n.tables.iter().zip(readers) {
            let Some(factors) = factor_table(pool, table, book.slice(pool), wcodes) else {
                return Kernel::Table;
            };
            weights.extend(wcodes.iter().map(|&w| factors[usize::from(w)]));
        }
        Kernel::Mul(DenseMul { book, weights })
    };
    program.ops.iter().zip(&program.flow()).map(lower).collect()
}

/// Runs one analyzer-licensed dense op over the padded batch: runs
/// [`madd_rows`] with its finish — the output of the accumulator's run
/// in its tabulated `finish` ([`run_of`]), already what the next op
/// reads, else dequantize (+ ReLU when `relu`) — into the scratch
/// buffer of that domain.
#[inline(always)]
fn quant_dense<A: Acc>(
    q: &QuantOp,
    finish: Option<&Finish>,
    relu: bool,
    flow: &mut Flow,
    padded: usize,
) {
    let (xs, inv) = (&flow.quants, q.inv);
    let Some(Finish { edges, out }) = finish else {
        let dst = &mut flow.floats_next;
        return match relu {
            true => madd_rows::<A, _>(q, xs, dst, padded, move |a| (a as f32 * inv).max(0.0)),
            false => madd_rows::<A, _>(q, xs, dst, padded, move |a| a as f32 * inv),
        };
    };
    let run = |a| run_of(edges, a);
    match out {
        LutOut::Codes(o) => madd_rows::<A, _>(q, xs, &mut flow.codes_next, padded, |a| o[run(a)]),
        LutOut::Quants(o) => madd_rows::<A, _>(q, xs, &mut flow.quants_next, padded, |a| o[run(a)]),
        LutOut::Floats(o) => madd_rows::<A, _>(q, xs, &mut flow.floats_next, padded, |a| o[run(a)]),
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
#[inline(always)]
fn madd_rows<A: Acc, T: Copy + Default>(
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
        madd_tile::<A, TILE_ROWS, _>(q, xs, dst, finish);
        r0 += TILE_ROWS;
    }
    for r in r0..padded {
        let xs = &quants[r * nin..(r + 1) * nin];
        let dst = &mut dst[r * nout..(r + 1) * nout];
        madd_tile::<A, 1, _>(q, xs, dst, finish);
    }
}

/// Integer Madd over a register-blocked tile of `R` operand rows (`xs`,
/// `R × nin`, read where they lie in the flow): output neurons go two
/// at a time, and for each pair one sweep over `nin` in 16-lane steps
/// ([`Acc::madd`]) keeps `R × 2` vector accumulators
/// live, so a weight vector is loaded once per `R` rows and the lanes
/// are folded once per (row, output). Weights stay in their row-major
/// `nout × nin` layout; an odd last output takes the same sweep alone.
#[inline(always)]
fn madd_tile<A: Acc, const R: usize, T: Copy>(
    q: &QuantOp,
    xs: &[i16],
    dst: &mut [T],
    finish: impl Fn(i32) -> T,
) {
    let (nin, nout) = (q.nin, q.nout);
    let xs: [&[i16]; R] = std::array::from_fn(|r| &xs[r * nin..(r + 1) * nin]);
    let mut o = 0usize;
    while o + OBLOCK <= nout {
        madd_outputs::<A, R, OBLOCK, _>(q, &xs, dst, o, &finish);
        o += OBLOCK;
    }
    if o < nout {
        madd_outputs::<A, R, 1, _>(q, &xs, dst, o, &finish);
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
fn madd_outputs<A: Acc, const R: usize, const O: usize, T: Copy>(
    q: &QuantOp,
    xs: &[&[i16]; R],
    dst: &mut [T],
    o: usize,
    finish: &impl Fn(i32) -> T,
) {
    let (nin, nout, weights, bias_q) = (q.nin, q.nout, &q.weights, &q.bias_q);
    let ws: [&[i16]; O] = std::array::from_fn(|j| &weights[(o + j) * nin..(o + j + 1) * nin]);
    let wv: [&[[i16; 16]]; O] = std::array::from_fn(|j| ws[j].as_chunks().0);
    let xv: [&[[i16; 16]]; R] = std::array::from_fn(|r| xs[r].as_chunks().0);
    let (steps, tail) = (nin / 16, nin % 16);
    let mut acc = [[A::zero(); O]; R];
    for k in 0..steps {
        for r in 0..R {
            for j in 0..O {
                acc[r][j].madd(&wv[j][k], &xv[r][k]);
            }
        }
    }
    // The last `tail` operands of a row with a whole step take one more,
    // over the row's last sixteen against the op's tails, zero where a
    // step already counted (summed scalar, a 64-row 24-wide deep-mlp op
    // took 16.6 µs against 12.0). A row shorter than one step is summed
    // scalar.
    if steps > 0 && tail > 0 {
        let tails = &q.tails[o..o + O];
        for (acc, xs) in acc.iter_mut().zip(xs) {
            let x = &xs[nin - 16..].as_chunks::<16>().0[0];
            for (acc, w) in acc.iter_mut().zip(tails) {
                acc.madd(w, x);
            }
        }
    }
    for r in 0..R {
        for j in 0..O {
            let mut sum = bias_q[o + j] + acc[r][j].sum();
            if steps == 0 {
                for (&w, &x) in ws[j].iter().zip(xs[r]) {
                    sum += i32::from(w) * i32::from(x);
                }
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

/// Makes the values an op staged in `floats_next` — raw accumulators,
/// a pool's averages — the flow's `floats` (dead: the op read codes),
/// then finishes each, after the ReLU when `relu` (as [`apply_act`]).
#[inline(always)]
fn refinish(f: &Finish, relu: bool, flow: &mut Flow) {
    std::mem::swap(&mut flow.floats, &mut flow.floats_next);
    let n = flow.floats.len();
    flow.finish(f, n, |v, i| if relu { v[i].max(0.0) } else { v[i] });
}

impl Flow {
    /// Writes the finish `f` of each of the `n` values `value(floats,
    /// i)` — its run found by its total-order key — into the scratch
    /// buffer of the finish's domain.
    #[inline(always)]
    fn finish(&mut self, f: &Finish, n: usize, value: impl Fn(&[f32], usize) -> f32) {
        let run = |i| run_of(&f.edges, total_key(value(&self.floats, i)));
        match &f.out {
            LutOut::Codes(o) => fill(&mut self.codes_next, n, |i| o[run(i)]),
            LutOut::Quants(o) => fill(&mut self.quants_next, n, |i| o[run(i)]),
            LutOut::Floats(o) => fill(&mut self.floats_next, n, |i| o[run(i)]),
        }
    }
}

/// Resets `buf` to `f(i)` for `i` in `0..n`, reusing its capacity.
fn fill<T>(buf: &mut Vec<T>, n: usize, f: impl Fn(usize) -> T) {
    buf.clear();
    buf.extend((0..n).map(f));
}

/// Windowed reduction of one sample in the same iteration order as the
/// per-sample pool (channel, output row, output column, kernel row,
/// kernel column): every element goes through `load`, the accumulator
/// starts at the window's first element, `combine` folds the rest in
/// visit order and `finish` maps the result to what is stored.
#[inline(always)]
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
#[inline(always)]
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
    use crate::finish::EDGE_LANES;
    use rapidnn_prop::{check, usize_in, SeededRng};

    /// [`quant_dense`] with its finish and ReLU flag over its own copy
    /// of the operand rows, on the lane body [`lanes::each_body`] hands
    /// it.
    struct Dense<'a>(&'a QuantOp, Option<&'a Finish>, bool, &'a [i16], usize);

    impl LaneWork for Dense<'_> {
        type Out = Flow;

        fn run<A: Acc>(self) -> Flow {
            let mut flow = Flow::default();
            flow.quants.extend_from_slice(self.3);
            quant_dense::<A>(self.0, self.1, self.2, &mut flow, self.4);
            flow
        }
    }

    /// The integer Madd op — tiles, single rows, 16-lane step, scalar
    /// tails, odd last output, every finish — reading operand rows in
    /// place equals the two-step reference: each code through `xq`,
    /// then a plain `i64` dot product put through the same finish (a
    /// run found by a linear scan of its edges), at every row count
    /// around the tile and block sizes, every `nin % 16` class around
    /// the step and every `nout` remainder, on each lane body the CPU
    /// executes.
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
            for nin in [1usize, 7, 8, 9, 15, 16, 17, 24, 33, 100, 784] {
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
                        let runs = |out| Finish {
                            edges: edges.clone(),
                            out,
                        };
                        let finish = match kind {
                            0 | 1 => None,
                            2 => Some(runs(LutOut::Codes(
                                (0..RUNS).map(|i| (i * 7 % BOOK) as u16).collect(),
                            ))),
                            3 => Some(runs(LutOut::Quants(
                                (0..RUNS).map(|i| (i * 523 % 4001) as i16 - 2000).collect(),
                            ))),
                            _ => Some(runs(LutOut::Floats(
                                (0..RUNS).map(|i| i as f32 * 0.37 - 9.0).collect(),
                            ))),
                        };
                        let (w, b) = (weights.clone(), bias_q.clone());
                        let q = QuantOp::new(nin, nout, w, xq.clone(), b, inv);
                        let input: Vec<u16> =
                            (0..rows * nin).map(|_| rng.index(BOOK) as u16).collect();
                        let quants: Vec<i16> = input.iter().map(|&c| level_of(&xq, c)).collect();
                        let relu = kind == 1;
                        let flows =
                            lanes::each_body(|| Dense(&q, finish.as_ref(), relu, &quants, rows));
                        for r in 0..rows {
                            for o in 0..nout {
                                let w = &weights[o * nin..(o + 1) * nin];
                                let x = &input[r * nin..(r + 1) * nin];
                                let dot =
                                    w.iter().zip(x).fold(i64::from(bias_q[o]), |s, (&w, &x)| {
                                        s + i64::from(w) * i64::from(xq[x as usize])
                                    });
                                let acc = i32::try_from(dot).expect("inside the budget");
                                let (at, run) = (r * nout + o, scan(acc));
                                for (body, flow) in flows.iter().enumerate() {
                                    let ctx = format!(
                                        "body={body} rows={rows} nin={nin} nout={nout} r={r} o={o}"
                                    );
                                    let float = |want: f32| {
                                        let got = flow.floats_next[at];
                                        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                                    };
                                    match &finish {
                                        None if relu => float((acc as f32 * inv).max(0.0)),
                                        None => float(acc as f32 * inv),
                                        Some(Finish { out, .. }) => match out {
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
            }
        });
    }

    /// The composed CNN [`nudged_cnn_for_tests`] nudges, as composed.
    fn small_cnn_for_tests() -> Program<'static> {
        use rapidnn_nn::{Activation, ActivationLayer, Conv2d, Dense, Network};
        use rapidnn_tensor::Padding::Same;
        let mut rng = SeededRng::new(5);
        let mut net = Network::new(3 * 4 * 4);
        net.push(Conv2d::new(3, 4, 4, 4, 3, 2, Same, &mut rng).unwrap());
        net.push(ActivationLayer::new(Activation::Relu));
        net.push(Conv2d::new(4, 2, 2, 3, 3, 1, Same, &mut rng).unwrap());
        net.push(ActivationLayer::new(Activation::Relu));
        net.push(Dense::new(3 * 2 * 2, 2, &mut rng));
        CompiledModel::composed_for_tests(net, 2, &mut rng)
    }

    /// A composed CNN (3×4×4 → conv 4 channels at stride 2 → conv 3
    /// channels → dense 2) whose convs leave four pixels each, so a
    /// one-row batch is all positions below a block; channel 1 of the
    /// second conv has one product nudged off `fl(w · x)`.
    fn nudged_cnn_for_tests() -> CompiledModel {
        let mut program = small_cnn_for_tests();
        let n = program.ops[1].neuron().expect("a conv");
        let (table, w) = (n.tables[1], n.weight_codes.start + n.window.patch_len());
        let at = table.offset + usize::from(program.codes[w]) * table.input_count;
        program.floats.to_mut()[at] += 0.001;
        CompiledModel::from_program(&program).expect("the nudged CNN analyzes clean")
    }

    /// One op, one kernel, read off its tables: in a mixed plan the
    /// licensed ops hold integer tiles and no `f32` matrix, the op too
    /// wide for `i16` keeps the multiply its table factors into, and
    /// the op whose table does not factor holds nothing — it gathers.
    /// A conv multiplies when each of its channel tables factors and
    /// gathers when one does not. Every batch equals its rows run singly,
    /// bit for bit: at four pixels a conv, 1 CNN row is one-lane
    /// positions only, 2 rows one pixel block, 3 and 7 rows blocks and a
    /// remainder, 8 or more rows blocks of rows (and 4-row int16 tiles).
    #[test]
    fn each_dense_op_serves_on_the_kernel_its_table_allows() {
        let (refused, gathered) = (1, 3);
        let deep = CompiledModel::deep_mixed_for_tests(5, refused, gathered);
        let deep_kernels = (0..5).map(|oi| {
            if oi == refused {
                "mul"
            } else if oi == gathered {
                "table"
            } else {
                "madd"
            }
        });
        let cnn = nudged_cnn_for_tests();
        let models = [
            (deep, deep_kernels.collect()),
            (cnn, vec!["mul", "table", "mul"]),
        ];
        for (model, expected) in &models {
            let held: Vec<&str> = model
                .kernels
                .iter()
                .map(|kernel| match kernel {
                    Kernel::Madd(_) => "madd",
                    Kernel::Mul(_) => "mul",
                    Kernel::Table => "table",
                })
                .collect();
            assert_eq!(&held, expected);
            let mut runner = BatchRunner::new();
            let (mut block, mut row) = (Vec::new(), Vec::new());
            let (nin, nout) = (model.input_features(), model.output_features());
            for rows in [1usize, 2, 3, 7, 8, 9, 64] {
                let inputs: Vec<f32> = (0..rows * nin).map(|i| (i as f32 * 0.37).sin()).collect();
                runner.run(model, &inputs, &mut block).unwrap();
                for (r, sample) in inputs.chunks(nin).enumerate() {
                    runner.run(model, sample, &mut row).unwrap();
                    let got = &block[r * nout..(r + 1) * nout];
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(&row), "row {r} of {rows}");
                }
            }
        }
    }

    /// The composer builds every product table as a weight centroid
    /// times an input centroid, so every dense and conv op of a composed
    /// model factors and multiplies: only a hand-nudged table gathers.
    #[test]
    fn no_composed_neuron_op_gathers() {
        use rapidnn_nn::{Activation::Sigmoid, ActivationLayer, Dense, Network};
        let (mut rng, mut net) = (SeededRng::new(9), Network::new(16));
        for (nin, nout) in [(16, 24), (24, 24), (24, 4)] {
            net.push(Dense::new(nin, nout, &mut rng));
            net.push(ActivationLayer::new(Sigmoid));
        }
        let mlp = CompiledModel::composed_for_tests(net, 4, &mut rng);
        let programs = [mlp, small_cnn_for_tests()];
        let composed = programs.map(|p| CompiledModel::from_program(&p).unwrap());
        let tiny = [1, 2, 3, 42, 43].map(CompiledModel::mnist_tiny_for_tests);
        for (mi, model) in tiny.into_iter().chain(composed).enumerate() {
            let mut ops = model.program.ops.iter().zip(&model.kernels);
            let gathers = ops.any(|(op, k)| op.neuron().is_some() && matches!(k, Kernel::Table));
            assert!(!gathers, "composed model {mi} gathers");
        }
    }
}
