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
//! An `f32` neuron op runs [`dense_block`] over blocks of [`LANES`]
//! output positions — rows of a dense op, (row, pixel) pairs of a conv —
//! whose decoded patches lie in one tap-major tile ([`row_blocks`],
//! [`patches`]), then one lane per position left over. A block's
//! accumulators live in a local array (registers) and the tap loop runs
//! innermost, so the serial `acc += w * x` chain of single-sample
//! inference becomes [`LANES`] independent chains the CPU overlaps (a
//! one-row conv fills them with pixels), and one weight row serves the
//! whole block while its patches stay L1-resident. Codes index their
//! books as they are: the analyzer proved every code in range, and the
//! slice bounds check turns a hole in that proof into a panic the
//! engine's workers contain (`ServeError::WorkerPanic`), never UB.
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
//! other neuron op runs in `f32`, on one kernel at every batch size: the
//! multiply `fl(w · book[x])` of its weight book's values and its input
//! book's — the entry the paper's `w × u` product table holds, as
//! `rapidnn_core::ProductTable` builds it — over the weight matrix
//! [`lower`] decodes when the model is assembled. Every other op is its
//! pool or residual step.
//!
//! The op loop runs outside every CPU feature frame: the input encoder
//! and each op enter the lane body [`Detect`] picks as their kind's work
//! ([`Encode`], [`Multiply`], [`Madd`], [`Step`]), on an AVX2 CPU one
//! AVX2 function each (see [`crate::lanes`]), with the same bits.
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
use crate::lanes::{Acc, Body, Detect, LaneWork};
use crate::quant::{level_of, QuantOp};
use rapidnn_analyze::{Act, Boundary, Geom, Op, Program, Span};
use rapidnn_core::nearest::{
    nearest_sorted_block, nearest_thresholded_block, nearest_thresholded_levels, total_key,
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
        self.tile_f.reserve(plan.max_groups.saturating_mul(LANES));
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
        self.exec_ops::<Detect>(model, padded);
        let exit = model.flow[model.op_count()];
        out.extend_from_slice(&self.flow.floats[..rows * exit.width]);
        Ok(rows)
    }

    /// Encodes a `padded`-row batch into the arena buffer the first op
    /// reads ([`Encode`]). `inputs` may hold fewer than `padded` rows;
    /// pad rows keep zeros — code 0 is valid for every non-empty
    /// codebook and a zero operand for every Madd — and their results
    /// are computed but never copied out.
    pub(crate) fn encode_batch(&mut self, model: &CompiledModel, inputs: &[f32], padded: usize) {
        Detect::run(Encode(model, inputs, &mut self.flow, padded));
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
        self.exec_ops::<Detect>(model, padded);
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
    /// makes the current flow. Each op enters the lane body `B` reaches
    /// as its kind's work; only a residual region's entry runs here.
    fn exec_ops<B: Body>(&mut self, model: &CompiledModel, padded: usize) {
        // The program starts and ends outside every residual region.
        let mut skip_depth = 0usize;

        for (oi, op) in model.program.ops.iter().enumerate() {
            match (&model.kernels[oi], op) {
                // Analyzer-licensed ops run the integer path on tiles
                // materialized once at load time.
                (Kernel::Madd(q), _) => {
                    let relu = op.neuron().is_some_and(|n| matches!(n.act, Act::Relu));
                    let finish = model.finishes[oi].as_ref();
                    B::run(Madd(q, finish, relu, &mut self.flow, padded));
                }
                (Kernel::Mul(_), _) => B::run(Multiply(model, oi, self, padded)),
                (Kernel::Step, Op::ResidualBegin { skip_codebook }) => {
                    let book = skip_codebook.slice(&model.program.floats);
                    if self.skips.len() == skip_depth {
                        self.skips.push(Vec::new());
                    }
                    let src = &self.flow.codes[..padded * model.flow[oi].width];
                    let buf = &mut self.skips[skip_depth];
                    fill(buf, src.len(), |i| book[src[i] as usize]);
                    skip_depth += 1;
                    // The codes pass through to the region's first op;
                    // an integer Madd op there reads them as operands.
                    if let Some(xq) = model.madd_levels(oi + 1) {
                        fill(&mut self.flow.quants, src.len(), |i| level_of(xq, src[i]));
                    }
                    continue;
                }
                (Kernel::Step, Op::ResidualEnd { .. }) => {
                    skip_depth -= 1;
                    let skip = &self.skips[skip_depth];
                    B::run(Step(model, oi, skip, &mut self.flow, padded));
                }
                (Kernel::Step, _) => B::run(Step(model, oi, &[], &mut self.flow, padded)),
            }
            self.flow.advance(model.flow[oi + 1].domain);
        }
    }
}

/// `Encode(model, inputs, flow, padded)`, the input encoder: each value
/// of a `padded`-row batch through the model's virtual input codebook
/// into the buffer the first op reads — `quants` when it is an integer
/// Madd op, whose level of each code it then writes, `codes` otherwise.
struct Encode<'a>(&'a CompiledModel, &'a [f32], &'a mut Flow, usize);

impl LaneWork for Encode<'_> {
    type Out = ();

    #[inline(always)]
    fn run<A: Acc>(self) {
        let Encode(model, inputs, flow, padded) = self;
        let (program, codes, quants) = (&model.program, &mut flow.codes, &mut flow.quants);
        let n = padded * program.input_features;
        let book = || program.virtual_encoder.slice(&program.floats);
        match (model.madd_levels(0), &model.input_enc) {
            (None, InputEncoder::Thresholds(thr)) => {
                nearest_thresholded_block(thr, inputs, refill(codes, n));
            }
            (None, InputEncoder::Keys(keys)) => {
                nearest_sorted_block(book(), keys, inputs, refill(codes, n), |i| i as u16);
            }
            (Some(xq), InputEncoder::Thresholds(thr)) => {
                nearest_thresholded_levels(thr, xq, inputs, refill(quants, n));
            }
            (Some(xq), InputEncoder::Keys(keys)) => {
                nearest_sorted_block(book(), keys, inputs, refill(quants, n), |i| xq[i]);
            }
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
    /// Most [`LANES`]-lane groups the f32 multiply's decoded tile holds:
    /// a block of rows transposed plus a conv's patch, which also covers
    /// the patches a smaller batch takes.
    max_groups: usize,
}

/// Collects the scratch arena's high-water marks from the model's flow
/// states, the program's residual depths ([`Program::flow`]) and each
/// op's kernel.
///
/// No op reserves anything for its weights — codes, decoded matrix
/// and integer tiles all live in the model — so the arena is flow
/// buffers plus one block tile, and does not grow with the code pool.
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
                // conv's patch; a licensed op reads its rows in place,
                // its weights from its tiles.
                if let Kernel::Madd(_) = kernel {
                    continue;
                }
                let g = &n.window;
                let groups = g.in_volume() + if covers_input(g) { 0 } else { g.patch_len() };
                p.max_groups = p.max_groups.max(groups);
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

/// `Multiply(model, oi, runner, padded)`, the `f32` neuron op `oi`: its
/// raw accumulators into the flow's `floats_next`, then its finish. The
/// multiply makes every output position — a row of a dense op, a (row,
/// pixel) pair of a conv — one lane of [`dense_block`]: [`LANES`] rows
/// at one pixel in a batch of whole blocks ([`row_blocks`]), else
/// positions pixel-major (a one-row conv fills its blocks with pixels,
/// [`patches`]) and one lane per position left over.
struct Multiply<'a>(&'a CompiledModel, usize, &'a mut BatchRunner, usize);

impl LaneWork for Multiply<'_> {
    type Out = ();

    #[inline(always)]
    fn run<A: Acc>(self) {
        let Multiply(model, oi, runner, padded) = self;
        let (flow, tile) = (&mut runner.flow, &mut runner.tile_f);
        let (pool_f, op) = (&model.program.floats[..], &model.program.ops[oi]);
        let (Some(n), Kernel::Mul(mul)) = (op.neuron(), &model.kernels[oi]) else {
            unreachable!("the op multiplies")
        };
        let (codes, dst) = (&flow.codes, &mut flow.floats_next);
        let (g, b, z) = (&n.window, n.bias.slice(pool_f), n.zero_code);
        let (pixels, patch_len, in_vol) = (g.out_pixels(), g.patch_len(), g.in_volume());
        let nout = n.channels * pixels;
        refill(dst, padded * nout);
        let positions = padded * pixels;
        let at = |q: usize| (q % padded) * nout + q / padded;
        let book = mul.book.slice(pool_f);
        let decode = |x: u16| book[usize::from(x)];
        let ws = &mul.weights[..];
        if padded >= LANES {
            row_blocks(g, &codes[..padded * in_vol], z, tile, decode, ws, b, dst);
        } else {
            let blocks = positions - positions % LANES;
            refill(tile, patch_len * if blocks > 0 { LANES } else { 1 });
            for q in (0..blocks).step_by(LANES) {
                patches::<LANES, _>(g, codes, z, padded, q, tile, decode);
                let lanes = std::array::from_fn(|l| at(q + l));
                dense_block(ws, b, tile.as_chunks::<LANES>().0, dst, lanes, pixels);
            }
            for q in blocks..positions {
                let xs = &mut tile[..patch_len];
                patches::<1, _>(g, codes, z, padded, q, xs, decode);
                dense_block(ws, b, xs.as_chunks().0, dst, [at(q)], pixels);
            }
        }
        match &model.finishes[oi] {
            Some(f) => refinish(f, matches!(n.act, Act::Relu), flow),
            // Identity or ReLU with nothing after it.
            None => (flow.floats_next.iter_mut()).for_each(|y| *y = apply_act(n.act, pool_f, *y)),
        }
    }
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
            dense_block(weights, bias, rows, dst, at(0), pixels);
            continue;
        }
        for p in 0..pixels {
            taps(g, p, |k, i| patch[k] = i.map_or(pad, |i| rows[i]));
            dense_block(weights, bias, patch, dst, at(p), pixels);
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
/// tap-major `tile` of decoded inputs ([`patches`]: one `L`-lane group
/// per tap). For each output channel `o`, `L` accumulators start at its
/// bias and add `w * x`, its weight times a lane's input, over its
/// weights in ascending order — the order per-sample inference adds in —
/// and lane `l`'s sum lands at `dst[at[l] + o * stride]`. They live in a
/// local array while the weight loop runs innermost, so the block's add
/// chains are independent and one weight serves every lane — a pure
/// mul-add stream the compiler turns into packed arithmetic; [`OBLOCK`]
/// outputs share each pass over the tile, an odd last output takes it
/// alone.
#[inline(always)]
fn dense_block<const L: usize>(
    weights: &[f32],
    bias: &[f32],
    tile: &[[f32; L]],
    dst: &mut [f32],
    at: [usize; L],
    stride: usize,
) {
    let (nin, nout) = (tile.len(), bias.len());
    let mut o = 0usize;
    while o + OBLOCK <= nout {
        let w0 = &weights[o * nin..(o + 1) * nin];
        let w1 = &weights[(o + 1) * nin..(o + 2) * nin];
        let mut acc0 = [bias[o]; L];
        let mut acc1 = [bias[o + 1]; L];
        for ((xs, &wa), &wb) in tile.iter().zip(w0).zip(w1) {
            for l in 0..L {
                acc0[l] += wa * xs[l];
                acc1[l] += wb * xs[l];
            }
        }
        for l in 0..L {
            dst[at[l] + o * stride] = acc0[l];
            dst[at[l] + (o + 1) * stride] = acc1[l];
        }
        o += OBLOCK;
    }
    while o < nout {
        let mut acc = [bias[o]; L];
        for (xs, &w) in tile.iter().zip(&weights[o * nin..(o + 1) * nin]) {
            for (a, &x) in acc.iter_mut().zip(xs) {
                *a += w * x;
            }
        }
        for (l, &a) in acc.iter().enumerate() {
            dst[at[l] + o * stride] = a;
        }
        o += 1;
    }
}

/// A neuron op lowered to the `f32` multiply kernel: `weights[j] *
/// book[x]` is `fl(w · x)`, the product the paper's table holds for
/// weight code `j`'s value and input code `x`'s.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseMul {
    /// Codebook the op's input codes decode through.
    pub(crate) book: Span,
    /// The decoded `channels × patch_len` weight matrix [`dense_block`]
    /// streams through: each weight code's value in its channel's book.
    pub(crate) weights: Vec<f32>,
}

/// The kernel one op runs on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    /// A pool or residual op: the step itself.
    Step,
    /// An `f32` neuron op: the multiply.
    Mul(DenseMul),
    /// An analyzer-licensed dense op: the `i16` multiply-accumulate,
    /// materialized by [`CompiledModel::quantize`].
    Madd(QuantOp),
}

/// Lowers every op of a gated program to its `f32` kernel: the multiply
/// for a neuron op, over its weight books decoded and the codebook its
/// input is encoded through ([`Program::flow`]), the step for every
/// other op.
pub(crate) fn lower(program: &Program<'_>) -> Vec<Kernel> {
    let (pool, codes) = (&program.floats[..], &program.codes[..]);
    let lower = |(op, at): (&Op, &Boundary)| {
        let (Some(n), Some(book)) = (op.neuron(), at.book) else {
            return Kernel::Step;
        };
        let wcodes = n.weight_codes.slice(codes);
        let mut weights = Vec::with_capacity(wcodes.len());
        for (wbook, wcodes) in n.readers(wcodes) {
            let wbook = wbook.slice(pool);
            weights.extend(wcodes.iter().map(|&w| wbook[usize::from(w)]));
        }
        Kernel::Mul(DenseMul { book, weights })
    };
    program.ops.iter().zip(&program.flow()).map(lower).collect()
}

/// `Madd(q, finish, relu, flow, padded)`, an analyzer-licensed dense op:
/// [`madd_rows`] with its finish — the output of the accumulator's run
/// in its tabulated `finish` ([`run_of`]), already what the next op
/// reads, else dequantize (+ ReLU when `relu`) — into the scratch buffer
/// of that domain, so the op is one pass.
struct Madd<'a>(&'a QuantOp, Option<&'a Finish>, bool, &'a mut Flow, usize);

impl LaneWork for Madd<'_> {
    type Out = ();

    #[inline(always)]
    fn run<A: Acc>(self) {
        let Madd(q, finish, relu, flow, padded) = self;
        let (xs, inv, dst) = (&flow.quants, q.inv, &mut flow.floats_next);
        let (codes, quants) = (&mut flow.codes_next, &mut flow.quants_next);
        let Some(Finish { edges, out }) = finish else {
            return match relu {
                true => madd_rows::<A, _>(q, xs, dst, padded, move |a| (a as f32 * inv).max(0.0)),
                false => madd_rows::<A, _>(q, xs, dst, padded, move |a| a as f32 * inv),
            };
        };
        let run = |a| run_of(edges, a);
        match out {
            LutOut::Codes(o) => madd_rows::<A, _>(q, xs, codes, padded, |a| o[run(a)]),
            LutOut::Quants(o) => madd_rows::<A, _>(q, xs, quants, padded, |a| o[run(a)]),
            LutOut::Floats(o) => madd_rows::<A, _>(q, xs, dst, padded, |a| o[run(a)]),
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
/// a pool's averages, a residual join — the flow's `floats` (what the op
/// read is dead), then writes the finish `f` of each, after the ReLU
/// when `relu` (as [`apply_act`]) — its run found by its total-order
/// key — into the scratch buffer of the finish's domain.
#[inline(always)]
fn refinish(f: &Finish, relu: bool, flow: &mut Flow) {
    std::mem::swap(&mut flow.floats, &mut flow.floats_next);
    let (v, n) = (&flow.floats, flow.floats.len());
    let run = |i: usize| run_of(&f.edges, total_key(if relu { v[i].max(0.0) } else { v[i] }));
    match &f.out {
        LutOut::Codes(o) => fill(&mut flow.codes_next, n, |i| o[run(i)]),
        LutOut::Quants(o) => fill(&mut flow.quants_next, n, |i| o[run(i)]),
        LutOut::Floats(o) => fill(&mut flow.floats_next, n, |i| o[run(i)]),
    }
}

/// Resets `buf` to `f(i)` for `i` in `0..n`, reusing its capacity.
fn fill<T>(buf: &mut Vec<T>, n: usize, f: impl Fn(usize) -> T) {
    buf.clear();
    buf.extend((0..n).map(f));
}

/// `Step(model, oi, skip, flow, padded)`, the step op `oi`: a max or
/// average pool, or the join that ends a residual region, adding `skip`.
struct Step<'a>(&'a CompiledModel, usize, &'a [f32], &'a mut Flow, usize);

impl LaneWork for Step<'_> {
    type Out = ();

    #[inline(always)]
    fn run<A: Acc>(self) {
        let Step(model, oi, skip, flow, padded) = self;
        let (at, finish) = (model.flow[oi], model.finishes[oi].as_ref());
        match &model.program.ops[oi] {
            Op::MaxPool(g) => {
                let (same, max) = (|c: u16| c, |a: u16, b: u16| a.max(b));
                // A pool reads codes whenever it reads encoded values:
                // only an integer Madd op reads `Quants`. One that hands
                // codes to an integer Madd op writes that op's operand
                // for each code.
                match (at.domain, model.madd_levels(oi + 1)) {
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
                        let book = codebook.slice(&model.program.floats);
                        let decode = |c: u16| book[c as usize];
                        pool_rows(g, &flow.codes, dst, padded, decode, sum, mean);
                        refinish(f, false, flow);
                    }
                }
            }
            Op::ResidualEnd { .. } => {
                let joined = &flow.floats;
                fill(&mut flow.floats_next, padded * at.width, |i| {
                    joined[i] + skip[i]
                });
                if let Some(f) = finish {
                    refinish(f, false, flow);
                }
            }
            _ => unreachable!("a neuron op reading codes multiplies"),
        }
    }
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
fn refill<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    buf.clear();
    buf.resize(len, T::default());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finish::EDGE_LANES;
    use crate::lanes::Portable;
    use rapidnn_prop::{check, usize_in, SeededRng};

    /// The integer Madd op — tiles, single rows, 16-lane step, scalar
    /// tails, odd last output, every finish — reading operand rows in
    /// place equals the two-step reference: each code through `xq`,
    /// then a plain `i64` dot product put through the same finish (a
    /// run found by a linear scan of its edges), at every row count
    /// around the tile and block sizes, every `nin % 16` class around
    /// the step and every `nout` remainder, on the portable lane body
    /// and the one the CPU feature check picks.
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
                        let (relu, finish) = (kind == 1, finish.as_ref());
                        let mut flows: [Flow; 2] = Default::default();
                        let [plain, fast] = &mut flows;
                        (plain.quants, fast.quants) = (quants.clone(), quants);
                        Portable::run(Madd(&q, finish, relu, plain, rows));
                        Detect::run(Madd(&q, finish, relu, fast, rows));
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
                                    match finish {
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

    /// Whole batches on the portable lane body equal the body serving
    /// picks, bit for bit — on an AVX2 CPU the only run the portable
    /// encoder, `f32` multiply, pools and residual join get — for every
    /// op-program topology, `f32` and quantized, at 1, 3, 8, 9 and 64 rows.
    #[test]
    fn portable_body_serves_the_detected_bodys_bits() {
        use crate::test_models::*;
        let mut rng = SeededRng::new(3);
        let builders = [
            mlp_model,
            cnn_model,
            strided_cnn_model,
            residual_model,
            deep_mlp_model,
        ];
        let mut models = vec![CompiledModel::deep_mixed_for_tests(5, 1)];
        for build in builders {
            let mut model = CompiledModel::from_reinterpreted(&build(&mut rng)).unwrap();
            models.push(model.clone());
            model.quantize().unwrap();
            models.push(model);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (mi, model) in models.iter().enumerate() {
            let nin = model.input_features();
            for rows in [1usize, 3, 8, 9, 64] {
                let inputs: Vec<f32> = (0..rows * nin).map(|i| (i as f32 * 0.37).sin()).collect();
                let (mut runner, mut served) = (BatchRunner::new(), Vec::new());
                runner.run(model, &inputs, &mut served).unwrap();
                let padded = pad_rows(rows);
                Portable::run(Encode(model, &inputs, &mut runner.flow, padded));
                runner.exec_ops::<Portable>(model, padded);
                let portable = &runner.floats()[..served.len()];
                assert_eq!(bits(portable), bits(&served), "model {mi}, {rows} rows");
            }
        }
    }

    /// A composed CNN (3×4×4 → conv 4 channels at stride 2 → conv 3
    /// channels → dense 2) whose convs leave four pixels each, so a
    /// one-row batch is all positions below a block.
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

    /// One op, one kernel: in a mixed plan the licensed ops hold integer
    /// tiles and no `f32` matrix, and the op too wide for `i16` keeps
    /// the multiply; a CNN's convs and dense op multiply. Every batch
    /// equals its rows run singly, bit for bit: at four pixels a conv,
    /// 1 CNN row is one-lane positions only, 2 rows one pixel block, 3
    /// and 7 rows blocks and a remainder, 8 or more rows blocks of rows
    /// (and 4-row int16 tiles).
    #[test]
    fn each_dense_op_serves_on_the_kernel_its_table_allows() {
        let refused = 1;
        let deep = CompiledModel::deep_mixed_for_tests(5, refused);
        let deep_kernels = (0..5).map(|oi| if oi == refused { "mul" } else { "madd" });
        let cnn = CompiledModel::from_program(&small_cnn_for_tests()).unwrap();
        let models = [
            (deep, deep_kernels.collect()),
            (cnn, vec!["mul", "mul", "mul"]),
        ];
        for (model, expected) in &models {
            let held: Vec<&str> = model
                .kernels
                .iter()
                .map(|kernel| match kernel {
                    Kernel::Madd(_) => "madd",
                    Kernel::Mul(_) => "mul",
                    Kernel::Step => "step",
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
}
