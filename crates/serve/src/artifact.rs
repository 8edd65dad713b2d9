//! Compiled-model artifacts.
//!
//! [`CompiledModel`] is a gated [`Program`] — the analyzer's IR: two
//! contiguous pools (`floats`, `codes`) holding a [`ReinterpretedNetwork`]'s
//! codebooks (its weight books among them), LUTs and weight codes, plus the linear op
//! program the kernels execute as it is — and what is derived from it
//! once, after the gate: the input encoder's search tables, one kernel
//! per op, each lookup or re-encode tabulated as its runs and the flow
//! state at every op boundary. The flat layout is
//! cache-friendly for serving and trivially serializable; the binary
//! format lives in the crate's `wire` module and ends there: bytes
//! decode to a [`Program`], the same IR every other constructor starts
//! from.
//!
//! # Verified by construction
//!
//! Every public way to obtain a [`CompiledModel`] —
//! [`from_reinterpreted`](CompiledModel::from_reinterpreted),
//! [`from_program`](CompiledModel::from_program),
//! [`from_bytes`](CompiledModel::from_bytes) /
//! [`load`](CompiledModel::load) — runs the static analyzer over
//! a [`rapidnn_analyze::Program`] before it derives anything, returning
//! either a model or [`ServeError::Rejected`] with the full report. The
//! analyzer proves every span, weight code, code domain and geometry in
//! bounds, so what [`CompiledModel::assemble`] derives needs no guard,
//! [`CompiledModel::infer`] never panics on a model that exists, and the
//! kernels index with plain bounds-checked slices — no per-lookup clamp.
//! Corrupt bytes surface earlier, as typed
//! [`ArtifactError`](crate::ArtifactError)s.
//!
//! Inference over the flattened program is bit-for-bit identical to
//! [`ReinterpretedNetwork::infer_sample`]: the nearest-representative
//! search, activation lookup, and accumulation order are replicated
//! exactly. The execution itself lives in [`crate::kernels`]:
//! [`CompiledModel::infer`] and [`CompiledModel::infer_batch`] are thin
//! wrappers over a [`BatchRunner`], the zero-allocation batch-major
//! interpreter.

use crate::error::{Result, ServeError};
use crate::finish::{self, Finish};
use crate::kernels::{lower, BatchRunner, Domain, FlowState, Kernel};
use crate::wire;
use rapidnn_analyze::{Act, Boundary, Op, OpQuant, Program, QuantPlan};
#[cfg(test)]
use rapidnn_analyze::{Geom, Span};
use rapidnn_core::nearest::{load_keys, nearest, tabulate_thresholds};
use rapidnn_core::ReinterpretedNetwork;
use std::borrow::Cow;
use std::path::Path;

pub use crate::wire::{FORMAT_VERSION, MAGIC};

/// A [`ReinterpretedNetwork`] flattened into contiguous pools plus a
/// linear op program — the deployable, serializable serving artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    /// The program the construction gate passed, as built or decoded:
    /// all f32 data (codebooks, weight books, LUTs, biases), every
    /// weight code as one `u16` (the wire's bit packing ends in
    /// `wire::decode`), and the ops.
    pub(crate) program: Program<'static>,
    /// The virtual input codebook's search tables, built once by
    /// [`CompiledModel::assemble`] so no batch pays for them.
    pub(crate) input_enc: InputEncoder,
    /// The kernel each op runs on: lowered by [`CompiledModel::assemble`]
    /// from the op's kind, and overwritten by
    /// [`CompiledModel::quantize`] for every op the plan licenses.
    pub(crate) kernels: Vec<Kernel>,
    /// Each op's activation lookup and re-encode as one step function
    /// ([`Finish`]), `None` for an op with neither; moved onto the
    /// accumulator grid of each op [`CompiledModel::quantize`] licenses.
    pub(crate) finishes: Vec<Option<Finish>>,
    /// The plan [`CompiledModel::quantize`] materialized.
    pub(crate) quant_plan: Option<QuantPlan>,
    /// Where the flow stands at each of the `ops.len() + 1` op
    /// boundaries ([`CompiledModel::walk`]): `flow[i]` is what op `i`
    /// reads, the last entry what the program returns. The batch loop
    /// executes it as it is.
    pub(crate) flow: Vec<FlowState>,
}

/// What [`BatchRunner`] needs to encode input rows through a model's
/// virtual input codebook, tabulated once per model instead of once per
/// batch (the boundary search alone cost a quarter of a one-row call).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum InputEncoder {
    /// The codebook's code boundaries in key space (see
    /// [`tabulate_thresholds`]): encoding is a count against them.
    Thresholds(Vec<i32>),
    /// Total-order keys of a codebook too large to tabulate: encoding
    /// sweeps them and resolves each probe against the book.
    Keys(Vec<i32>),
}

impl InputEncoder {
    /// Tabulates the program's virtual input codebook.
    fn new(program: &Program<'_>) -> InputEncoder {
        let book = program.virtual_encoder.slice(&program.floats);
        let mut keys = Vec::new();
        load_keys(&mut keys, book);
        match tabulate_thresholds(book, &keys) {
            Some(thr) => InputEncoder::Thresholds(thr),
            None => InputEncoder::Keys(keys),
        }
    }
}

impl CompiledModel {
    /// The one place a model is put together, over a program the gate
    /// passed: the input encoder and every finish tabulated and every op
    /// lowered to its `f32` kernel ([`lower`]).
    fn assemble(program: Program<'static>) -> CompiledModel {
        let kernels = lower(&program);
        Self::with_kernels(program, kernels)
    }

    /// `program` over `kernels`, with its input encoder, finishes and
    /// flow.
    fn with_kernels(program: Program<'static>, kernels: Vec<Kernel>) -> CompiledModel {
        let mut model = CompiledModel {
            input_enc: InputEncoder::new(&program),
            kernels,
            finishes: finish::tabulate(&program),
            quant_plan: None,
            flow: Vec::new(),
            program,
        };
        model.flow = model.walk();
        model
    }

    /// The flow state at every op boundary: the program's dataflow walk
    /// ([`Program::flow`]), each encoded boundary in the domain its
    /// reader's kernel takes ([`Domain::of`]). The walk is total on any
    /// program; on a gated one the checker has proven what it states.
    fn walk(&self) -> Vec<FlowState> {
        let state = |(oi, at): (usize, &Boundary)| FlowState {
            domain: Domain::of(at, self.madd_levels(oi).is_some()),
            width: at.width,
        };
        self.program.flow().iter().enumerate().map(state).collect()
    }

    /// Gates `program`, then assembles it.
    fn gated(program: Program<'static>) -> Result<Self> {
        gate(&program)?;
        Ok(Self::assemble(program))
    }

    /// Flattens a reinterpreted network into a compiled model: the
    /// analyzer's lowering ([`rapidnn_analyze::Program::from_reinterpreted`]),
    /// gated like [`Self::from_program`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carrying the report when the lowered
    /// program fails static analysis.
    pub fn from_reinterpreted(network: &ReinterpretedNetwork) -> Result<Self> {
        Self::gated(Program::from_reinterpreted(network))
    }

    /// Input feature width.
    pub fn input_features(&self) -> usize {
        self.program.input_features
    }

    /// A model over `program` that no gate has seen, so a deliberately
    /// inconsistent program panics at inference, inside the engine's
    /// containment (or, with a weight code past its book, here).
    #[cfg(test)]
    pub(crate) fn ungated_for_tests(program: Program<'static>) -> CompiledModel {
        Self::assemble(program)
    }

    /// Mnist-tiny's topology (784 → 32 → 32 → 10), untrained, composed
    /// from `seed` ([`composed_for_tests`](Self::composed_for_tests)),
    /// through the construction gate.
    #[cfg(test)]
    pub(crate) fn mnist_tiny_for_tests(seed: u64) -> CompiledModel {
        let mut rng = rapidnn_tensor::SeededRng::new(seed);
        let net = rapidnn_nn::topology::Benchmark::Mnist
            .build_reduced(16, &mut rng)
            .unwrap();
        CompiledModel::from_program(&Self::composed_for_tests(net, 10, &mut rng)).unwrap()
    }

    /// `net` composed over 40 synthetic rows of `classes` classes with 8
    /// clusters a side, lowered to the program IR.
    #[cfg(test)]
    pub(crate) fn composed_for_tests(
        mut net: rapidnn_nn::Network,
        classes: usize,
        rng: &mut rapidnn_tensor::SeededRng,
    ) -> Program<'static> {
        let data = rapidnn_data::SyntheticSpec::new(net.input_features(), classes, 2.0)
            .generate(40, rng)
            .unwrap();
        let opts = rapidnn_core::ReinterpretOptions {
            weight_clusters: 8,
            input_clusters: 8,
            ..Default::default()
        };
        let network = ReinterpretedNetwork::build(&mut net, data.inputs(), &opts, rng).unwrap();
        Program::from_reinterpreted(&network)
    }

    /// Hand-built `layers`-deep dense chain (4 features wide throughout)
    /// for exercising the kernels and the engine without composing a
    /// network: every interior layer re-encodes through the shared
    /// 4-entry codebook, the last decodes. All layers alias the same
    /// weight-book/bias/weight spans, so the program stays a dozen floats.
    #[cfg(test)]
    pub(crate) fn deep_program_for_tests(layers: usize) -> Program<'static> {
        let book = Span { start: 0, len: 4 };
        let weight_book = Span { start: 4, len: 2 };
        let bias = Span { start: 6, len: 4 };
        let weight_codes = Span { start: 0, len: 16 };
        let floats = vec![-1.0f32, -0.25, 0.5, 1.0, 0.5, -1.0, 0.01, 0.02, 0.03, 0.04];
        let ops = (0..layers.max(1))
            .map(|l| Op::Dense {
                inputs: 4,
                outputs: 4,
                weight_codes,
                bias,
                weight_book,
                act: Act::Relu,
                encoder: (l + 1 < layers.max(1)).then_some(book),
            })
            .collect();
        Program {
            input_features: 4,
            output_features: 4,
            virtual_encoder: book,
            ops,
            floats: Cow::Owned(floats),
            codes: Cow::Owned(vec![0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0]),
        }
    }

    /// [`deep_program_for_tests`](Self::deep_program_for_tests) through
    /// the construction gate.
    #[cfg(test)]
    pub(crate) fn deep_for_tests(layers: usize) -> CompiledModel {
        CompiledModel::from_program(&Self::deep_program_for_tests(layers))
            .expect("the deep chain analyzes clean")
    }

    /// [`deep_for_tests`](Self::deep_for_tests) quantized into a mixed
    /// plan: op `refused` multiplies through a weight book too wide for
    /// `i16` and stays on the f32 path reading codes; every other op
    /// licenses as an integer multiply-accumulate reading `i16`
    /// operands.
    #[cfg(test)]
    pub(crate) fn deep_mixed_for_tests(layers: usize, refused: usize) -> CompiledModel {
        let mut program = Self::deep_program_for_tests(layers);
        let floats = program.floats.to_mut();
        let wide = Span {
            start: floats.len(),
            len: 2,
        };
        floats.extend([1.0e6f32, -1.0e6]);
        let Op::Dense { weight_book, .. } = &mut program.ops[refused] else {
            unreachable!("the deep chain is all dense");
        };
        *weight_book = wide;
        let mut model =
            CompiledModel::from_program(&program).expect("the mixed chain analyzes clean");
        model.quantize().expect("quantize is infallible");
        for oi in 0..layers {
            let plan = model.quant_plan();
            assert_eq!(
                model.quant_op(oi).is_some(),
                oi != refused,
                "op {oi}: {plan:?}"
            );
        }
        model
    }

    /// [`deep_program_for_tests`](Self::deep_program_for_tests) with a
    /// deliberately inconsistent pool op appended: the healthy dense
    /// prefix executes fine, then the tail op panics out of bounds —
    /// for proving that a panic in a worker fails only the affected
    /// requests while serving goes on.
    #[cfg(test)]
    pub(crate) fn deep_broken_tail_for_tests(layers: usize) -> CompiledModel {
        let mut program = Self::deep_program_for_tests(layers);
        program.ops.push(Op::MaxPool(Geom {
            in_channels: 4,
            in_height: 4,
            in_width: 4,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            pad: 0,
            out_height: 3,
            out_width: 3,
        }));
        program.output_features = 4 * 9;
        CompiledModel::ungated_for_tests(program)
    }

    /// Output feature width (class count).
    pub fn output_features(&self) -> usize {
        self.program.output_features
    }

    /// Number of ops in the flattened program.
    pub fn op_count(&self) -> usize {
        self.program.ops.len()
    }

    /// Total bytes held by the two pools: 4 per float and 2 per code,
    /// the same for a loaded model as for the one it was written from.
    pub fn pool_bytes(&self) -> usize {
        self.program.floats.len() * 4 + self.program.codes.len() * 2
    }

    /// Runs encoded inference on one sample, returning the output logits.
    ///
    /// Bit-for-bit identical to
    /// [`ReinterpretedNetwork::infer_sample`] on the source network.
    /// Each call spins up a fresh single-row [`BatchRunner`]; a serving
    /// loop should hold a runner of its own and call
    /// [`BatchRunner::run`] to amortise the scratch arena across batches.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when `sample` has the wrong
    /// width. Never panics: the analyzer proved every index in bounds.
    pub fn infer(&self, sample: &[f32]) -> Result<Vec<f32>> {
        if sample.len() != self.input_features() {
            return Err(ServeError::InvalidInput(format!(
                "sample has {} features, expected {}",
                sample.len(),
                self.input_features()
            )));
        }
        let mut out = Vec::with_capacity(self.output_features());
        BatchRunner::new().run(self, sample, &mut out)?;
        Ok(out)
    }

    /// Runs inference over `batch x features` row-major inputs.
    ///
    /// The whole batch executes through one [`BatchRunner`] pass — each
    /// op runs once over all rows — with outputs bit-for-bit identical
    /// to calling [`CompiledModel::infer`] per row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when the input length is not a
    /// multiple of the model's feature width.
    pub fn infer_batch(&self, inputs: &[f32]) -> Result<Vec<Vec<f32>>> {
        let mut out = Vec::new();
        BatchRunner::new().run(self, inputs, &mut out)?;
        Ok(out
            .chunks(self.output_features())
            .map(<[f32]>::to_vec)
            .collect())
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Serializes the model in the current (v4) format (the crate's
    /// `wire` module): `RNNA` magic, format version, payload length,
    /// payload, FNV-1a 64 checksum — all little-endian. The payload
    /// carries the float pool as raw LE `f32` bytes at an 8-aligned
    /// offset and the code pool as per-op bit-packed sections, in the
    /// layout the ops imply.
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::encode(&self.program)
    }

    /// Decodes an artifact into a [`Program`], runs the static analyzer
    /// over it, then assembles the model — the only way bytes become a
    /// model, and nothing is derived from a program before it passes.
    ///
    /// # Errors
    ///
    /// Byte-level corruption surfaces as [`ServeError::Artifact`] with a
    /// typed [`ArtifactError`](crate::ArtifactError) — bad magic, unknown version, truncation,
    /// checksum mismatch, broken framing or code-section layout; a
    /// decodable program with analysis errors surfaces as
    /// [`ServeError::Rejected`] carrying the full diagnostic report.
    /// This function never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::gated(wire::decode(bytes)?)
    }

    /// [`Self::from_bytes`] under its old name: the analyzer used to be
    /// the opt-in "strict" load and is now the only one. Remains
    /// because the frozen benchmark harness (`bench/`) calls it.
    ///
    /// # Errors
    ///
    /// As [`Self::from_bytes`].
    pub fn from_bytes_strict(bytes: &[u8]) -> Result<Self> {
        Self::from_bytes(bytes)
    }

    /// Writes the serialized artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads an artifact from `path` via [`Self::from_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and everything
    /// [`Self::from_bytes`] returns.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    // ------------------------------------------------------------------
    // Static analysis
    // ------------------------------------------------------------------

    /// Builds a model from the analyzer's program IR after the analyzer
    /// has passed it, over its own copy of the pools. Writing the model
    /// back out packs code sections at the width its weight books imply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carrying the report when the program
    /// fails static analysis.
    pub fn from_program(program: &Program<'_>) -> Result<Self> {
        gate(program)?;
        Ok(Self::assemble(Program {
            input_features: program.input_features,
            output_features: program.output_features,
            virtual_encoder: program.virtual_encoder,
            ops: program.ops.clone(),
            floats: Cow::Owned(program.floats.to_vec()),
            codes: Cow::Owned(program.codes.to_vec()),
        }))
    }

    /// A clone of `self`: the optimizer is retired. Remains because the
    /// frozen benchmark harness (`bench/`) calls it; ROADMAP item 1(a)
    /// removes it.
    ///
    /// # Errors
    ///
    /// None; the `Result` is the harness's signature.
    pub fn optimize(&self) -> Result<(CompiledModel, ())> {
        Ok((self.clone(), ()))
    }

    /// Runs the static analyzer over the compiled program and returns
    /// the full diagnostic report. Construction already refused every
    /// `error`, so what comes back are the warnings and notes.
    pub fn analyze(&self) -> rapidnn_analyze::Report {
        rapidnn_analyze::analyze(&self.program)
    }

    /// Materializes integer kernels for every op the analyzer licenses
    /// ([`rapidnn_analyze::quantize_plan`]): `i16` weight tiles,
    /// quantized biases and each finish's runs, expanded from the code
    /// pool exactly once, here. Each licensed op's integer kernel
    /// replaces the one it held: one op holds one kernel, and the flow
    /// into it becomes the `i16` operands that kernel reads.
    ///
    /// Quantization is opt-in: no constructor enables it, so the f32
    /// path stays bit-identical unless a caller asks for integers. Ops
    /// the plan refuses stay on the f32 path; [`Self::kernel_path`]
    /// reports the resulting mix.
    ///
    /// # Errors
    ///
    /// None: the analysis that could refuse a model ran when it was
    /// constructed. The `Result` remains because the frozen benchmark
    /// harness (`bench/`) `.expect`s it.
    pub fn quantize(&mut self) -> Result<()> {
        let plan = rapidnn_analyze::quantize_plan(&self.program);
        crate::quant::materialize(self, &plan);
        self.quant_plan = Some(plan);
        self.flow = self.walk();
        Ok(())
    }

    /// The quantization plan materialized by [`Self::quantize`], or
    /// `None` for a pure-f32 model.
    pub fn quant_plan(&self) -> Option<&QuantPlan> {
        self.quant_plan.as_ref()
    }

    /// Derives the quantization plan without changing the model: which
    /// ops the analyzer would license for the integer path and why the
    /// rest fall back.
    pub fn quant_plan_preview(&self) -> QuantPlan {
        rapidnn_analyze::quantize_plan(&self.program)
    }

    /// The flow domain each op reads under `plan`, in op order:
    /// `"codes"`, `"f32"`, or `"i16"` — the operands of a licensed
    /// integer op, which whatever produces its input writes in place of codes,
    /// so consecutive `"i16"` ops never leave the quantized domain.
    /// Like [`Self::quant_plan_preview`] it needs no materialized plan.
    pub fn read_domains(&self, plan: &QuantPlan) -> Vec<&'static str> {
        let name =
            |(at, verdict): (&Boundary, &OpQuant)| Domain::of(at, verdict.is_licensed()).name();
        self.program
            .flow()
            .iter()
            .zip(&plan.ops)
            .map(name)
            .collect()
    }

    /// Which kernels serve this model: `"f32"` (no quantization, or
    /// nothing licensed), `"int16"` (every neuron op licensed), or
    /// `"mixed"`.
    pub fn kernel_path(&self) -> &'static str {
        match &self.quant_plan {
            None => "f32",
            Some(plan) if plan.licensed() == 0 => "f32",
            Some(plan) if plan.fallbacks() == 0 => "int16",
            Some(_) => "mixed",
        }
    }

    /// Number of ops running on the integer path (0 unless
    /// [`Self::quantize`] licensed some).
    pub fn licensed_ops(&self) -> usize {
        self.quant_plan.as_ref().map_or(0, QuantPlan::licensed)
    }

    /// `(inputs, outputs)` of every dense op, in program order — the
    /// shapes an equivalent unquantized GEMM stack would multiply
    /// (used by the benchmark's dense-baseline comparison).
    pub fn dense_shapes(&self) -> Vec<(usize, usize)> {
        self.program
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Dense {
                    inputs, outputs, ..
                } => Some((*inputs, *outputs)),
                _ => None,
            })
            .collect()
    }
}

/// The construction gate: runs the static analyzer over `program` and
/// refuses it on any `error` diagnostic.
fn gate(program: &Program<'_>) -> Result<()> {
    let report = rapidnn_analyze::analyze(program);
    if report.has_errors() {
        return Err(ServeError::Rejected(Box::new(report)));
    }
    Ok(())
}

/// The activation step of a neuron op on one pre-activation value,
/// mirroring `ActivationTable::lookup` exactly.
#[inline]
pub(crate) fn apply_act(act: &Act, floats: &[f32], y: f32) -> f32 {
    match act {
        Act::Identity => y,
        Act::Relu => y.max(0.0),
        Act::Lookup { inputs, outputs } => outputs.slice(floats)[nearest(inputs.slice(floats), y)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `quantize` re-derives the flow: each op reads the domain the plan
    /// names for it, so a licensed op reads the `i16` operands its
    /// producer leaves — on mnist-tiny's topology (784 → 32 → 32 → 10)
    /// and on a mixed deep chain — and a model reloaded from its bytes
    /// equals the one written, before and after quantizing both.
    #[test]
    fn quantize_rederives_the_flow() {
        let mnist = CompiledModel::mnist_tiny_for_tests(5);
        let reload = |m: &CompiledModel| CompiledModel::from_bytes(&m.to_bytes()).unwrap();
        // Bytes carry no quantization: the mixed chain reloads as f32.
        let mixed = reload(&CompiledModel::deep_mixed_for_tests(5, 1));
        for (name, mut model) in [("mnist-tiny", mnist), ("deep-mixed", mixed)] {
            let mut reloaded = reload(&model);
            assert_eq!(reloaded, model, "{name}");
            model.quantize().unwrap();
            reloaded.quantize().unwrap();
            assert_eq!(reloaded, model, "{name} quantized");
            let plan = model.quant_plan().expect("quantized");
            assert!(plan.licensed() > 0, "{name}: {plan:?}");
            let domains = model.read_domains(plan);
            assert_eq!(model.flow.len(), domains.len() + 1, "{name}");
            for (oi, want) in domains.iter().enumerate() {
                assert_eq!(model.flow[oi].domain.name(), *want, "{name} op {oi}");
            }
        }
    }
}
