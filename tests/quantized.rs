//! Property suite for the analyzer-licensed integer kernel path.
//!
//! The contract under test: [`CompiledModel::quantize`] may only change
//! *performance*, never correctness beyond the analyzer's own error
//! bound. Concretely —
//!
//! * integer-path outputs stay within the licensed plan's
//!   `output_error` of the f32 path, across random topologies and
//!   batch sizes 1–64;
//! * the integer path is bit-identical between scalar and batched
//!   execution (`i32` accumulation is exact, so there is no summation
//!   -order escape hatch to hide behind);
//! * models the analyzer refuses keep serving the f32 path
//!   bit-identically — a fallback is invisible, not approximate;
//! * a model reloaded from its artifact *equals* the one it was
//!   written from after both quantize — pools, lowering and integer
//!   kernel state — so the integer path cannot tell them apart;
//! * no op charges the batch arena for its weights on either kernel
//!   path (codes, decoded matrix and integer tiles live in the model),
//!   so a runner's scratch does not scale with the model's code pool;
//! * what flows into an integer Madd op is its `i16` operand, written
//!   by whatever produces it, and that changes no bit: a hand-built
//!   chain equals the two-step reference (`codes → xq[code]`, then the
//!   dot product) written out below, on a fully licensed plan and on a
//!   mixed one whose f32 op is still handed codes.

use rapidnn::analyze::{
    Act, FallbackReason, FinishPlan, Geom, Op, OpQuant, Program, QuantPlan, Span,
};
use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::SyntheticSpec;
use rapidnn::nn::topology;
use rapidnn::serve::{BatchRunner, CompiledModel};
use rapidnn::tensor::SeededRng;
use rapidnn_prop::usize_in;
use std::borrow::Cow;

/// Composes a random MLP into a compiled artifact.
fn compiled_mlp(
    rng: &mut SeededRng,
    features: usize,
    hidden: &[usize],
    classes: usize,
    clusters: usize,
) -> CompiledModel {
    let data = SyntheticSpec::new(features, classes, 2.0)
        .generate(48, rng)
        .expect("synthetic data");
    let mut net = topology::mlp(features, hidden, classes, rng).expect("mlp");
    let opts = ReinterpretOptions {
        weight_clusters: clusters,
        input_clusters: clusters,
        ..ReinterpretOptions::default()
    };
    let network =
        ReinterpretedNetwork::build(&mut net, data.inputs(), &opts, rng).expect("reinterpret");
    CompiledModel::from_reinterpreted(&network).expect("compile")
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Integer outputs stay within the analyzer-derived bound of f32
/// outputs, and the integer path is bit-identical across batch sizes —
/// also where a finish's bucket grid is past 2^16 buckets.
#[test]
fn integer_path_stays_within_licensed_error_bound() {
    let mut any_licensed = false;
    for seed in 0..8u64 {
        let mut rng = SeededRng::new(900 + seed);
        let mut features = usize_in(&mut rng, 4, 10);
        let mut classes = usize_in(&mut rng, 2, 4);
        let depth = usize_in(&mut rng, 1, 3);
        let mut hidden: Vec<usize> = (0..depth).map(|_| usize_in(&mut rng, 4, 12)).collect();
        let mut clusters = 8;
        if seed == 6 {
            // Every remainder of the integer tile kernel in the first
            // dense op: 8-lane steps plus a scalar tail (19 = 2·8 + 3)
            // and an odd last output.
            (features, hidden[0]) = (19, 11);
        }
        if seed == 7 {
            // 512 inputs widen the hidden op's accumulator hull past
            // 2^16 buckets of the datapath grid; its finish keeps the
            // grid's few runs.
            (features, hidden, classes, clusters) = (512, vec![16], 3, 16);
        }
        let model = compiled_mlp(&mut rng, features, &hidden, classes, clusters);

        let mut quantized = model.clone();
        quantized.quantize().expect("quantize");
        let plan = quantized.quant_plan().expect("plan").clone();
        any_licensed |= plan.licensed() > 0;
        if seed == 6 {
            assert_eq!(quantized.dense_shapes()[0], (19, 11));
            assert_eq!(quantized.kernel_path(), "int16", "tile-remainder case");
        }
        if seed == 7 {
            let grid = |op: &OpQuant| match op {
                OpQuant::Licensed(lic) => match lic.finish {
                    FinishPlan::Lut { len, .. } => len,
                    FinishPlan::Direct => 0,
                },
                _ => 0,
            };
            let widest = plan.ops.iter().map(grid).max();
            assert!(widest > Some(1 << 16), "widest finish grid {widest:?}");
            assert_eq!(quantized.kernel_path(), "int16", "wide-grid case");
        }

        let inputs: Vec<f32> = (0..64 * features).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let mut qout = Vec::new();
        BatchRunner::for_model(&quantized, 64)
            .run(&quantized, &inputs, &mut qout)
            .expect("quantized batch");
        let mut fout = Vec::new();
        BatchRunner::new()
            .run(&model, &inputs, &mut fout)
            .expect("f32 batch");

        if plan.licensed() == 0 {
            assert_eq!(bits(&fout), bits(&qout), "nothing licensed => identical");
        } else {
            assert!(
                plan.output_error.is_finite(),
                "licensed plan must carry a finite bound (seed {seed})"
            );
            for (i, (&a, &b)) in fout.iter().zip(&qout).enumerate() {
                let err = f64::from(a) - f64::from(b);
                assert!(
                    err.abs() <= plan.output_error + 1e-9,
                    "seed {seed} output {i}: f32 {a} vs int {b}, |err| {} > bound {}",
                    err.abs(),
                    plan.output_error
                );
            }
        }

        // Per-sample `infer` reproduces the 64-row batch, and so does
        // every batch size around the tile (4 rows) and block (8 rows)
        // boundaries: single rows, partial and whole tiles, padded
        // blocks all agree on the integer path.
        let per_sample: Vec<f32> = inputs
            .chunks(features)
            .flat_map(|row| quantized.infer(row).expect("infer"))
            .collect();
        assert_eq!(
            bits(&qout),
            bits(&per_sample),
            "seed {seed}: per-sample infer differs from the 64-row batch"
        );
        let mut runner = BatchRunner::new();
        for bs in (1..=17usize).chain([64]) {
            let mut got = Vec::new();
            let mut out = Vec::new();
            for chunk in inputs.chunks(bs * features) {
                runner.run(&quantized, chunk, &mut out).expect("chunk");
                got.extend_from_slice(&out);
            }
            assert_eq!(
                bits(&qout),
                bits(&got),
                "seed {seed}: batch size {bs} changed integer-path bits"
            );
        }
    }
    assert!(any_licensed, "no seed produced a licensed op");
}

/// A model whose value ranges overflow every i16 grid is refused by the
/// analyzer — and the refusal is invisible: quantize() succeeds, the
/// kernel path reports "f32", and outputs are bit-identical.
#[test]
fn refused_model_serves_f32_bit_identically() {
    let mut rng = SeededRng::new(4242);
    let data = SyntheticSpec::new(6, 2, 2.0)
        .generate(40, &mut rng)
        .expect("synthetic data");
    // Blow the input range far past the i16 product grid.
    let wide = data.inputs().map(|v| v * 3.0e6);
    let mut net = topology::mlp(6, &[8], 2, &mut rng).expect("mlp");
    let opts = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let network =
        ReinterpretedNetwork::build(&mut net, &wide, &opts, &mut rng).expect("reinterpret");
    let model = CompiledModel::from_reinterpreted(&network).expect("compile");

    let mut quantized = model.clone();
    quantized.quantize().expect("quantize still succeeds");
    assert_eq!(quantized.licensed_ops(), 0, "nothing should be licensed");
    assert_eq!(quantized.kernel_path(), "f32");
    let plan = quantized.quant_plan().expect("plan").clone();
    assert!(plan.fallbacks() > 0, "fallback reasons must be surfaced");

    let inputs: Vec<f32> = (0..40 * 6).map(|_| rng.uniform(-3.0e6, 3.0e6)).collect();
    let mut fout = Vec::new();
    let mut qout = Vec::new();
    BatchRunner::new()
        .run(&model, &inputs, &mut fout)
        .expect("f32");
    BatchRunner::new()
        .run(&quantized, &inputs, &mut qout)
        .expect("refused-quantized");
    assert_eq!(bits(&fout), bits(&qout));
}

/// A model built in memory and its reload from bytes are one model:
/// after both quantize they are equal — which covers the pools, each
/// op's kernel and the whole integer state — and serve the same bits.
#[test]
fn built_and_reloaded_models_agree_on_the_integer_path() {
    let mut rng = SeededRng::new(77);
    let mut built = compiled_mlp(&mut rng, 8, &[16, 12], 3, 8);
    let mut reloaded = CompiledModel::from_bytes(&built.to_bytes()).expect("reload");
    assert_eq!(reloaded, built);
    built.quantize().expect("built quantize");
    reloaded.quantize().expect("reloaded quantize");
    assert_eq!(reloaded, built, "quantized");
    assert!(built.licensed_ops() > 0, "expected licensed ops");

    let inputs: Vec<f32> = (0..64 * 8).map(|_| rng.uniform(-3.0, 3.0)).collect();
    let mut out1 = Vec::new();
    let mut out2 = Vec::new();
    BatchRunner::for_model(&built, 64)
        .run(&built, &inputs, &mut out1)
        .expect("built run");
    BatchRunner::for_model(&reloaded, 64)
        .run(&reloaded, &inputs, &mut out2)
        .expect("reloaded run");
    assert_eq!(
        bits(&out1),
        bits(&out2),
        "built vs reloaded integer outputs"
    );
}

/// Neither kernel path's arena holds a weight tile. The f32 path used
/// to reserve, per worker, a `u16` code tile, the recovered factors and
/// a decoded `f32` matrix for its largest dense op; the model holds the
/// decoded matrix now, so the f32 arena is flow buffers and one block
/// tile, whatever the size of the code pool — built or reloaded.
#[test]
fn neither_arena_holds_a_weight_tile() {
    let build = |hidden: &[usize]| {
        let mut rng = SeededRng::new(66);
        compiled_mlp(&mut rng, 10, hidden, 3, 8)
    };
    let shallow = build(&[32, 32]);
    let deep = build(&[32, 32, 32, 32, 32, 32, 32, 32]);
    assert!(
        deep.pool_bytes() >= shallow.pool_bytes() + 6 * (32 * 32 * 2),
        "deep model should carry six more 32x32 code sections"
    );
    let arena = |m: &CompiledModel| BatchRunner::for_model(m, 64).scratch_bytes();
    let reloaded = CompiledModel::from_bytes(&deep.to_bytes()).expect("reload");
    assert_eq!(arena(&deep), arena(&shallow));
    assert_eq!(arena(&deep), arena(&reloaded));
    // The flow is `u16` codes 32 wide between ops, and each op stages
    // 32 `f32` accumulators per row before its finish re-encodes them
    // (the finish's runs live in the model); every op multiplies, so
    // the one block tile is eight decoded rows of 32. No term has a
    // weight in it.
    assert_eq!(
        arena(&deep),
        2 * (64 * 32 * 2) + 2 * (64 * 32 * 4) + 8 * 32 * 4
    );

    // The integer path needs less still: see
    // `quantized_arena_does_not_scale_with_code_sections`.
    let mut quantized = deep.clone();
    quantized.quantize().expect("quantize");
    assert!(arena(&quantized) < arena(&deep));
}

/// A fully licensed model's arena is independent of its code-section
/// size: deepening the model grows the artifact but not the scratch.
#[test]
fn quantized_arena_does_not_scale_with_code_sections() {
    let build = |hidden: &[usize]| {
        let mut rng = SeededRng::new(66);
        let mut m = compiled_mlp(&mut rng, 10, hidden, 3, 8);
        m.quantize().expect("quantize");
        m
    };
    let shallow = build(&[32, 32]);
    let deep = build(&[32, 32, 32, 32, 32, 32, 32, 32]);
    assert_eq!(shallow.quant_plan().expect("plan").fallbacks(), 0);
    assert_eq!(deep.quant_plan().expect("plan").fallbacks(), 0);
    assert!(
        deep.to_bytes().len() > shallow.to_bytes().len(),
        "deep artifact should carry more code sections"
    );
    let mut runner = BatchRunner::for_model(&deep, 64);
    let reserved = runner.scratch_bytes();
    assert_eq!(
        reserved,
        BatchRunner::for_model(&shallow, 64).scratch_bytes(),
        "arena must not grow with code-section size on the integer path"
    );
    // Each flow buffer is sized by the widest flow in its own domain:
    // the whole program runs on `i16` operands 32 wide (the 10 inputs
    // are narrower) and decodes 3 logits, so that pair of `i16` buffers
    // and that pair of `f32` buffers are all there is — no `codes`
    // buffer, no staging tile, nothing at input width in `f32`.
    assert_eq!(reserved, 2 * (64 * 32 * 2) + 2 * (64 * 3 * 4));

    // The reservation covers everything the op loop touches: serving
    // allocates nothing on the first 64-row call and nothing by the
    // hundredth.
    let mut rng = SeededRng::new(67);
    let inputs: Vec<f32> = (0..64 * 10).map(|_| rng.uniform(-3.0, 3.0)).collect();
    let mut out = Vec::new();
    for call in 1..=100 {
        runner.run(&deep, &inputs, &mut out).expect("run");
        assert_eq!(
            runner.scratch_bytes(),
            reserved,
            "arena grew during 64-row call {call}"
        );
    }
}

/// Quantization grid helpers, as `serve::quant` rounds: to nearest,
/// saturated to the word.
fn q16(v: f32, frac: u32) -> i64 {
    (f64::from(v) * f64::from((1u64 << frac) as f32))
        .round()
        .clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i64
}

fn q32(v: f32, frac: u32) -> i64 {
    (f64::from(v) * f64::from((1u64 << frac) as f32))
        .round()
        .clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i64
}

/// Nearest entry of a sorted book, ties to the smaller one.
fn nearest_code(book: &[f32], v: f32) -> u16 {
    let at = match book.binary_search_by(|b| b.total_cmp(&v)) {
        Ok(i) => i,
        Err(0) => 0,
        Err(i) if i >= book.len() => book.len() - 1,
        Err(i) if (v - book[i - 1]).abs() <= (book[i] - v).abs() => i - 1,
        Err(i) => i,
    };
    at as u16
}

/// The input codebook every op of a [`chain`] encodes through.
const CHAIN_BOOK: [f32; 8] = [-1.5, -0.75, -0.25, 0.0, 0.25, 0.6, 1.0, 1.75];

/// One op of a hand-built chain.
#[derive(Clone, Copy)]
enum Step {
    Dense(Link),
    /// One-value windows: the pools and the residual region change no
    /// value, only who produces the next dense op's input.
    MaxPool,
    AvgPool,
    ResidualBegin,
    ResidualEnd,
}

/// A dense op: ReLU and a re-encode after it, unless it `decodes`.
#[derive(Clone, Copy)]
struct Link {
    outputs: usize,
    /// The op's weight book.
    weights: [f32; 4],
    /// Identity activation and no re-encode: the output op, or the
    /// branch of a residual region.
    decodes: bool,
}

/// Hand-builds a chain over [`CHAIN_BOOK`].
fn chain(rng: &mut SeededRng, features: usize, steps: &[Step]) -> Program<'static> {
    let book = Span {
        start: 0,
        len: CHAIN_BOOK.len(),
    };
    let (mut floats, mut codes) = (CHAIN_BOOK.to_vec(), Vec::new());
    let mut width = features;
    let mut ops = Vec::new();
    for step in steps {
        let unit_window = Geom {
            in_channels: width,
            in_height: 1,
            in_width: 1,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            pad: 0,
            out_height: 1,
            out_width: 1,
        };
        let link = match step {
            Step::Dense(link) => link,
            Step::MaxPool => {
                ops.push(Op::MaxPool(unit_window));
                continue;
            }
            Step::AvgPool => {
                ops.push(Op::AvgPool {
                    geom: unit_window,
                    codebook: book,
                });
                continue;
            }
            Step::ResidualBegin => {
                ops.push(Op::ResidualBegin {
                    skip_codebook: book,
                });
                continue;
            }
            Step::ResidualEnd => {
                ops.push(Op::ResidualEnd {
                    encoder: Some(book),
                });
                continue;
            }
        };
        let weight_book = Span {
            start: floats.len(),
            len: link.weights.len(),
        };
        floats.extend(link.weights);
        let bias = Span {
            start: floats.len(),
            len: link.outputs,
        };
        floats.extend((0..link.outputs).map(|_| rng.uniform(-0.5, 0.5)));
        let weight_codes = Span {
            start: codes.len(),
            len: width * link.outputs,
        };
        codes.extend((0..weight_codes.len).map(|_| usize_in(rng, 0, link.weights.len()) as u16));
        ops.push(Op::Dense {
            inputs: width,
            outputs: link.outputs,
            weight_codes,
            bias,
            weight_book,
            act: if link.decodes {
                Act::Identity
            } else {
                Act::Relu
            },
            encoder: (!link.decodes).then_some(book),
        });
        width = link.outputs;
    }
    Program {
        input_features: features,
        output_features: width,
        virtual_encoder: book,
        ops,
        floats: Cow::Owned(floats),
        codes: Cow::Owned(codes),
    }
}

/// The two-step reference for one row of a [`chain`] under `plan`: codes
/// flow between ops, and a licensed op first maps its input codes
/// through its quantized codebook (`codes → xq[code]`), then takes the
/// dot product — in `i64`, against weights, biases and finish tables
/// re-derived here from the plan's formats. Refused ops run the f32
/// product of weight and input values.
fn chain_reference(program: &Program<'_>, plan: &QuantPlan, row: &[f32]) -> Vec<f32> {
    let floats = &program.floats;
    let slice = |s: Span| &floats[s.start..s.start + s.len];
    let relu = |act: &Act, y: f32| {
        if matches!(act, Act::Relu) {
            y.max(0.0)
        } else {
            y
        }
    };
    let encode = |book: Span, values: &[f32]| -> Vec<u16> {
        values
            .iter()
            .map(|&v| nearest_code(slice(book), v))
            .collect()
    };
    let mut codes = encode(program.virtual_encoder, row);
    // Decoded flow (a residual branch's output) and the skip snapshot.
    let (mut decoded, mut skip) = (Vec::new(), Vec::new());
    let flow = program.flow();
    for ((op, verdict), at) in program.ops.iter().zip(&plan.ops).zip(&flow) {
        let (inputs, outputs, weight_codes, bias, weight_book, act, encoder) = match op {
            Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                weight_book,
                act,
                encoder,
            } => (
                inputs,
                outputs,
                weight_codes,
                bias,
                weight_book,
                act,
                encoder,
            ),
            Op::MaxPool(_) => continue,
            Op::AvgPool { codebook, .. } => {
                let pooled: Vec<f32> = codes
                    .iter()
                    .map(|&c| slice(*codebook)[usize::from(c)] / 1.0)
                    .collect();
                codes = encode(*codebook, &pooled);
                continue;
            }
            Op::ResidualBegin { skip_codebook } => {
                skip = codes
                    .iter()
                    .map(|&c| slice(*skip_codebook)[usize::from(c)])
                    .collect();
                continue;
            }
            Op::ResidualEnd { encoder } => {
                let joined: Vec<f32> = decoded.iter().zip(&skip).map(|(y, s)| y + s).collect();
                codes = encode(encoder.expect("chains re-encode the join"), &joined);
                continue;
            }
            Op::Conv { .. } => panic!("chains have no convolutions"),
        };
        let wcodes = &program.codes[weight_codes.start..weight_codes.start + weight_codes.len];
        let wrow = |o: usize| &wcodes[o * inputs..(o + 1) * inputs];
        let book = at.book.expect("a dense op reads codes");
        let entry =
            |w: u16, x: u16| slice(*weight_book)[usize::from(w)] * slice(book)[usize::from(x)];
        let finished: Vec<f32> = match verdict {
            OpQuant::Licensed(lic) => {
                let bias_q = |o: usize| q32(slice(*bias)[o], lic.acc_frac);
                let xq: Vec<i64> = slice(book).iter().map(|&b| q16(b, lic.x_frac)).collect();
                let xs: Vec<i64> = codes.iter().map(|&c| xq[usize::from(c)]).collect();
                let accs: Vec<i64> = (0..*outputs)
                    .map(|o| {
                        wrow(o).iter().zip(&xs).fold(bias_q(o), |acc, (&w, &x)| {
                            acc + q16(lic.wvals[usize::from(w)], lic.w_frac) * x
                        })
                    })
                    .collect();
                let scale = (1u64 << lic.acc_frac) as f32;
                accs.into_iter()
                    .map(|acc| match lic.finish {
                        FinishPlan::Direct => relu(act, acc as f32 * (1.0 / scale)),
                        FinishPlan::Lut { lo_q, shift, len } => {
                            let lo_q = i64::from(lo_q);
                            let bucket = ((acc - lo_q).max(0) >> shift).min(len as i64 - 1);
                            let step = 1i64 << shift;
                            let center = lo_q + bucket * step + step / 2;
                            relu(act, (center as f64 / f64::from(scale)) as f32)
                        }
                    })
                    .collect()
            }
            _ => (0..*outputs)
                .map(|o| {
                    let sum = wrow(o)
                        .iter()
                        .zip(&codes)
                        .fold(slice(*bias)[o], |acc, (&w, &x)| acc + entry(w, x));
                    relu(act, sum)
                })
                .collect(),
        };
        match encoder {
            Some(enc) => codes = encode(*enc, &finished),
            None => decoded = finished,
        }
    }
    decoded
}

/// What flows into a licensed op is `xq[code]`, written by its
/// producer, and no bit changes: hand-built chains equal the two-step
/// reference at every batch size and stay inside the plan's bound. The
/// first chain licenses throughout (input encoder and composed finish
/// LUTs) and never leaves the quantized domain; in the second an op in
/// the middle is refused as too wide for `i16`, still handed codes, and
/// its f32 re-encode feeds a licensed op; in the third the producers are a max pool, an
/// average pool, a residual entry and a residual join.
#[test]
fn quantized_flow_matches_the_two_step_reference() {
    use Step::{AvgPool, Dense, MaxPool, ResidualBegin, ResidualEnd};
    let plain = [-0.75f32, -0.25, 0.5, 1.0];
    let link = |outputs| Link {
        outputs,
        weights: plain,
        decodes: false,
    };
    let out = |outputs| Link {
        decodes: true,
        ..link(outputs)
    };
    // 19 = 2·8 + 3 inputs and 11 outputs: every remainder of the tile
    // kernel in one op.
    let licensed = [link(11), link(16), link(9), out(3)].map(Dense);
    let wide = Link {
        weights: plain.map(|w| w * 1.0e6),
        ..link(16)
    };
    let mixed = [link(11), wide, link(9), link(12), out(3)].map(Dense);
    let passed_through = [
        Dense(link(11)),
        MaxPool,
        Dense(link(16)),
        AvgPool,
        Dense(link(9)),
        ResidualBegin,
        Dense(out(9)),
        ResidualEnd,
        Dense(out(3)),
    ];
    let cases: [(&[Step], &[&str]); 3] = [
        (&licensed, &["i16", "i16", "i16", "i16"]),
        (&mixed, &["i16", "codes", "i16", "i16", "i16"]),
        (
            &passed_through,
            &[
                "i16", "codes", "i16", "codes", "i16", "codes", "i16", "f32", "i16",
            ],
        ),
    ];
    for (case, (steps, reads)) in cases.into_iter().enumerate() {
        let mut rng = SeededRng::new(1400 + case as u64);
        let program = chain(&mut rng, 19, steps);
        let exact = CompiledModel::from_program(&program).expect("chain compiles");
        let mut model = exact.clone();
        model.quantize().expect("chain quantizes");
        let plan = model.quant_plan().expect("plan").clone();
        assert_eq!(model.read_domains(&plan), reads, "case {case}");
        for (verdict, read) in plan.ops.iter().zip(reads) {
            assert_eq!(
                verdict.is_licensed(),
                *read == "i16",
                "case {case}: {verdict:?} reads {read}"
            );
        }
        if case == 1 {
            assert_eq!(plan.fallbacks(), 1, "{:?}", plan.ops);
            assert_eq!(
                plan.ops[1],
                OpQuant::Fallback(FallbackReason::ValueRangeTooWide)
            );
            assert_eq!(model.kernel_path(), "mixed");
        }

        let inputs: Vec<f32> = (0..64 * 19).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let want: Vec<f32> = inputs
            .chunks(19)
            .flat_map(|row| chain_reference(&program, &plan, row))
            .collect();
        let mut runner = BatchRunner::new();
        for bs in (1..=17usize).chain([64]) {
            let (mut got, mut out) = (Vec::new(), Vec::new());
            for chunk in inputs.chunks(bs * 19) {
                runner.run(&model, chunk, &mut out).expect("chunk");
                got.extend_from_slice(&out);
            }
            assert_eq!(
                bits(&want),
                bits(&got),
                "case {case}, batch size {bs}: fused flow differs from the two-step reference"
            );
        }
        let exact: Vec<f32> = exact.infer_batch(&inputs).expect("f32").concat();
        let worst = (want.iter().zip(&exact))
            .map(|(q, e)| f64::from((q - e).abs()))
            .fold(0.0, f64::max);
        assert!(
            worst <= plan.output_error,
            "case {case}: deviates {worst} from f32, bound {}",
            plan.output_error
        );
    }
}
