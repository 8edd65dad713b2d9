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
//! * wide (v1) and bit-packed (v2) artifacts agree bit-for-bit on the
//!   integer path, since quantized tiles are streamed straight out of
//!   the packed sections at load time;
//! * the clamp specializations (verified-identity dense, pooling and
//!   residual paths, hoisted conv padding lookup) never change bits;
//! * licensed ops stop charging the batch arena for weight tiles, so
//!   a quantized runner's scratch no longer scales with the model's
//!   code-section size.

use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::{benchmark_dataset, SyntheticSpec};
use rapidnn::nn::topology::{self, Benchmark};
use rapidnn::nn::{Trainer, TrainerConfig};
use rapidnn::serve::{BatchRunner, CompiledModel};
use rapidnn::tensor::SeededRng;
use rapidnn_prop::usize_in;

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
/// outputs, and the integer path is bit-identical across batch sizes.
#[test]
fn integer_path_stays_within_licensed_error_bound() {
    let mut any_licensed = false;
    for seed in 0..7u64 {
        let mut rng = SeededRng::new(900 + seed);
        let mut features = usize_in(&mut rng, 4, 10);
        let classes = usize_in(&mut rng, 2, 4);
        let depth = usize_in(&mut rng, 1, 3);
        let mut hidden: Vec<usize> = (0..depth).map(|_| usize_in(&mut rng, 4, 12)).collect();
        if seed == 6 {
            // Every remainder of the integer tile kernel in the first
            // dense op: 8-lane steps plus a scalar tail (19 = 2·8 + 3)
            // and an odd last output.
            (features, hidden[0]) = (19, 11);
        }
        let model = compiled_mlp(&mut rng, features, &hidden, classes, 8);

        let mut quantized = model.clone();
        quantized.quantize().expect("quantize");
        let plan = quantized.quant_plan().expect("plan").clone();
        any_licensed |= plan.licensed() > 0;
        if seed == 6 {
            assert_eq!(quantized.dense_shapes()[0], (19, 11));
            assert_eq!(quantized.kernel_path(), "int16", "tile-remainder case");
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

/// Wide (v1) and bit-packed (v2) artifacts materialize identical
/// integer tiles: the quantizer streams codes via `CodePool::map_range`
/// in both layouts, so the integer path cannot tell them apart.
#[test]
fn packed_and_wide_artifacts_agree_on_the_integer_path() {
    let mut rng = SeededRng::new(77);
    let model = compiled_mlp(&mut rng, 8, &[16, 12], 3, 8);
    let mut v1 = CompiledModel::from_bytes(&model.to_bytes_v1()).expect("v1 load");
    let mut v2 = CompiledModel::from_bytes(&model.to_bytes()).expect("v2 load");
    v1.quantize().expect("v1 quantize");
    v2.quantize().expect("v2 quantize");
    assert_eq!(v1.licensed_ops(), v2.licensed_ops());
    assert!(v1.licensed_ops() > 0, "expected licensed ops");

    let inputs: Vec<f32> = (0..64 * 8).map(|_| rng.uniform(-3.0, 3.0)).collect();
    let mut out1 = Vec::new();
    let mut out2 = Vec::new();
    BatchRunner::for_model(&v1, 64)
        .run(&v1, &inputs, &mut out1)
        .expect("v1 run");
    BatchRunner::for_model(&v2, 64)
        .run(&v2, &inputs, &mut out2)
        .expect("v2 run");
    assert_eq!(bits(&out1), bits(&out2), "v1 vs v2 integer outputs");
}

/// The clamp specializations — identity clamps on verified models
/// through the dense, pooling and residual paths, plus the hoisted conv
/// padding lookup — must not change a single bit. Exercised on a CNN
/// (conv + pooling) and an MLP, verified vs unverified.
#[test]
fn clamp_specialization_is_bit_identical_across_verification() {
    // CNN: convs with padding and pooling layers.
    let mut rng = SeededRng::new(31);
    let data = benchmark_dataset(Benchmark::Cifar10, 60, &mut rng).expect("data");
    let (train, _) = data.split(0.8);
    let mut net = Benchmark::Cifar10.build_reduced(16, &mut rng).expect("net");
    let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
    trainer
        .fit(&mut net, train.inputs(), train.labels(), 2)
        .expect("fit");
    let opts = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let network =
        ReinterpretedNetwork::build(&mut net, train.inputs(), &opts, &mut rng).expect("build");
    let cnn = CompiledModel::from_reinterpreted(&network).expect("compile");

    let mut rng2 = SeededRng::new(32);
    let mlp = compiled_mlp(&mut rng2, 9, &[10], 3, 8);

    for model in [cnn, mlp] {
        let mut verified = model.clone();
        verified.verify().expect("verify");
        let features = model.input_features();
        let inputs: Vec<f32> = (0..24 * features).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut plain_out = Vec::new();
        let mut verified_out = Vec::new();
        BatchRunner::new()
            .run(&model, &inputs, &mut plain_out)
            .expect("unverified run");
        BatchRunner::new()
            .run(&verified, &inputs, &mut verified_out)
            .expect("verified run");
        assert_eq!(
            bits(&plain_out),
            bits(&verified_out),
            "verification changed inference bits"
        );
    }
}

/// Licensed ops contribute no weight-decode scratch: quantizing a model
/// shrinks the runner's arena by at least the dense weight tiles.
#[test]
fn quantized_arena_skips_weight_tiles() {
    let mut rng = SeededRng::new(55);
    let model = compiled_mlp(&mut rng, 12, &[48, 48], 4, 16);
    let mut quantized = model.clone();
    quantized.quantize().expect("quantize");
    assert!(quantized.licensed_ops() > 0);

    let f32_arena = BatchRunner::for_model(&model, 64).scratch_bytes();
    let q_arena = BatchRunner::for_model(&quantized, 64).scratch_bytes();
    // The 48x48 layer alone costs the f32 path a u16 weight-code tile
    // (plus an f32 decoded matrix) the integer path never reserves; the
    // margin only demands the code tile since the integer path adds a
    // small quantized-input tile of its own.
    let weight_tiles = 48 * 48 * 2;
    assert!(
        q_arena + weight_tiles <= f32_arena,
        "quantized arena {q_arena} not smaller than f32 arena {f32_arena} by {weight_tiles}"
    );
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

    // The reservation covers everything the op loop stages (the Madd
    // kernel's four-row input tile included): serving allocates nothing
    // on the first 64-row call and nothing by the hundredth.
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
