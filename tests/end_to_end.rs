//! Cross-crate integration tests: the full RAPIDNN flow from synthetic
//! data to hardware simulation.

use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::composer::{
    Composer, ComposerConfig, NeuronStage, ReinterpretOptions, ReinterpretedNetwork, Stage,
};
use rapidnn::data::{benchmark_dataset, SyntheticSpec};
use rapidnn::nn::topology::Benchmark;
use rapidnn::nn::{Activation, ActivationLayer, Dense, Network, Trainer, TrainerConfig};
use rapidnn::serve::CompiledModel;
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};

fn tiny_config() -> PipelineConfig {
    PipelineConfig::tiny_for_tests()
}

#[test]
fn pipeline_runs_for_every_benchmark_kind() {
    // One MLP and one CNN benchmark, heavily reduced.
    for benchmark in [Benchmark::Mnist, Benchmark::Cifar10] {
        let mut rng = SeededRng::new(1000 + benchmark.name().len() as u64);
        let mut config = tiny_config();
        config.benchmark = benchmark;
        config.reduction = 16;
        config.samples = 120;
        config.train_epochs = 3;
        let report = Pipeline::new(config).run(&mut rng).unwrap();
        assert!(report.simulation.hardware.latency_ns > 0.0, "{benchmark}");
        assert!(report.compose.final_error <= 1.0);
        assert_eq!(
            report.workload.kind() == rapidnn::baselines::WorkloadKind::Conv,
            benchmark.is_type2()
        );
    }
}

#[test]
fn composition_keeps_accuracy_near_float_baseline() {
    let mut rng = SeededRng::new(77);
    let data = benchmark_dataset(Benchmark::Mnist, 300, &mut rng).unwrap();
    let (train, val) = data.split(0.7);
    let mut net = Benchmark::Mnist.build_reduced(8, &mut rng).unwrap();
    let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
    trainer
        .fit(&mut net, train.inputs(), train.labels(), 8)
        .unwrap();

    let composer = Composer::new(
        ComposerConfig::default()
            .with_weights(32)
            .with_inputs(32)
            .with_max_iterations(3),
    );
    let outcome = composer.compose(&mut net, &train, &val, &mut rng).unwrap();
    assert!(
        outcome.delta_e <= 0.10,
        "encoded model lost too much accuracy: Δe = {}",
        outcome.delta_e
    );
}

#[test]
fn encoded_inference_is_deterministic_and_self_consistent() {
    let mut rng = SeededRng::new(5);
    let report = Pipeline::new(tiny_config()).run(&mut rng).unwrap();
    let model = &report.compose.reinterpreted;
    let sample = report.validation.sample(0);

    let a = model.infer_sample(sample.as_slice()).unwrap();
    let b = model.infer_sample(sample.as_slice()).unwrap();
    assert_eq!(a, b, "encoded inference must be deterministic");

    // Batch inference must agree with per-sample inference.
    let logits = model.infer_batch(report.validation.inputs()).unwrap();
    let row0: Vec<f32> = logits.as_slice()[..model.output_features()].to_vec();
    assert_eq!(row0, a);
}

#[test]
fn accelerator_simulation_scales_sanely_with_chips() {
    let mut rng = SeededRng::new(8);
    let report = Pipeline::new(tiny_config()).run(&mut rng).unwrap();
    let model = &report.compose.reinterpreted;

    let shapes = op_shapes(&Program::from_reinterpreted(model));
    let one = Simulator::new(AcceleratorConfig::with_chips(1)).simulate(&shapes);
    let eight = Simulator::new(AcceleratorConfig::with_chips(8)).simulate(&shapes);
    // Same functional network: identical op counts; energy within noise;
    // more chips never slower.
    assert_eq!(one.hardware.mac_ops, eight.hardware.mac_ops);
    assert!(eight.hardware.latency_ns <= one.hardware.latency_ns);
    assert!(eight.config.total_area_mm2() > one.config.total_area_mm2());
}

#[test]
fn quality_improves_with_codebook_size_end_to_end() {
    let mut rng = SeededRng::new(13);
    let data = benchmark_dataset(Benchmark::Har, 400, &mut rng).unwrap();
    let (train, val) = data.split(0.7);
    let mut net = Benchmark::Har.build_reduced(8, &mut rng).unwrap();
    let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
    trainer
        .fit(&mut net, train.inputs(), train.labels(), 8)
        .unwrap();

    let mut errors = Vec::new();
    for &k in &[2usize, 8, 64] {
        let mut clone = net.clone();
        let composer = Composer::new(
            ComposerConfig::default()
                .with_weights(k)
                .with_inputs(k)
                .with_max_iterations(1),
        );
        let outcome = composer
            .compose(&mut clone, &train, &val, &mut rng)
            .unwrap();
        errors.push(outcome.final_error);
    }
    // Figure 10's monotone trend, allowing small evaluation noise.
    assert!(
        errors[2] <= errors[0] + 0.02,
        "k=64 ({}) should beat k=2 ({})",
        errors[2],
        errors[0]
    );
}

#[test]
fn rapidnn_beats_gpu_model_on_throughput_and_energy() {
    // The headline claim, end to end: the simulated accelerator beats the
    // GPU baseline model on the same workload.
    let mut rng = SeededRng::new(21);
    let report = Pipeline::new(tiny_config()).run(&mut rng).unwrap();
    let gpu = rapidnn::baselines::gpu_gtx1080();
    let gpu_latency = gpu.latency_s(&report.workload);
    let gpu_energy = gpu.energy_j(&report.workload);
    let rapid_latency = report.simulation.hardware.pipeline_interval_ns * 1e-9;
    let rapid_energy = report.simulation.hardware.energy_pj * 1e-12;
    assert!(
        rapid_latency < gpu_latency,
        "rapid {rapid_latency}s vs gpu {gpu_latency}s"
    );
    assert!(
        rapid_energy < gpu_energy,
        "rapid {rapid_energy}J vs gpu {gpu_energy}J"
    );
}

#[test]
fn rna_sharing_preserves_functionality_end_to_end() {
    let mut rng = SeededRng::new(34);
    let mut config = tiny_config();
    config.benchmark = Benchmark::Cifar10;
    config.reduction = 16;
    config.samples = 100;
    let report = Pipeline::new(config).run(&mut rng).unwrap();
    let shared = report.compose.reinterpreted.with_rna_sharing(0.3, &mut rng);
    let err = shared.evaluate(&report.validation).unwrap();
    assert!((0.0..=1.0).contains(&err));
}

/// The 16 -> 8x24 -> 4 sigmoid MLP the benchmark calls deep-mlp.
fn deep_mlp(seed: u64) -> CompiledModel {
    CompiledModel::from_reinterpreted(&deep_mlp_network(seed)).unwrap()
}

/// [`deep_mlp`] as the composer builds it.
fn deep_mlp_network(seed: u64) -> ReinterpretedNetwork {
    let mut rng = SeededRng::new(seed);
    let mut net = Network::new(16);
    let mut width = 16;
    for _ in 0..8 {
        net.push(Dense::new(width, 24, &mut rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        width = 24;
    }
    net.push(Dense::new(width, 4, &mut rng));
    let data = SyntheticSpec::new(16, 4, 2.0)
        .generate(64, &mut rng)
        .unwrap();
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng).unwrap()
}

/// No composed model carries dead data: the analyzer's liveness notes
/// read zero on mnist-tiny and deep-mlp. Every weight centroid owns the
/// weights it was fitted to, and the analyzer's hull over every code
/// combination has so far always covered the float calibration range
/// each codebook and LUT was fitted to — an observation, not a theorem,
/// which this test keeps checked.
#[test]
fn composed_models_carry_no_dead_data() {
    for seed in [1, 2, 3, 42, 43] {
        let report = Pipeline::new(tiny_config())
            .run(&mut SeededRng::new(seed))
            .unwrap();
        for (name, model) in [
            ("mnist-tiny", report.compile().unwrap()),
            ("deep-mlp", deep_mlp(seed)),
        ] {
            let analysis = model.analyze();
            assert_eq!(
                analysis.liveness().total(),
                0,
                "{name}, seed {seed}:\n{analysis}"
            );
        }
    }
}

/// FNV-1a 64, the artifact format's own checksum.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bits of `BatchRunner::run` over 1, 7, 8 and 64 seeded rows in
/// U(-3, 3), hashed in that order: the serial path, a partial block,
/// one block and a full batch.
fn output_bits_hash(model: &CompiledModel) -> u64 {
    let mut rng = SeededRng::new(17);
    let mut runner = rapidnn::serve::BatchRunner::new();
    let mut bytes = Vec::new();
    for rows in [1, 7, 8, 64] {
        let inputs: Vec<f32> = (0..rows * model.input_features())
            .map(|_| rng.uniform(-3.0, 3.0))
            .collect();
        let mut out = Vec::new();
        runner.run(model, &inputs, &mut out).unwrap();
        bytes.extend(out.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }
    fnv1a64(bytes)
}

/// Asserts `to_bytes()` of `build(seed)` is `len` bytes hashing to the
/// pinned value, for each `(seed, hash)` pin.
fn assert_artifacts_pinned(
    name: &str,
    build: impl Fn(u64) -> CompiledModel,
    len: usize,
    pins: &[(u64, u64)],
) {
    for &(seed, hash) in pins {
        let bytes = build(seed).to_bytes();
        assert_eq!(bytes.len(), len, "{name}, seed {seed}");
        assert_eq!(fnv1a64(bytes), hash, "{name}, seed {seed}");
    }
}

/// mnist-tiny: the tiny test pipeline's compiled model.
fn mnist_tiny(seed: u64) -> CompiledModel {
    Pipeline::new(tiny_config())
        .run(&mut SeededRng::new(seed))
        .unwrap()
        .compile()
        .unwrap()
}

/// Same bits: a training, composer or serving change that is meant to
/// leave every model as it was must reproduce these. The artifact
/// hashes pin `to_bytes()` of mnist-tiny and deep-mlp at fifteen seeds;
/// the output hashes pin what seed 42's models serve, f32 and after
/// `quantize()`. Training calls libm (`exp`), so a platform whose libm
/// rounds differently may build other models; `deep_model_bytes_are_pinned`
/// (in `rapidnn-serve`) is the platform-independent check.
#[test]
fn composed_models_and_their_outputs_are_pinned() {
    assert_artifacts_pinned(
        "mnist-tiny",
        mnist_tiny,
        10_848,
        &[
            (42, 0x916a_d14d_f62b_4790),
            (43, 0xc28b_6b59_3b60_7fe0),
            (1, 0x19b9_fcc1_a618_fd69),
            (2, 0xeb0b_0749_52e1_35f4),
            (3, 0x88c2_f1e9_495a_4684),
            (5, 0x2bfa_8ec4_89bd_9d2f),
            (7, 0x8b02_03fa_32f5_c808),
            (11, 0xdb87_0942_e995_d39e),
            (17, 0xe290_5085_f149_a2e8),
            (99, 0x17f9_a3ff_1bbb_14ed),
        ],
    );
    assert_artifacts_pinned(
        "deep-mlp",
        deep_mlp,
        8_540,
        &[
            (42, 0x99a9_30d1_c284_2be1),
            (43, 0xfaf0_0748_9271_99ea),
            (1, 0x3669_0864_cef3_8469),
            (2, 0xfc7c_83c8_8f2f_a163),
            (3, 0x8f59_9c92_f621_3ff4),
        ],
    );
    let outputs = [
        (
            "mnist-tiny",
            mnist_tiny(42),
            0x7d91_60f2_297b_b96d,
            0x7353_6854_1b04_5057,
        ),
        (
            "deep-mlp",
            deep_mlp(42),
            0x48b0_fed4_ca19_6939,
            0xf87c_d39d_8a56_c01f,
        ),
    ];
    for (name, mut model, f32_hash, int16_hash) in outputs {
        assert_eq!(output_bits_hash(&model), f32_hash, "{name}, f32");
        model.quantize().unwrap();
        assert_eq!(output_bits_hash(&model), int16_hash, "{name}, int16");
    }
}

/// The neuron stages of `stages`, residual branches inline, in the
/// order `Program::from_reinterpreted` lowers them.
fn neuron_stages<'s>(stages: &'s [Stage], out: &mut Vec<&'s NeuronStage>) {
    for stage in stages {
        match stage {
            Stage::Neuron(n) => out.push(n),
            Stage::Residual { branch, .. } => neuron_stages(branch, out),
            Stage::MaxPool(_) | Stage::AvgPool { .. } => {}
        }
    }
}

/// The artifact stores each neuron op's weight books, not the `w × u`
/// product tables the composer builds from them: expanding every book
/// against the codebook its op's input is encoded through
/// (`Program::flow`) reproduces `ProductTable::products()` bit for bit,
/// on every pinned seed of mnist-tiny and deep-mlp and on a composed
/// CNN, so the program holds everything the tables did.
#[test]
fn weight_books_expand_to_the_composers_product_tables() {
    let cnn = {
        let mut rng = SeededRng::new(42);
        let data = benchmark_dataset(Benchmark::Cifar10, 40, &mut rng).unwrap();
        let mut net = Benchmark::Cifar10.build_reduced(16, &mut rng).unwrap();
        let options = ReinterpretOptions {
            weight_clusters: 8,
            input_clusters: 8,
            ..ReinterpretOptions::default()
        };
        ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng).unwrap()
    };
    let tiny = [42, 43, 1, 2, 3, 5, 7, 11, 17, 99].map(|seed| {
        let report = Pipeline::new(tiny_config())
            .run(&mut SeededRng::new(seed))
            .unwrap();
        (format!("mnist-tiny {seed}"), report.compose.reinterpreted)
    });
    let deep = [42, 43, 1, 2, 3].map(|seed| (format!("deep-mlp {seed}"), deep_mlp_network(seed)));
    let networks = tiny
        .into_iter()
        .chain(deep)
        .chain([("cifar-10 r16".into(), cnn)]);
    let mut convs = 0;
    for (name, network) in networks {
        let program = Program::from_reinterpreted(&network);
        let mut stages = Vec::new();
        neuron_stages(network.stages(), &mut stages);
        let ops = program.ops.iter().zip(program.flow());
        let neurons: Vec<_> = ops
            .filter_map(|(op, at)| Some((op.neuron()?, at)))
            .collect();
        assert_eq!(neurons.len(), stages.len(), "{name}");
        for (oi, ((n, at), stage)) in neurons.iter().zip(stages).enumerate() {
            convs += usize::from(n.weight_books.len() > 1);
            let xs = at
                .book
                .expect("a neuron op reads codes")
                .slice(&program.floats);
            let tables = stage.product_tables();
            assert_eq!(n.weight_books.len(), tables.len(), "{name}, op {oi}");
            for (book, table) in n.weight_books.iter().zip(tables) {
                let expanded: Vec<u32> = (book.slice(&program.floats).iter())
                    .flat_map(|&w| xs.iter().map(move |&x| (w * x).to_bits()))
                    .collect();
                let products: Vec<u32> = table.products().iter().map(|p| p.to_bits()).collect();
                assert_eq!(expanded, products, "{name}, op {oi}");
            }
        }
    }
    assert!(convs > 0, "the CNN has a conv with one book per channel");
}
