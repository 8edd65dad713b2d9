//! Cross-crate integration tests: the full RAPIDNN flow from synthetic
//! data to hardware simulation.

use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::composer::{Composer, ComposerConfig, ReinterpretOptions, ReinterpretedNetwork};
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
    let net = ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng).unwrap();
    CompiledModel::from_reinterpreted(&net).unwrap()
}

/// No composed model carries dead data: the analyzer's liveness notes
/// read zero on mnist-tiny and deep-mlp. Every weight centroid owns the
/// weights it was fitted to, product tables span exactly the input
/// book, and the analyzer's hull over every code combination has so far
/// always covered the float calibration range each codebook and LUT was
/// fitted to — an observation, not a theorem, which this test keeps
/// checked.
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
