//! Benchmarks behind the paper's figures: the accelerator simulation
//! (Figures 11/13/15), shape-driven projection onto real topologies
//! (Figure 16), EDP configuration search step (Figure 12) and the
//! baseline analytic models.

use rapidnn::accel::{AcceleratorConfig, OpShape, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::baselines::{
    dadiannao, gpu_gtx1080, imagenet_layer_shapes, isaac, pipelayer, Workload, WorkloadKind,
};
use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::SyntheticSpec;
use rapidnn::nn::topology;
use rapidnn::tensor::SeededRng;
use rapidnn_bench::{BenchmarkId, Criterion};
use std::hint::black_box;

fn model_for_sim() -> ReinterpretedNetwork {
    let mut rng = SeededRng::new(11);
    let data = SyntheticSpec::new(784, 10, 1.0)
        .generate(16, &mut rng)
        .unwrap();
    let mut net = topology::mlp(784, &[256, 256], 10, &mut rng).unwrap();
    ReinterpretedNetwork::build(
        &mut net,
        data.inputs(),
        &ReinterpretOptions {
            weight_clusters: 64,
            input_clusters: 64,
            max_sample_rows: 16,
            ..ReinterpretOptions::default()
        },
        &mut rng,
    )
    .unwrap()
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_sim");
    let shapes = op_shapes(&Program::from_reinterpreted(&model_for_sim()));
    for &chips in &[1usize, 8] {
        let simulator = Simulator::new(AcceleratorConfig::with_chips(chips));
        group.bench_with_input(
            BenchmarkId::new("simulate_mlp", chips),
            &simulator,
            |b, sim| {
                b.iter(|| sim.simulate(black_box(&shapes)));
            },
        );
    }
    let simulator = Simulator::new(AcceleratorConfig::default());
    for name in ["AlexNet", "VGGNet", "GoogLeNet", "ResNet"] {
        let layers = imagenet_layer_shapes(name);
        let shapes: Vec<OpShape> = layers
            .iter()
            .enumerate()
            .map(|(i, s)| OpShape::Neuron {
                neurons: s.neurons,
                edges: s.edges,
                weight_rows: 64,
                input_rows: 64,
                activation_rows: 0,
                encoder_rows: if i + 1 == layers.len() { 0 } else { 64 },
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("simulate_imagenet", name),
            &shapes,
            |b, shapes| {
                b.iter(|| simulator.simulate(black_box(shapes)));
            },
        );
    }
    group.finish();
}

fn bench_baseline_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_baselines");
    let workload = Workload::new("VGGNet", 15_500_000_000, WorkloadKind::Conv);
    for model in [gpu_gtx1080(), dadiannao(), isaac(), pipelayer()] {
        group.bench_with_input(
            BenchmarkId::new("latency_energy", model.name()),
            &model,
            |b, m| {
                b.iter(|| {
                    (
                        m.latency_s(black_box(&workload)),
                        m.energy_j(black_box(&workload)),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_edp_search_step(c: &mut Criterion) {
    // One cell of Figure 12's configuration grid: simulate + EDP.
    let mut group = c.benchmark_group("figures_edp");
    let model = model_for_sim();
    let simulator = Simulator::new(AcceleratorConfig::default());
    group.bench_function("edp_point", |b| {
        b.iter(|| {
            let program = Program::from_reinterpreted(black_box(&model));
            let report = simulator.simulate(&op_shapes(&program));
            (report.edp(), model.memory_bytes())
        });
    });
    group.finish();
}

rapidnn_bench::bench_main!(
    bench_simulation,
    bench_baseline_models,
    bench_edp_search_step
);
