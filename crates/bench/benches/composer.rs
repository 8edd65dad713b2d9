//! Benchmarks of the DNN-composer kernels: k-means clustering, codebook
//! construction (flat and tree), activation-table builds, full-network
//! reinterpretation and the quality estimate, the float training its
//! retrain step runs (the GEMM shapes of the tiny MNIST MLP and the
//! first CIFAR conv, and the three-epoch fit of
//! `PipelineConfig::tiny_for_tests`), and the other phases of that
//! pipeline at their real sizes: its synthetic data, a He-initialised
//! 784 -> 32 layer, and the whole run.

use rapidnn::composer::kmeans::{cluster, cluster_naive_init, KmeansConfig};
use rapidnn::composer::{
    ActivationTable, Codebook, QuantizationScheme, ReinterpretOptions, ReinterpretedNetwork,
    TreeCodebook,
};
use rapidnn::data::{benchmark_dataset, SyntheticSpec};
use rapidnn::nn::topology::{self, Benchmark};
use rapidnn::nn::{Activation, Trainer, TrainerConfig};
use rapidnn::tensor::{gemm, Initializer, SeededRng, Shape};
use rapidnn::{Pipeline, PipelineConfig};
use rapidnn_bench::{BenchmarkId, Criterion};
use std::hint::black_box;

fn population(n: usize) -> Vec<f32> {
    let mut rng = SeededRng::new(42);
    (0..n).map(|_| rng.normal()).collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    let values = population(8192);
    for &k in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("plus_plus", k), &k, |b, &k| {
            let mut rng = SeededRng::new(1);
            b.iter(|| cluster(black_box(&values), k, &KmeansConfig::default(), &mut rng).unwrap());
        });
    }
    // The size the composer clusters at (any larger population is
    // subsampled to `KmeansConfig::default().max_samples` = 16 384), and
    // mnist-tiny's first-layer input population (64 rows x 784), which
    // is subsampled down to it.
    for n in [16_384usize, 50_176] {
        let values = population(n);
        for &k in &[8usize, 64] {
            group.bench_with_input(
                BenchmarkId::new(&format!("plus_plus_{n}"), k),
                &k,
                |b, &k| {
                    let mut rng = SeededRng::new(1);
                    b.iter(|| {
                        cluster(black_box(&values), k, &KmeansConfig::default(), &mut rng).unwrap()
                    });
                },
            );
        }
    }
    // Ablation: naive init vs k-means++ (DESIGN.md §6).
    group.bench_function("naive_init_64", |b| {
        let mut rng = SeededRng::new(1);
        b.iter(|| {
            cluster_naive_init(black_box(&values), 64, &KmeansConfig::default(), &mut rng).unwrap()
        });
    });
    group.finish();
}

fn bench_codebooks(c: &mut Criterion) {
    let mut group = c.benchmark_group("codebook");
    let values = population(4096);
    group.bench_function("flat_64", |b| {
        let mut rng = SeededRng::new(2);
        b.iter(|| Codebook::from_kmeans(black_box(&values), 64, &mut rng).unwrap());
    });
    group.bench_function("tree_depth6", |b| {
        let mut rng = SeededRng::new(2);
        b.iter(|| TreeCodebook::build(black_box(&values), 6, &mut rng).unwrap());
    });
    let cb = Codebook::from_kmeans(&values, 64, &mut SeededRng::new(3)).unwrap();
    group.bench_function("encode_4096", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &v in &values {
                acc += u32::from(cb.encode(black_box(v)));
            }
            acc
        });
    });
    group.finish();
}

fn bench_activation_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("activation_table");
    // Ablation: uniform vs non-linear placement (DESIGN.md §6).
    for (name, scheme) in [
        ("uniform", QuantizationScheme::Uniform),
        ("nonlinear", QuantizationScheme::NonLinear),
    ] {
        group.bench_function(&format!("build_sigmoid_64_{name}"), |b| {
            b.iter(|| ActivationTable::build(Activation::Sigmoid, -8.0, 8.0, 64, scheme).unwrap());
        });
    }
    let table = ActivationTable::build(
        Activation::Sigmoid,
        -8.0,
        8.0,
        64,
        QuantizationScheme::NonLinear,
    )
    .unwrap();
    group.bench_function("lookup_x1000", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..1000 {
                acc += table.lookup(black_box(i as f32 * 0.016 - 8.0));
            }
            acc
        });
    });
    group.finish();
}

fn bench_reinterpretation(c: &mut Criterion) {
    let mut group = c.benchmark_group("reinterpret");
    group.sample_size(10);
    let mut rng = SeededRng::new(5);
    let data = SyntheticSpec::new(784, 10, 1.0)
        .generate(32, &mut rng)
        .unwrap();
    let net = topology::mlp(784, &[128, 128], 10, &mut rng).unwrap();
    group.bench_function("mlp_784_128_128_10_w16u16", |b| {
        b.iter(|| {
            let mut clone = net.clone();
            ReinterpretedNetwork::build(
                &mut clone,
                black_box(data.inputs()),
                &ReinterpretOptions {
                    weight_clusters: 16,
                    input_clusters: 16,
                    max_sample_rows: 16,
                    ..ReinterpretOptions::default()
                },
                &mut rng,
            )
            .unwrap()
        });
    });
    // The quality estimate of `Pipeline::run(tiny_for_tests)`: the
    // reinterpreted model over its 16 validation rows.
    let report = Pipeline::new(PipelineConfig::tiny_for_tests())
        .run(&mut SeededRng::new(42))
        .unwrap();
    group.bench_function("evaluate_mnist_tiny_16", |b| {
        b.iter(|| {
            report
                .compose
                .reinterpreted
                .evaluate(black_box(&report.validation))
                .unwrap()
        });
    });
    group.finish();
}

fn bench_synthetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthetic");
    // The dataset of `Pipeline::run(tiny_for_tests)`.
    group.bench_function("mnist_80x784", |b| {
        let mut rng = SeededRng::new(42);
        b.iter(|| benchmark_dataset(Benchmark::Mnist, 80, &mut rng).unwrap());
    });
    group.finish();
}

fn bench_init(c: &mut Criterion) {
    let mut group = c.benchmark_group("init");
    // The first layer of mnist-tiny.
    group.bench_function("he_normal_784x32", |b| {
        let mut rng = SeededRng::new(42);
        b.iter(|| rng.init_tensor(Shape::matrix(32, 784), Initializer::HeNormal, 784, 32));
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.bench_function("tiny_for_tests", |b| {
        let mut rng = SeededRng::new(42);
        b.iter(|| {
            Pipeline::new(PipelineConfig::tiny_for_tests())
                .run(&mut rng)
                .unwrap()
        });
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = SeededRng::new(6);
    // Forward and dW of the 784 -> 32 layer at batch 32, a square
    // mid-size product, and the first 3x3 conv over a 32x32 image.
    for &(m, k, n) in &[(32, 784, 32), (32, 32, 784), (64, 512, 512), (6, 27, 1024)] {
        let a = rng.uniform_tensor(Shape::matrix(m, k), -1.0, 1.0);
        let b = rng.uniform_tensor(Shape::matrix(k, n), -1.0, 1.0);
        group.bench_function(&format!("{m}x{k}x{n}"), |bench| {
            bench.iter(|| gemm(black_box(&a), black_box(&b)).unwrap());
        });
    }
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit");
    // The training phase of `Pipeline::run(PipelineConfig::tiny_for_tests())`.
    let mut rng = SeededRng::new(42);
    let data = benchmark_dataset(Benchmark::Mnist, 80, &mut rng).unwrap();
    let (train, _) = data.split(0.8);
    let net = Benchmark::Mnist.build_reduced(16, &mut rng).unwrap();
    group.bench_function("mnist_tiny_3_epochs", |b| {
        b.iter(|| {
            let mut net = net.clone();
            let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
            trainer
                .fit(&mut net, train.inputs(), train.labels(), 3)
                .unwrap()
        });
    });
    group.finish();
}

rapidnn_bench::bench_main!(
    bench_kmeans,
    bench_codebooks,
    bench_activation_tables,
    bench_reinterpretation,
    bench_synthetic,
    bench_init,
    bench_gemm,
    bench_fit,
    bench_pipeline
);
