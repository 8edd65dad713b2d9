//! The benchmark's fixed models, the artifacts uploaded for them, the
//! seeded request rows, and the expected outputs every answer is
//! compared against bit for bit.
//!
//! Models are always built with [`MODEL_SEED`]; `--seed` drives only
//! the request rows and arrival schedules, so two runs with different
//! seeds serve the same tables.

use rapidnn::analyze::{inject_dead_rows, Program};
use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::SyntheticSpec;
use rapidnn::nn::{Activation, ActivationLayer, Dense, Network};
use rapidnn::serve::CompiledModel;
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};

pub const MODEL_SEED: u64 = 42;
/// Same shape as [`MODEL_SEED`]'s model, other weights: hot-swap's "B".
pub const OTHER_MODEL_SEED: u64 = 43;
/// Request rows generated per run; requests cycle through them.
pub const ROWS: usize = 2048;
/// Dead product-table rows padded onto the artifact the optimizer
/// variant uploads.
pub const DEAD_ROWS: usize = 8;

/// A composed network and its compiled form.
pub struct Composed {
    pub net: ReinterpretedNetwork,
    pub model: CompiledModel,
}

/// `mnist-tiny`: 784 -> 10, 3 ops, the model of `BENCH_serve.json`.
pub fn mnist_tiny(seed: u64) -> Composed {
    let mut rng = SeededRng::new(seed);
    let report = Pipeline::new(PipelineConfig::tiny_for_tests())
        .run(&mut rng)
        .expect("tiny pipeline runs");
    let model = report.compile().expect("tiny model compiles");
    Composed {
        net: report.compose.reinterpreted,
        model,
    }
}

const DEEP_FEATURES: usize = 16;
const DEEP_HIDDEN: usize = 8;

/// `deep-mlp`: the 16 -> 8x24 -> 4 sigmoid MLP of
/// `crates/bench/benches/load.rs`, 9 ops.
pub fn deep_mlp(seed: u64) -> Composed {
    let mut rng = SeededRng::new(seed);
    let mut net = Network::new(DEEP_FEATURES);
    let mut width = DEEP_FEATURES;
    for _ in 0..DEEP_HIDDEN {
        net.push(Dense::new(width, 24, &mut rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        width = 24;
    }
    net.push(Dense::new(width, 4, &mut rng));
    let data = SyntheticSpec::new(DEEP_FEATURES, 4, 2.0)
        .generate(64, &mut rng)
        .expect("synthetic data generates");
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let net = ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng)
        .expect("deep MLP reinterprets");
    let model = CompiledModel::from_reinterpreted(&net).expect("deep MLP compiles");
    Composed { net, model }
}

/// `composed`'s artifact padded with [`DEAD_ROWS`] unreferenced rows
/// per product table: same outputs, more bytes for the optimizer.
pub fn padded_artifact(composed: &Composed) -> Vec<u8> {
    let program = Program::from_reinterpreted(&composed.net);
    let padded = inject_dead_rows(&program, DEAD_ROWS);
    CompiledModel::from_program(&padded)
        .expect("padded model compiles")
        .to_bytes()
}

/// Artifact bytes plus the upload headers they are sent with.
#[derive(Clone)]
pub struct Upload {
    pub bytes: Vec<u8>,
    /// `x-kernels: int16`.
    pub int16: bool,
    /// `x-optimize: 1`.
    pub optimize: bool,
}

impl Upload {
    pub fn plain(bytes: Vec<u8>) -> Upload {
        Upload {
            bytes,
            int16: false,
            optimize: false,
        }
    }

    /// The model the gateway serves after this upload, prepared by the
    /// same public calls in the same order as `Registry::put_artifact`:
    /// strict decode, optimize, quantize.
    pub fn prepared(&self) -> CompiledModel {
        let mut model = CompiledModel::from_bytes_strict(&self.bytes).expect("artifact verifies");
        if self.optimize {
            model = model.optimize().expect("optimizer certifies").0;
        }
        if self.int16 {
            model.quantize().expect("model quantizes");
        }
        model
    }
}

/// Seeded request rows, flattened row-major.
pub struct RowPool {
    pub features: usize,
    flat: Vec<f32>,
}

impl RowPool {
    pub fn generate(seed: u64, features: usize, range: f32) -> RowPool {
        let mut rng = SeededRng::new(seed);
        RowPool {
            features,
            flat: (0..ROWS * features)
                .map(|_| rng.uniform(-range, range))
                .collect(),
        }
    }

    pub fn row(&self, index: usize) -> &[f32] {
        let at = (index % ROWS) * self.features;
        &self.flat[at..at + self.features]
    }

    /// `count` consecutive rows from `index`, wrapping at the pool's
    /// end by starting over; `count` must divide [`ROWS`].
    pub fn block(&self, index: usize, count: usize) -> &[f32] {
        let at = (index % (ROWS / count)) * count * self.features;
        &self.flat[at..at + count * self.features]
    }
}

/// The little-endian output bytes `model` gives for every row of the
/// pool, `output_features * 4` bytes per row.
pub fn expected_outputs(model: &CompiledModel, rows: &RowPool) -> Vec<u8> {
    let mut out = Vec::with_capacity(ROWS * model.output_features() * 4);
    for i in 0..ROWS {
        for v in model.infer(rows.row(i)).expect("row infers") {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Checks the f32 expected outputs against the composer's own emulator
/// on the first `count` rows; a mismatch is a broken harness or a
/// broken compile, either way nothing worth timing.
pub fn assert_matches_emulator(
    net: &ReinterpretedNetwork,
    rows: &RowPool,
    expected: &[u8],
    count: usize,
) {
    let width = net.output_features() * 4;
    for i in 0..count {
        let reference: Vec<u8> = net
            .infer_sample(rows.row(i))
            .expect("emulator infers")
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(
            &expected[i * width..(i + 1) * width],
            &reference[..],
            "compiled f32 output differs from ReinterpretedNetwork::infer_sample on row {i}"
        );
    }
}
