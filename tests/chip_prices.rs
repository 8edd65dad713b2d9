//! The chip simulator's prices, pinned: one composed MLP, CNN and
//! residual network per seed, priced from the op shapes of the program
//! the analyzer gates. The `f64` bits were recorded when the simulator
//! still walked the composer's stage tree, so any drift in the
//! per-op pricing shows here.

use rapidnn::accel::{AcceleratorConfig, Simulator};
use rapidnn::analyze::{op_shapes, Program};
use rapidnn::composer::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn::data::SyntheticSpec;
use rapidnn::nn::{
    Activation, ActivationLayer, AvgPool2d, Conv2d, Dense, MaxPool2d, Network, Residual,
};
use rapidnn::tensor::{Padding, SeededRng};

fn compose(
    mut net: Network,
    classes: usize,
    rows: usize,
    rng: &mut SeededRng,
) -> ReinterpretedNetwork {
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let data = SyntheticSpec::new(net.input_features(), classes, 2.0)
        .generate(rows, rng)
        .unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options, rng).unwrap()
}

/// Dense network with a sigmoid (lookup-table) hidden layer.
fn mlp(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(6);
    net.push(Dense::new(6, 10, rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net.push(Dense::new(10, 3, rng));
    compose(net, 3, 40, rng)
}

/// Conv network with both pool kinds and the ReLU comparator.
fn cnn(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(2 * 8 * 8);
    net.push(Conv2d::new(2, 8, 8, 3, 3, 1, Padding::Same, rng).unwrap());
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(MaxPool2d::new(3, 8, 8, 2).unwrap());
    net.push(Conv2d::new(3, 4, 4, 2, 3, 1, Padding::Same, rng).unwrap());
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(AvgPool2d::new(2, 4, 4, 2).unwrap());
    net.push(Dense::new(2 * 2 * 2, 4, rng));
    compose(net, 4, 30, rng)
}

/// Network with a residual skip connection.
fn residual(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(6);
    net.push(Dense::new(6, 5, rng));
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(Residual::new(vec![
        Box::new(Dense::new(5, 5, rng)),
        Box::new(ActivationLayer::new(Activation::Relu)),
    ]));
    net.push(Dense::new(5, 2, rng));
    compose(net, 2, 40, rng)
}

type Builder = fn(&mut SeededRng) -> ReinterpretedNetwork;

/// `(latency_ns, energy_pj, pipeline_interval_ns)` bits and `mac_ops`
/// per builder, on the default accelerator.
const PINNED: [(&str, Builder, [u64; 3], u64); 3] = [
    (
        "mlp",
        mlp,
        [
            0x4080_a000_0000_0000,
            0x40cb_7ced_9581_0626,
            0x4071_7000_0000_0000,
        ],
        90,
    ),
    (
        "cnn",
        cnn,
        [
            0x4091_5400_0000_0000,
            0x4111_be58_deb8_51ec,
            0x4073_4000_0000_0000,
        ],
        4352,
    ),
    (
        "residual",
        residual,
        [
            0x408e_4000_0000_0000,
            0x40c9_f912_7ef9_db24,
            0x406f_a000_0000_0000,
        ],
        65,
    ),
];

#[test]
fn simulator_prices_of_the_composed_corpus_are_pinned() {
    let simulator = Simulator::new(AcceleratorConfig::default());
    for seed in 1..=3 {
        for (name, build, bits, mac_ops) in PINNED {
            let program = Program::from_reinterpreted(&build(&mut SeededRng::new(seed)));
            let report = simulator.simulate(&op_shapes(&program));
            assert_eq!(report.stages.len(), program.ops.len(), "{name} seed {seed}");
            let hw = &report.hardware;
            let got = [hw.latency_ns, hw.energy_pj, hw.pipeline_interval_ns].map(f64::to_bits);
            assert_eq!(got, bits, "{name} seed {seed}: {hw:?}");
            assert_eq!(hw.mac_ops, mac_ops, "{name} seed {seed}");
        }
    }
}

/// Conv network whose conv gives channel 0 three distinct weights, so
/// a three-entry weight book beside the other channels' eight.
fn short_book_cnn(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(6 * 6);
    let mut conv = Conv2d::new(1, 6, 6, 3, 3, 1, Padding::Same, rng).unwrap();
    let mut weights = conv.weights().clone();
    for (i, w) in weights.as_mut_slice()[..9].iter_mut().enumerate() {
        *w = [-0.5, 0.25, 0.75][i % 3];
    }
    conv.set_weights(weights).unwrap();
    net.push(conv);
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(Dense::new(3 * 6 * 6, 4, rng));
    compose(net, 4, 30, rng)
}

/// A conv's channels may hold weight books of different lengths; the
/// chip prices the op at its largest, which one short book must not
/// change.
#[test]
fn a_conv_is_priced_at_its_largest_channel_book() {
    let program = Program::from_reinterpreted(&short_book_cnn(&mut SeededRng::new(1)));
    let books: Vec<usize> = program.ops[0]
        .neuron()
        .expect("a conv")
        .tables
        .iter()
        .map(|t| t.weight_count)
        .collect();
    assert_eq!(books, [3, 8, 8]);
    let report = Simulator::new(AcceleratorConfig::default()).simulate(&op_shapes(&program));
    let hw = &report.hardware;
    let got = [hw.latency_ns, hw.energy_pj, hw.pipeline_interval_ns].map(f64::to_bits);
    let pinned = [
        0x4083_7800_0000_0000,
        0x40fe_faa8_6a7e_f9d9,
        0x4076_4000_0000_0000,
    ];
    assert_eq!(got, pinned, "{hw:?}");
    assert_eq!(hw.mac_ops, 1404);
}
