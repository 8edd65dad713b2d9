//! Shared model builders for the serve integration tests: one network
//! per op-program topology the compiler can emit (dense, conv + pools,
//! strided and padded conv, residual, a deep lookup chain),
//! reinterpreted over synthetic calibration data.

#![allow(dead_code)] // Each test binary uses a subset of the builders.

use rapidnn_core::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn_data::SyntheticSpec;
use rapidnn_nn::{
    Activation, ActivationLayer, AvgPool2d, Conv2d, Dense, MaxPool2d, Network, Residual,
};
use rapidnn_tensor::{Padding, SeededRng};

pub fn options() -> ReinterpretOptions {
    ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    }
}

/// Untrained dense network with a sigmoid (lookup-table) hidden layer.
pub fn mlp_model(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(6);
    net.push(Dense::new(6, 10, rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net.push(Dense::new(10, 3, rng));
    let data = SyntheticSpec::new(6, 3, 2.0).generate(40, rng).unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options(), rng).unwrap()
}

/// Conv network exercising both pool kinds and the ReLU comparator.
pub fn cnn_model(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(2 * 8 * 8);
    net.push(Conv2d::new(2, 8, 8, 3, 3, 1, Padding::Same, rng).unwrap());
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(MaxPool2d::new(3, 8, 8, 2).unwrap());
    net.push(Conv2d::new(3, 4, 4, 2, 3, 1, Padding::Same, rng).unwrap());
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(AvgPool2d::new(2, 4, 4, 2).unwrap());
    net.push(Dense::new(2 * 2 * 2, 4, rng));
    let data = SyntheticSpec::new(128, 4, 2.0).generate(30, rng).unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options(), rng).unwrap()
}

/// Conv network at stride 2 with one pixel of padding, whose odd
/// output-pixel counts (25, then 9) leave output positions below a
/// block at every batch size, over a sigmoid (lookup-table) conv.
pub fn strided_cnn_model(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(2 * 9 * 9);
    net.push(Conv2d::new(2, 9, 9, 3, 3, 2, Padding::Same, rng).unwrap());
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(Conv2d::new(3, 5, 5, 2, 3, 2, Padding::Same, rng).unwrap());
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net.push(Dense::new(2 * 3 * 3, 3, rng));
    let data = SyntheticSpec::new(162, 3, 2.0).generate(30, rng).unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options(), rng).unwrap()
}

/// Network with a residual skip connection.
pub fn residual_model(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(6);
    net.push(Dense::new(6, 5, rng));
    net.push(ActivationLayer::new(Activation::Relu));
    net.push(Residual::new(vec![
        Box::new(Dense::new(5, 5, rng)),
        Box::new(ActivationLayer::new(Activation::Relu)),
    ]));
    net.push(Dense::new(5, 2, rng));
    let data = SyntheticSpec::new(6, 2, 2.0).generate(40, rng).unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options(), rng).unwrap()
}

/// Untrained deep MLP: eight sigmoid (lookup-table) layers 24 wide.
pub fn deep_mlp_model(rng: &mut SeededRng) -> ReinterpretedNetwork {
    let mut net = Network::new(16);
    for width in [16, 24, 24, 24, 24, 24, 24, 24] {
        net.push(Dense::new(width, 24, rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
    }
    net.push(Dense::new(24, 4, rng));
    let data = SyntheticSpec::new(16, 4, 2.0).generate(64, rng).unwrap();
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options(), rng).unwrap()
}

/// FNV-1a 64 over the payload, mirroring the artifact trailer, so a
/// corruption can be "repaired" to survive decoding and reach the
/// analyzer instead of the checksum gate.
pub fn repair_checksum(bytes: &mut [u8]) {
    let end = bytes.len() - 8;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[16..end] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    bytes[end..].copy_from_slice(&hash.to_le_bytes());
}
