//! Property-based tests for the neural-network substrate.

use rapidnn_nn::{
    loss, Activation, ActivationLayer, Conv2d, Dense, Layer, MaxPool2d, Mode, Network, Residual,
    Sgd,
};
use rapidnn_prop::{check, usize_in, vec_f32, DEFAULT_CASES};
use rapidnn_tensor::{Padding, SeededRng, Shape, Tensor};

/// Softmax outputs are a probability distribution for any finite
/// logits.
#[test]
fn softmax_is_a_distribution() {
    check(DEFAULT_CASES, |rng| {
        let n = usize_in(rng, 1, 16);
        let logits = vec_f32(rng, n, -50.0, 50.0);
        let t = Tensor::from_vec(Shape::matrix(1, n), logits).unwrap();
        let p = loss::softmax(&t).unwrap();
        let sum: f32 = p.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(p.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    });
}

/// Cross-entropy is non-negative and zero only for perfect confidence.
#[test]
fn cross_entropy_nonnegative() {
    check(DEFAULT_CASES, |rng| {
        let n = usize_in(rng, 2, 8);
        let logits = vec_f32(rng, n, -10.0, 10.0);
        let label = usize_in(rng, 0, n);
        let t = Tensor::from_vec(Shape::matrix(1, n), logits).unwrap();
        let (loss_value, grad) = loss::cross_entropy_with_logits(&t, &[label]).unwrap();
        assert!(loss_value >= 0.0);
        // Gradient rows sum to ~0 (probabilities minus a one-hot).
        let gsum: f32 = grad.as_slice().iter().sum();
        assert!(gsum.abs() < 1e-4);
    });
}

/// Activations are monotone non-decreasing (all of ours are).
#[test]
fn activations_are_monotone() {
    check(DEFAULT_CASES, |rng| {
        let a = rng.uniform(-10.0, 10.0);
        let b = rng.uniform(-10.0, 10.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Softsign,
            Activation::Identity,
        ] {
            assert!(act.apply(lo) <= act.apply(hi) + 1e-6, "{act:?}");
        }
    });
}

/// Saturating activations stay within their ranges.
#[test]
fn activation_ranges() {
    check(DEFAULT_CASES, |rng| {
        let x = rng.uniform(-1000.0, 1000.0);
        assert!(Activation::Sigmoid.apply(x) >= 0.0);
        assert!(Activation::Sigmoid.apply(x) <= 1.0);
        assert!(Activation::Tanh.apply(x).abs() <= 1.0);
        assert!(Activation::Softsign.apply(x).abs() < 1.0);
        assert!(Activation::Relu.apply(x) >= 0.0);
    });
}

/// A dense layer is affine: f(ax) - f(0) = a (f(x) - f(0)).
#[test]
fn dense_layer_is_affine() {
    check(DEFAULT_CASES, |rng| {
        let scale = rng.uniform(-3.0, 3.0);
        let mut layer = Dense::new(5, 3, rng);
        let x = rng.uniform_tensor(Shape::matrix(1, 5), -1.0, 1.0);
        let zero = Tensor::zeros(Shape::matrix(1, 5));
        let f0 = layer.forward(&zero, Mode::Eval).unwrap();
        let fx = layer.forward(&x, Mode::Eval).unwrap();
        let fsx = layer.forward(&x.scale(scale), Mode::Eval).unwrap();
        for i in 0..3 {
            let lhs = fsx.as_slice()[i] - f0.as_slice()[i];
            let rhs = scale * (fx.as_slice()[i] - f0.as_slice()[i]);
            assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
        }
    });
}

/// Cloned networks produce identical outputs — the invariant the
/// composer's configuration sweeps rely on.
#[test]
fn cloned_network_is_functionally_identical() {
    check(DEFAULT_CASES, |rng| {
        let mut net = Network::new(6);
        net.push(Dense::new(6, 8, rng));
        net.push(ActivationLayer::new(Activation::Tanh));
        net.push(Dense::new(8, 3, rng));
        let mut clone = net.clone();
        let x = rng.uniform_tensor(Shape::matrix(3, 6), -1.0, 1.0);
        assert_eq!(net.forward(&x).unwrap(), clone.forward(&x).unwrap());
    });
}

/// Error rate is always a fraction and zero when predictions match.
#[test]
fn error_rate_bounds() {
    check(DEFAULT_CASES, |rng| {
        let n = usize_in(rng, 1, 16);
        let labels: Vec<usize> = (0..n).map(|_| usize_in(rng, 0, 4)).collect();
        // Construct logits predicting exactly the labels.
        let mut data = vec![0.0f32; n * 4];
        for (i, &l) in labels.iter().enumerate() {
            data[i * 4 + l] = 5.0;
        }
        let logits = Tensor::from_vec(Shape::matrix(n, 4), data).unwrap();
        assert_eq!(loss::error_rate(&logits, &labels).unwrap(), 0.0);
        // Shifting every label by 1 makes them all wrong.
        let wrong: Vec<usize> = labels.iter().map(|&l| (l + 1) % 4).collect();
        assert_eq!(loss::error_rate(&logits, &wrong).unwrap(), 1.0);
    });
}

fn param_bits(layer: &mut dyn Layer, grads: bool) -> Vec<u32> {
    let mut bits = Vec::new();
    for p in layer.params() {
        let t = if grads { &*p.grad } else { &*p.value };
        bits.extend(t.as_slice().iter().map(|v| v.to_bits()));
    }
    bits
}

/// `backward_params` leaves exactly the parameter gradients `backward`
/// does — for the two layers that override it and for one that takes
/// the trait's default.
#[test]
fn backward_params_matches_backward_bit_for_bit() {
    let mut rng = SeededRng::new(41);
    let layers: Vec<(Box<dyn Layer>, usize)> = vec![
        (Box::new(Dense::new(9, 5, &mut rng)), 9),
        (
            Box::new(Conv2d::new(2, 5, 5, 3, 3, 1, Padding::Same, &mut rng).unwrap()),
            50,
        ),
        (
            Box::new(Residual::new(vec![
                Box::new(Dense::new(6, 6, &mut rng)),
                Box::new(ActivationLayer::new(Activation::Relu)),
            ])),
            6,
        ),
    ];
    for (mut full, width) in layers {
        let mut params_only = full.clone_layer();
        let x = rng.uniform_tensor(Shape::matrix(7, width), -1.0, 1.0);
        let y = full.forward(&x, Mode::Train).unwrap();
        params_only.forward(&x, Mode::Train).unwrap();
        let grad = rng.uniform_tensor(y.shape().clone(), -1.0, 1.0);
        full.backward(&grad).unwrap();
        params_only.backward_params(&grad).unwrap();
        let label = full.kind().label();
        let want = param_bits(full.as_mut(), true);
        assert!(want.iter().any(|&b| b != 0), "{label}: gradients all zero");
        assert_eq!(param_bits(params_only.as_mut(), true), want, "{label}");
    }
    // Like `backward`, it needs a training-mode forward first.
    assert!(Dense::new(2, 2, &mut rng)
        .backward_params(&Tensor::ones(Shape::matrix(1, 2)))
        .is_err());
}

/// Skipping the first layer's input gradient changes nothing a training
/// run can see: three `train_batch` + optimizer steps leave the weights
/// of an MLP and of a CNN bit-equal to a loop that calls `backward` on
/// every layer.
#[test]
fn train_batch_matches_backward_through_every_layer() {
    let mut rng = SeededRng::new(43);
    let mut mlp = Network::new(12);
    mlp.push(Dense::new(12, 9, &mut rng));
    mlp.push(ActivationLayer::new(Activation::Relu));
    mlp.push(Dense::new(9, 3, &mut rng));
    let mut cnn = Network::new(2 * 6 * 6);
    cnn.push(Conv2d::new(2, 6, 6, 3, 3, 1, Padding::Same, &mut rng).unwrap());
    cnn.push(ActivationLayer::new(Activation::Relu));
    cnn.push(MaxPool2d::new(3, 6, 6, 2).unwrap());
    cnn.push(Dense::new(3 * 3 * 3, 3, &mut rng));

    for mut net in [mlp, cnn] {
        let mut reference = net.clone();
        let (mut sgd, mut reference_sgd) = (Sgd::new(0.05, 0.9), Sgd::new(0.05, 0.9));
        for step in 0..3 {
            let x = rng.uniform_tensor(Shape::matrix(10, net.input_features()), -1.0, 1.0);
            let labels: Vec<usize> = (0..10).map(|i| (i + step) % 3).collect();

            let loss_value = net.train_batch(&x, &labels).unwrap();
            sgd.step(&mut net);

            let logits = reference.forward_mode(&x, Mode::Train).unwrap();
            let (want_loss, mut grad) = loss::cross_entropy_with_logits(&logits, &labels).unwrap();
            for layer in reference.layers_mut().iter_mut().rev() {
                grad = layer.backward(&grad).unwrap();
            }
            reference_sgd.step(&mut reference);

            assert_eq!(loss_value.to_bits(), want_loss.to_bits(), "step {step}");
            for (li, (a, b)) in net
                .layers_mut()
                .iter_mut()
                .zip(reference.layers_mut())
                .enumerate()
            {
                assert_eq!(
                    param_bits(a.as_mut(), false),
                    param_bits(b.as_mut(), false),
                    "step {step}, layer {li}"
                );
            }
        }
    }
}
