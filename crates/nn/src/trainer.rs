use crate::network::Network;
use crate::optimizer::{Adam, Sgd};
use crate::Result;
use rapidnn_tensor::{SeededRng, Shape, Tensor};

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Learning rate for SGD.
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Per-parameter gradient-norm clip (0 disables). Large enough to act
    /// only as a blow-up guard, not as a step-size controller.
    pub clip_norm: f32,
    /// Use Adam instead of SGD+momentum (see [`crate::Adam`]).
    pub adam: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            learning_rate: 0.02,
            momentum: 0.9,
            batch_size: 32,
            lr_decay: 0.9,
            clip_norm: 25.0,
            adam: false,
        }
    }
}

/// What one epoch of [`Trainer::fit`] saw: the losses of the batches it
/// trained on. An error rate is a separate forward pass, which the
/// caller runs on the dataset it cares about (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub mean_loss: f32,
}

#[derive(Debug)]
enum Optim {
    Sgd(Sgd),
    Adam(Adam),
}

impl Optim {
    fn step(&mut self, network: &mut Network) {
        match self {
            Optim::Sgd(o) => o.step(network),
            Optim::Adam(o) => o.step(network),
        }
    }

    fn learning_rate(&self) -> f32 {
        match self {
            Optim::Sgd(o) => o.learning_rate(),
            Optim::Adam(o) => o.learning_rate(),
        }
    }

    fn set_learning_rate(&mut self, lr: f32) {
        match self {
            Optim::Sgd(o) => o.set_learning_rate(lr),
            Optim::Adam(o) => o.set_learning_rate(lr),
        }
    }
}

/// Mini-batch training loop with per-epoch shuffling. The optimizer is
/// SGD+momentum by default or Adam when [`TrainerConfig::adam`] is set.
///
/// The loop only trains: it runs no forward pass beyond the batches it
/// learns from. All its state (shuffle RNG, optimizer moments, decayed
/// learning rate) lives in the trainer, so `fit(.., n)` and `n` calls of
/// `fit(.., 1)` leave the same bits in the network — a caller that wants
/// an error rate between epochs measures it between them; an eval-mode
/// forward pass draws no random numbers and caches nothing.
///
/// # Examples
///
/// ```
/// use rapidnn_nn::{Dense, Network, Trainer, TrainerConfig};
/// use rapidnn_tensor::{SeededRng, Shape, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let mut net = Network::new(2);
/// net.push(Dense::new(2, 2, &mut rng));
/// let x = Tensor::from_vec(Shape::matrix(4, 2), vec![1., 1., -1., -1., 1., 1., -1., -1.])?;
/// let labels = vec![0, 1, 0, 1];
/// let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
/// let reports = trainer.fit(&mut net, &x, &labels, 3)?;
/// assert_eq!(reports.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    optimizer: Optim,
    rng: SeededRng,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainerConfig, rng: &mut SeededRng) -> Self {
        let optimizer = if config.adam {
            Optim::Adam(Adam::new(config.learning_rate))
        } else {
            let mut sgd = Sgd::new(config.learning_rate, config.momentum);
            sgd.set_clip_norm(config.clip_norm);
            Optim::Sgd(sgd)
        };
        Trainer {
            optimizer,
            config,
            rng: rng.fork(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains `network` for `epochs` passes over `(inputs, labels)`,
    /// decaying the learning rate after each.
    ///
    /// Returns one [`EpochReport`] per epoch, numbered from 0 within this
    /// call.
    ///
    /// # Errors
    ///
    /// Propagates layer and label errors.
    pub fn fit(
        &mut self,
        network: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
        epochs: usize,
    ) -> Result<Vec<EpochReport>> {
        let mut reports = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let mean_loss = self.run_epoch(network, inputs, labels)?;
            reports.push(EpochReport { epoch, mean_loss });
            let lr = self.optimizer.learning_rate() * self.config.lr_decay;
            self.optimizer.set_learning_rate(lr.max(1e-5));
        }
        Ok(reports)
    }

    /// Runs a single epoch, returning the mean batch loss.
    ///
    /// # Errors
    ///
    /// Propagates layer and label errors.
    pub fn run_epoch(
        &mut self,
        network: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
    ) -> Result<f32> {
        let n = labels.len();
        let features = inputs.shape().dims()[1];
        let mut order: Vec<usize> = (0..n).collect();
        self.rng.shuffle(&mut order);

        let mut total_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(self.config.batch_size.max(1)) {
            let mut xs = Vec::with_capacity(chunk.len() * features);
            let mut ys = Vec::with_capacity(chunk.len());
            for &i in chunk {
                xs.extend_from_slice(&inputs.as_slice()[i * features..(i + 1) * features]);
                ys.push(labels[i]);
            }
            let batch = Tensor::from_vec(Shape::matrix(chunk.len(), features), xs)?;
            total_loss += network.train_batch(&batch, &ys)?;
            self.optimizer.step(network);
            batches += 1;
        }
        Ok(if batches == 0 {
            0.0
        } else {
            total_loss / batches as f32
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationLayer, Dense};

    fn two_moons(rng: &mut SeededRng, n: usize) -> (Tensor, Vec<usize>) {
        let mut xs = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            labels.push(class);
            let angle = rng.uniform(0.0, std::f32::consts::PI);
            let (cx, cy, sign) = if class == 0 {
                (0.0, 0.0, 1.0)
            } else {
                (1.0, 0.3, -1.0)
            };
            xs.push(cx + angle.cos() + 0.05 * rng.normal());
            xs.push(cy + sign * angle.sin() + 0.05 * rng.normal());
        }
        (Tensor::from_vec(Shape::matrix(n, 2), xs).unwrap(), labels)
    }

    #[test]
    fn fit_learns_two_moons() {
        let mut rng = SeededRng::new(13);
        let (x, labels) = two_moons(&mut rng, 200);
        let mut net = Network::new(2);
        net.push(Dense::new(2, 32, &mut rng));
        net.push(ActivationLayer::new(Activation::Relu));
        net.push(Dense::new(32, 2, &mut rng));

        let mut trainer = Trainer::new(
            TrainerConfig {
                learning_rate: 0.1,
                ..TrainerConfig::default()
            },
            &mut rng,
        );
        let reports = trainer.fit(&mut net, &x, &labels, 30).unwrap();
        let train_error = net.evaluate(&x, &labels).unwrap();
        assert!(train_error < 0.05, "error too high: {train_error}");
        // Loss must broadly decrease.
        assert!(reports.last().unwrap().mean_loss < reports[0].mean_loss);
    }

    /// `examples/mnist_mlp.rs` trains one epoch per call and measures the
    /// error in between: that must be the same training run, bit for bit,
    /// as one call — dropout included, whose RNG only training draws on.
    #[test]
    fn fit_n_equals_n_times_fit_one_with_evaluation_in_between() {
        let run = |epochs_per_call: usize| {
            let mut rng = SeededRng::new(31);
            let (x, labels) = two_moons(&mut rng, 70);
            let mut net = Network::new(2);
            net.push(Dense::new(2, 8, &mut rng));
            net.push(ActivationLayer::new(Activation::Relu));
            net.push(crate::Dropout::new(0.25, &mut rng));
            net.push(Dense::new(8, 2, &mut rng));
            let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
            let mut losses = Vec::new();
            for _ in 0..6 / epochs_per_call {
                let reports = trainer.fit(&mut net, &x, &labels, epochs_per_call);
                losses.extend(reports.unwrap().iter().map(|r| r.mean_loss.to_bits()));
                if epochs_per_call == 1 {
                    net.evaluate(&x, &labels).unwrap();
                }
            }
            let mut weights = Vec::new();
            for layer in net.layers_mut() {
                for p in layer.params() {
                    weights.extend(p.value.as_slice().iter().map(|v| v.to_bits()));
                }
            }
            (losses, weights)
        };
        assert_eq!(run(6), run(1));
        assert_eq!(run(6), run(3));
    }

    #[test]
    fn epoch_reports_are_sequential() {
        let mut rng = SeededRng::new(1);
        let (x, labels) = two_moons(&mut rng, 16);
        let mut net = Network::new(2);
        net.push(Dense::new(2, 2, &mut rng));
        let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
        let reports = trainer.fit(&mut net, &x, &labels, 4).unwrap();
        let epochs: Vec<usize> = reports.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_dataset_yields_zero_loss() {
        let mut rng = SeededRng::new(1);
        let mut net = Network::new(2);
        net.push(Dense::new(2, 2, &mut rng));
        let x = Tensor::zeros(Shape::matrix(0, 2));
        let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
        let loss = trainer.run_epoch(&mut net, &x, &[]).unwrap();
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let mut rng = SeededRng::new(seed);
            let (x, labels) = two_moons(&mut rng, 64);
            let mut net = Network::new(2);
            net.push(Dense::new(2, 8, &mut rng));
            net.push(ActivationLayer::new(Activation::Relu));
            net.push(Dense::new(8, 2, &mut rng));
            let mut trainer = Trainer::new(TrainerConfig::default(), &mut rng);
            trainer
                .fit(&mut net, &x, &labels, 5)
                .unwrap()
                .last()
                .unwrap()
                .mean_loss
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
