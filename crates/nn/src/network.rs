use crate::layer::{Layer, LayerKind, Mode};
use crate::{loss, NnError, Result};
use rapidnn_tensor::Tensor;

/// A sequential stack of layers with a softmax-cross-entropy head.
///
/// `Network` owns its layers as trait objects so heterogeneous topologies
/// (the paper's MLPs and CNNs) share one training/inference path.
#[derive(Debug, Clone)]
pub struct Network {
    input_features: usize,
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network accepting `input_features`-wide rows.
    pub fn new(input_features: usize) -> Self {
        Network {
            input_features,
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input feature width.
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// Output feature width (class count), derived by folding each layer's
    /// `output_features` over the input width.
    pub fn output_features(&self) -> usize {
        self.layers
            .iter()
            .fold(self.input_features, |acc, l| l.output_features(acc))
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack (used by the composer to swap
    /// clustered weights in).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Structural description of every layer.
    pub fn kinds(&self) -> Vec<LayerKind> {
        self.layers.iter().map(|l| l.kind()).collect()
    }

    /// Inference forward pass (no caching, dropout disabled).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; fails on an empty network.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward_mode(input, Mode::Eval)
    }

    /// Forward pass with explicit [`Mode`].
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors; fails on an empty network.
    pub fn forward_mode(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidNetwork("network has no layers".into()));
        }
        let mut current = input.clone();
        for layer in &mut self.layers {
            current = layer.forward(&current, mode)?;
        }
        Ok(current)
    }

    /// Forward pass that also returns the *input to every weighted layer*
    /// and the output of every activation — the observations the composer
    /// clusters (§3.1 "Inputs").
    ///
    /// Returns `(logits, per_layer_inputs)` where `per_layer_inputs[i]` is
    /// the tensor that entered layer `i`.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_observed(&mut self, input: &Tensor) -> Result<(Tensor, Vec<Tensor>)> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidNetwork("network has no layers".into()));
        }
        let mut current = input.clone();
        let mut observed = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            observed.push(current.clone());
            current = layer.forward(&current, Mode::Eval)?;
        }
        Ok((current, observed))
    }

    /// Runs one training step on a batch: forward, loss, backward.
    ///
    /// Returns the batch loss. Parameter gradients are left in the layers
    /// for an optimizer to consume. The first layer is asked for its
    /// parameter gradients only ([`Layer::backward_params`]): the
    /// gradient with respect to the data has no reader.
    ///
    /// # Errors
    ///
    /// Propagates layer and label errors.
    pub fn train_batch(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32> {
        let logits = self.forward_mode(input, Mode::Train)?;
        let (loss_value, mut grad) = loss::cross_entropy_with_logits(&logits, labels)?;
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("forward_mode rejects an empty network");
        for layer in rest.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        first.backward_params(&grad)?;
        Ok(loss_value)
    }

    /// Predicted class per row.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input)?;
        let classes = logits.shape().dims()[1];
        Ok((0..logits.shape().dims()[0])
            .map(|b| {
                let row = &logits.as_slice()[b * classes..(b + 1) * classes];
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect())
    }

    /// Error rate of the network on `(input, labels)`.
    ///
    /// # Errors
    ///
    /// Propagates layer and label errors.
    pub fn evaluate(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32> {
        let logits = self.forward(input)?;
        loss::error_rate(&logits, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationLayer, Dense};
    use rapidnn_tensor::{SeededRng, Shape};

    fn mlp(rng: &mut SeededRng) -> Network {
        let mut net = Network::new(4);
        net.push(Dense::new(4, 16, rng));
        net.push(ActivationLayer::new(Activation::Relu));
        net.push(Dense::new(16, 3, rng));
        net
    }

    #[test]
    fn empty_network_is_rejected() {
        let mut net = Network::new(4);
        assert!(net.forward(&Tensor::ones(Shape::matrix(1, 4))).is_err());
        assert!(net.is_empty());
    }

    #[test]
    fn output_features_fold_through_layers() {
        let mut rng = SeededRng::new(0);
        let net = mlp(&mut rng);
        assert_eq!(net.output_features(), 3);
        assert_eq!(net.input_features(), 4);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn forward_observed_returns_layer_inputs() {
        let mut rng = SeededRng::new(0);
        let mut net = mlp(&mut rng);
        let x = Tensor::ones(Shape::matrix(2, 4));
        let (logits, observed) = net.forward_observed(&x).unwrap();
        assert_eq!(observed.len(), 3);
        assert_eq!(observed[0], x);
        assert_eq!(observed[1].shape().dims(), &[2, 16]);
        assert_eq!(logits.shape().dims(), &[2, 3]);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = SeededRng::new(7);
        let mut net = mlp(&mut rng);
        // Three clusters at unit corners.
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let class = i % 3;
            labels.push(class);
            for f in 0..4 {
                let center = if f == class { 2.0 } else { -2.0 };
                xs.push(center + 0.1 * rng.normal());
            }
        }
        let x = Tensor::from_vec(Shape::matrix(30, 4), xs).unwrap();

        let first_loss = net.train_batch(&x, &labels).unwrap();
        let mut sgd = crate::Sgd::new(0.1, 0.9);
        let mut last_loss = first_loss;
        for _ in 0..50 {
            last_loss = net.train_batch(&x, &labels).unwrap();
            sgd.step(&mut net);
        }
        assert!(
            last_loss < first_loss * 0.5,
            "loss did not drop: {first_loss} -> {last_loss}"
        );
        assert_eq!(net.evaluate(&x, &labels).unwrap(), 0.0);
    }

    #[test]
    fn predict_matches_argmax() {
        let mut rng = SeededRng::new(3);
        let mut net = mlp(&mut rng);
        let x = Tensor::ones(Shape::matrix(5, 4));
        let preds = net.predict(&x).unwrap();
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn kinds_describe_the_stack() {
        let mut rng = SeededRng::new(3);
        let net = mlp(&mut rng);
        let kinds = net.kinds();
        assert!(kinds[0].is_weighted());
        assert!(!kinds[1].is_weighted());
        assert!(kinds[2].is_weighted());
    }
}
