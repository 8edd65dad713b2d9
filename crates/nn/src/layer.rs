use crate::activation::Activation;
use crate::Result;
use rapidnn_tensor::{Conv2dGeometry, Tensor};

/// Whether a forward pass should behave as training (cache activations,
/// apply dropout) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: layers cache inputs for `backward` and dropout is active.
    Train,
    /// Inference: no caching, dropout is the identity.
    Eval,
}

/// A mutable view over one parameter tensor and its gradient, handed to the
/// optimizer after `backward`.
#[derive(Debug)]
pub struct ParamSet<'a> {
    /// The trainable values.
    pub value: &'a mut Tensor,
    /// Gradient accumulated by the most recent `backward`.
    pub grad: &'a mut Tensor,
}

/// Structural description of a layer, used by the composer and the
/// accelerator controller to map layers onto hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LayerKind {
    /// Fully connected layer with `(inputs, outputs)` fan.
    Dense {
        /// Input feature count.
        inputs: usize,
        /// Output neuron count.
        outputs: usize,
    },
    /// 2-D convolution with its resolved geometry and output channels.
    Conv2d {
        /// Window sweep geometry.
        geometry: Conv2dGeometry,
        /// Number of output channels.
        out_channels: usize,
    },
    /// 2-D pooling layer (max or average).
    Pool2d {
        /// Window sweep geometry (channels pooled independently).
        geometry: Conv2dGeometry,
        /// `true` for max pooling, `false` for average pooling.
        is_max: bool,
    },
    /// Element-wise activation.
    Activation(Activation),
    /// Dropout with the given rate (training only).
    Dropout(f32),
    /// Residual block summing a branch with its input.
    Residual,
}

/// A differentiable network layer.
///
/// Layers consume and produce `batch x features` matrices. `backward`
/// receives the loss gradient with respect to the layer output and returns
/// the gradient with respect to its input, accumulating parameter gradients
/// internally for the optimizer to consume via [`Layer::params`].
///
/// Layers are `Send` so the composer can cluster and quantize
/// independent layers on the workspace thread pool.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns an error when `input` has the wrong feature width.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Back-propagates `grad` (d-loss/d-output), returning d-loss/d-input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForwardCache`] when called before a
    /// training-mode `forward`.
    fn backward(&mut self, grad: &Tensor) -> Result<Tensor>;

    /// Accumulates the parameter gradients exactly as
    /// [`backward`](Layer::backward) does, without producing
    /// d-loss/d-input — what the first layer of a network needs, since
    /// nothing reads the gradient of the data. The default runs
    /// `backward` and drops its result; layers whose input gradient is a
    /// separate product override it to skip that product.
    ///
    /// # Errors
    ///
    /// As [`backward`](Layer::backward).
    fn backward_params(&mut self, grad: &Tensor) -> Result<()> {
        self.backward(grad).map(drop)
    }

    /// Mutable access to every `(parameter, gradient)` pair of the layer.
    /// Parameter-free layers return an empty vector.
    fn params(&mut self) -> Vec<ParamSet<'_>>;

    /// Structural description of the layer.
    fn kind(&self) -> LayerKind;

    /// Output feature width given an input feature width.
    fn output_features(&self, input_features: usize) -> usize;

    /// For composite layers (residual blocks), the inner layer stack;
    /// `None` for plain layers.
    fn branch(&self) -> Option<&[Box<dyn Layer>]> {
        None
    }

    /// For composite layers (residual blocks), mutable access to the inner
    /// layer stack; `None` for plain layers. The RAPIDNN composer uses this
    /// to recurse into branches when clustering weights.
    fn branch_mut(&mut self) -> Option<&mut Vec<Box<dyn Layer>>> {
        None
    }

    /// Clones the layer behind the trait object (enables `Network: Clone`
    /// for configuration sweeps that re-compose one trained model).
    fn clone_layer(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_layer()
    }
}

impl LayerKind {
    /// `true` for layers the RAPIDNN composer reinterprets (layers with
    /// weights feeding multiply-accumulate datapaths).
    pub fn is_weighted(&self) -> bool {
        matches!(self, LayerKind::Dense { .. } | LayerKind::Conv2d { .. })
    }

    /// Short lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            LayerKind::Dense { .. } => "dense",
            LayerKind::Conv2d { .. } => "conv2d",
            LayerKind::Pool2d { is_max: true, .. } => "maxpool2d",
            LayerKind::Pool2d { is_max: false, .. } => "avgpool2d",
            LayerKind::Activation(_) => "activation",
            LayerKind::Dropout(_) => "dropout",
            LayerKind::Residual => "residual",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_classification() {
        let dense = LayerKind::Dense {
            inputs: 2,
            outputs: 3,
        };
        assert!(dense.is_weighted());
        assert!(!LayerKind::Activation(Activation::Relu).is_weighted());
        assert!(!LayerKind::Dropout(0.5).is_weighted());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            LayerKind::Dense {
                inputs: 1,
                outputs: 1
            }
            .label(),
            "dense"
        );
        assert_eq!(LayerKind::Residual.label(), "residual");
    }
}
