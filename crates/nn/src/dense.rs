use crate::layer::{Layer, LayerKind, Mode, ParamSet};
use crate::{NnError, Result};
use rapidnn_tensor::{Initializer, SeededRng, Shape, Tensor};

/// Fully connected layer computing `Y = X·Wᵀ + b`.
///
/// Weights are stored as an `outputs x inputs` matrix so a row holds all
/// incoming weights of one neuron — the layout the RAPIDNN composer
/// clusters and the RNA controller maps onto one RNA block per neuron.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    inputs: usize,
    outputs: usize,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(inputs: usize, outputs: usize, rng: &mut SeededRng) -> Self {
        let weights = rng.init_tensor(
            Shape::matrix(outputs, inputs),
            Initializer::HeNormal,
            inputs,
            outputs,
        );
        Dense {
            weights,
            bias: Tensor::zeros(Shape::vector(outputs)),
            grad_weights: Tensor::zeros(Shape::matrix(outputs, inputs)),
            grad_bias: Tensor::zeros(Shape::vector(outputs)),
            cached_input: None,
            inputs,
            outputs,
        }
    }

    /// Creates a dense layer from explicit weights (`outputs x inputs`) and
    /// bias (`outputs`).
    ///
    /// # Errors
    ///
    /// Returns an error when the shapes are inconsistent.
    pub fn from_parts(weights: Tensor, bias: Tensor) -> Result<Self> {
        if weights.shape().rank() != 2 {
            return Err(NnError::InvalidNetwork(format!(
                "dense weights must be rank 2, got {}",
                weights.shape()
            )));
        }
        let (outputs, inputs) = (weights.shape().dims()[0], weights.shape().dims()[1]);
        if bias.shape().dims() != [outputs] {
            return Err(NnError::InvalidNetwork(format!(
                "dense bias shape {} does not match {outputs} outputs",
                bias.shape()
            )));
        }
        Ok(Dense {
            grad_weights: Tensor::zeros(Shape::matrix(outputs, inputs)),
            grad_bias: Tensor::zeros(Shape::vector(outputs)),
            cached_input: None,
            inputs,
            outputs,
            weights,
            bias,
        })
    }

    /// Input feature count.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output neuron count.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The `outputs x inputs` weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Replaces the weight matrix (used by the composer's clustering step).
    ///
    /// # Errors
    ///
    /// Returns an error when the shape differs from the current weights.
    pub fn set_weights(&mut self, weights: Tensor) -> Result<()> {
        if weights.shape() != self.weights.shape() {
            return Err(NnError::InvalidNetwork(format!(
                "replacement weights {} mismatch layer weights {}",
                weights.shape(),
                self.weights.shape()
            )));
        }
        self.weights = weights;
        Ok(())
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.shape().dims()[1] != self.inputs {
            return Err(NnError::FeatureMismatch {
                layer: "dense",
                expected: self.inputs,
                actual: input.shape().dim(1).unwrap_or(0),
            });
        }
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let wt = self.weights.transpose()?;
        let mut out = input.matmul(&wt)?;
        let batch = out.shape().dims()[0];
        let data = out.as_mut_slice();
        for b in 0..batch {
            for o in 0..self.outputs {
                data[b * self.outputs + o] += self.bias.as_slice()[o];
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        self.backward_params(grad)?;
        // dX = grad · W   (batch x inputs)
        Ok(grad.matmul(&self.weights)?)
    }

    fn backward_params(&mut self, grad: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache("dense"))?;
        // dW = gradᵀ · input   (outputs x inputs)
        let grad_t = grad.transpose()?;
        self.grad_weights = grad_t.matmul(input)?;
        // db = column sums of grad.
        let batch = grad.shape().dims()[0];
        let mut db = vec![0.0f32; self.outputs];
        for b in 0..batch {
            let row = &grad.as_slice()[b * self.outputs..(b + 1) * self.outputs];
            for (acc, &g) in db.iter_mut().zip(row) {
                *acc += g;
            }
        }
        self.grad_bias = Tensor::from_vec(Shape::vector(self.outputs), db)?;
        Ok(())
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        vec![
            ParamSet {
                value: &mut self.weights,
                grad: &mut self.grad_weights,
            },
            ParamSet {
                value: &mut self.bias,
                grad: &mut self.grad_bias,
            },
        ]
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dense {
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }

    fn output_features(&self, _input_features: usize) -> usize {
        self.outputs
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_layer() -> Dense {
        // W = [[1, 2], [3, 4], [5, 6]], b = [0.5, -0.5, 0].
        Dense::from_parts(
            Tensor::from_vec(Shape::matrix(3, 2), vec![1., 2., 3., 4., 5., 6.]).unwrap(),
            Tensor::from_vec(Shape::vector(3), vec![0.5, -0.5, 0.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut layer = tiny_layer();
        let x = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 1.0]).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[3.5, 6.5, 11.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut layer = tiny_layer();
        let x = Tensor::from_vec(Shape::matrix(1, 3), vec![1.0; 3]).unwrap();
        assert!(matches!(
            layer.forward(&x, Mode::Eval),
            Err(NnError::FeatureMismatch { .. })
        ));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(17);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = rng.uniform_tensor(Shape::matrix(4, 3), -1.0, 1.0);

        // Loss = sum of outputs; dL/dY = ones.
        let y = layer.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        let dx = layer.backward(&ones).unwrap();

        let eps = 1e-3;
        // Check dW numerically for a few entries.
        for &(o, i) in &[(0usize, 0usize), (1, 2)] {
            let mut bumped = layer.clone();
            let mut w = bumped.weights().clone();
            let flat = o * 3 + i;
            w.as_mut_slice()[flat] += eps;
            bumped.set_weights(w).unwrap();
            let y_plus = bumped.forward(&x, Mode::Eval).unwrap().sum();
            let numeric = (y_plus - y.sum()) / eps;
            let analytic = layer.grad_weights.as_slice()[flat];
            assert!(
                (numeric - analytic).abs() < 1e-1,
                "dW[{o},{i}]: {numeric} vs {analytic}"
            );
        }
        // Check dX numerically for one entry.
        let mut x2 = x.clone();
        x2.as_mut_slice()[5] += eps;
        let y_plus = layer.forward(&x2, Mode::Eval).unwrap().sum();
        let numeric = (y_plus - y.sum()) / eps;
        assert!((numeric - dx.as_slice()[5]).abs() < 1e-1);
    }

    #[test]
    fn bias_gradient_sums_over_batch() {
        let mut layer = tiny_layer();
        let x = Tensor::from_vec(Shape::matrix(2, 2), vec![1., 0., 0., 1.]).unwrap();
        layer.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(Shape::matrix(2, 3));
        layer.backward(&g).unwrap();
        assert_eq!(layer.grad_bias.as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn from_parts_validates_shapes() {
        let w = Tensor::zeros(Shape::matrix(2, 2));
        let b = Tensor::zeros(Shape::vector(3));
        assert!(Dense::from_parts(w, b).is_err());
        let v = Tensor::zeros(Shape::vector(4));
        assert!(Dense::from_parts(v, Tensor::zeros(Shape::vector(1))).is_err());
    }

    #[test]
    fn params_exposes_weights_and_bias() {
        let mut layer = tiny_layer();
        assert_eq!(layer.params().len(), 2);
    }

    #[test]
    fn kind_reports_fan() {
        let layer = tiny_layer();
        assert_eq!(
            layer.kind(),
            LayerKind::Dense {
                inputs: 2,
                outputs: 3
            }
        );
        assert_eq!(layer.output_features(2), 3);
    }
}
