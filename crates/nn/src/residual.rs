use crate::layer::{Layer, LayerKind, Mode, ParamSet};
use crate::{NnError, Result};
use rapidnn_tensor::Tensor;

/// Residual block: `y = x + branch(x)`.
///
/// The branch is an arbitrary stack of layers whose output width must equal
/// its input width. The RAPIDNN controller supports residual layers by
/// keeping skipped-connection values in the RNA input FIFOs (§4.3); this
/// layer provides the training-side counterpart.
#[derive(Debug)]
pub struct Residual {
    branch: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// Creates a residual block around `branch`.
    pub fn new(branch: Vec<Box<dyn Layer>>) -> Self {
        Residual { branch }
    }

    /// Number of layers in the branch.
    pub fn branch_len(&self) -> usize {
        self.branch.len()
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut current = input.clone();
        for layer in &mut self.branch {
            current = layer.forward(&current, mode)?;
        }
        if current.shape() != input.shape() {
            return Err(NnError::InvalidNetwork(format!(
                "residual branch output {} differs from input {}",
                current.shape(),
                input.shape()
            )));
        }
        Ok(current.add(input)?)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let mut branch_grad = grad.clone();
        for layer in self.branch.iter_mut().rev() {
            branch_grad = layer.backward(&branch_grad)?;
        }
        // d/dx (x + f(x)) = 1 + f'(x): skip path adds the incoming gradient.
        Ok(branch_grad.add(grad)?)
    }

    fn params(&mut self) -> Vec<ParamSet<'_>> {
        self.branch
            .iter_mut()
            .flat_map(|layer| layer.params())
            .collect()
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Residual
    }

    fn output_features(&self, input_features: usize) -> usize {
        input_features
    }

    fn branch(&self) -> Option<&[Box<dyn Layer>]> {
        Some(&self.branch)
    }

    fn branch_mut(&mut self) -> Option<&mut Vec<Box<dyn Layer>>> {
        Some(&mut self.branch)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Residual {
            branch: self.branch.iter().map(|l| l.clone_layer()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationLayer, Dense};
    use rapidnn_tensor::{SeededRng, Shape};

    fn block(rng: &mut SeededRng) -> Residual {
        Residual::new(vec![
            Box::new(Dense::new(4, 4, rng)),
            Box::new(ActivationLayer::new(Activation::Relu)),
        ])
    }

    #[test]
    fn forward_adds_skip_connection() {
        let rng = SeededRng::new(9);
        let mut res = Residual::new(vec![Box::new(ActivationLayer::new(Activation::Relu))]);
        let x = Tensor::from_vec(Shape::matrix(1, 3), vec![-1.0, 0.5, 2.0]).unwrap();
        let y = res.forward(&x, Mode::Eval).unwrap();
        // relu(x) + x
        assert_eq!(y.as_slice(), &[-1.0, 1.0, 4.0]);
        let _ = rng;
    }

    #[test]
    fn mismatched_branch_width_is_rejected() {
        let mut rng = SeededRng::new(9);
        let mut res = Residual::new(vec![Box::new(Dense::new(4, 3, &mut rng))]);
        let x = Tensor::ones(Shape::matrix(1, 4));
        assert!(res.forward(&x, Mode::Eval).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = SeededRng::new(42);
        let mut res = block(&mut rng);
        let x = rng.uniform_tensor(Shape::matrix(2, 4), -1.0, 1.0);
        let y = res.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        let dx = res.backward(&ones).unwrap();

        let eps = 1e-3;
        for flat in [0usize, 5] {
            let mut x2 = x.clone();
            x2.as_mut_slice()[flat] += eps;
            let y2 = res.forward(&x2, Mode::Eval).unwrap();
            let numeric = (y2.sum() - y.sum()) / eps;
            assert!(
                (numeric - dx.as_slice()[flat]).abs() < 0.05,
                "entry {flat}: {numeric} vs {}",
                dx.as_slice()[flat]
            );
        }
    }

    #[test]
    fn params_aggregate_branch_layers() {
        let mut rng = SeededRng::new(1);
        let mut res = block(&mut rng);
        assert_eq!(res.params().len(), 2); // dense weights + bias
        assert_eq!(res.branch_len(), 2);
        assert_eq!(res.kind(), LayerKind::Residual);
    }
}
