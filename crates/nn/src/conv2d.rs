use crate::layer::{Layer, LayerKind, Mode, ParamSet};
use crate::{NnError, Result};
use rapidnn_tensor::{im2col, Conv2dGeometry, Initializer, Padding, SeededRng, Shape, Tensor};

/// 2-D convolution layer implemented as im2col + GEMM.
///
/// The weight tensor is stored as an `out_channels x patch_len` matrix
/// (`patch_len = in_channels · kh · kw`), i.e. one row per output channel —
/// the granularity at which the RAPIDNN composer builds per-channel weight
/// codebooks.
///
/// Inputs and outputs are `batch x features` matrices; features are the
/// flattened `C·H·W` volume described by the layer's geometry.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geometry: Conv2dGeometry,
    out_channels: usize,
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    cached_cols: Vec<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns an error when the geometry is impossible.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        in_height: usize,
        in_width: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
        rng: &mut SeededRng,
    ) -> Result<Self> {
        let geometry = Conv2dGeometry::new(
            in_channels,
            in_height,
            in_width,
            kernel,
            kernel,
            stride,
            padding,
        )?;
        let patch_len = geometry.patch_len();
        let weights = rng.init_tensor(
            Shape::matrix(out_channels, patch_len),
            Initializer::HeNormal,
            patch_len,
            out_channels,
        );
        Ok(Conv2d {
            geometry,
            out_channels,
            weights,
            bias: Tensor::zeros(Shape::vector(out_channels)),
            grad_weights: Tensor::zeros(Shape::matrix(out_channels, patch_len)),
            grad_bias: Tensor::zeros(Shape::vector(out_channels)),
            cached_cols: Vec::new(),
        })
    }

    /// The resolved window geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geometry
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The `out_channels x patch_len` weight matrix.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The per-channel bias vector.
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
                "replacement weights {} mismatch conv weights {}",
                weights.shape(),
                self.weights.shape()
            )));
        }
        self.weights = weights;
        Ok(())
    }

    /// Flattened output feature count (`out_channels · out_h · out_w`).
    pub fn out_features(&self) -> usize {
        self.out_channels * self.geometry.out_pixels()
    }

    /// Flattened input feature count (`in_channels · in_h · in_w`).
    pub fn in_features(&self) -> usize {
        self.geometry.input_shape().volume()
    }

    /// Scatters a patch-matrix gradient back to image layout (col2im).
    fn col2im(&self, dcols: &Tensor) -> Tensor {
        let g = &self.geometry;
        let (c, h, w) = (g.in_channels, g.in_height, g.in_width);
        let mut img = vec![0.0f32; c * h * w];
        let out_pixels = g.out_pixels();
        let mut patch_row = 0;
        for ch in 0..c {
            for kh in 0..g.kernel_h {
                for kw in 0..g.kernel_w {
                    for oy in 0..g.out_height {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        for ox in 0..g.out_width {
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                let p = oy * g.out_width + ox;
                                img[ch * h * w + iy as usize * w + ix as usize] +=
                                    dcols.as_slice()[patch_row * out_pixels + p];
                            }
                        }
                    }
                    patch_row += 1;
                }
            }
        }
        Tensor::from_vec(Shape::vector(c * h * w), img).expect("volume matches")
    }

    /// Leaves dW and db of `grad` (d-loss/d-output) over the cached patch
    /// matrices in the layer; with `dx`, also writes d-loss/d-input, one
    /// `in_features` row per sample.
    fn accumulate(&mut self, grad: &Tensor, mut dx: Option<&mut [f32]>) -> Result<()> {
        if self.cached_cols.is_empty() {
            return Err(NnError::MissingForwardCache("conv2d"));
        }
        let batch = grad.shape().dims()[0];
        if batch != self.cached_cols.len() {
            return Err(NnError::InvalidLabels(format!(
                "gradient batch {batch} does not match cached batch {}",
                self.cached_cols.len()
            )));
        }
        let pixels = self.geometry.out_pixels();
        let out_features = self.out_features();
        let in_features = self.in_features();
        let patch_len = self.geometry.patch_len();

        let mut dw = Tensor::zeros(Shape::matrix(self.out_channels, patch_len));
        let mut db = vec![0.0f32; self.out_channels];
        let wt = self.weights.transpose()?;

        for b in 0..batch {
            let dy = Tensor::from_vec(
                Shape::matrix(self.out_channels, pixels),
                grad.as_slice()[b * out_features..(b + 1) * out_features].to_vec(),
            )?;
            let cols = &self.cached_cols[b];
            // dW += dY · colsᵀ
            let colst = cols.transpose()?;
            let contrib = dy.matmul(&colst)?;
            dw.add_scaled(&contrib, 1.0)?;
            // db += row sums of dY
            for (oc, acc) in db.iter_mut().enumerate() {
                *acc += dy.as_slice()[oc * pixels..(oc + 1) * pixels]
                    .iter()
                    .sum::<f32>();
            }
            // dcols = Wᵀ · dY, then scatter back to image layout.
            if let Some(dx) = dx.as_deref_mut() {
                let dcols = wt.matmul(&dy)?;
                let img = self.col2im(&dcols);
                dx[b * in_features..(b + 1) * in_features].copy_from_slice(img.as_slice());
            }
        }

        self.grad_weights = dw;
        self.grad_bias = Tensor::from_vec(Shape::vector(self.out_channels), db)?;
        Ok(())
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let in_features = self.in_features();
        if input.shape().rank() != 2 || input.shape().dims()[1] != in_features {
            return Err(NnError::FeatureMismatch {
                layer: "conv2d",
                expected: in_features,
                actual: input.shape().dim(1).unwrap_or(0),
            });
        }
        let batch = input.shape().dims()[0];
        let out_features = self.out_features();
        let mut out = vec![0.0f32; batch * out_features];
        if mode == Mode::Train {
            self.cached_cols.clear();
        }
        for b in 0..batch {
            let sample = Tensor::from_vec(
                self.geometry.input_shape(),
                input.as_slice()[b * in_features..(b + 1) * in_features].to_vec(),
            )?;
            let cols = im2col(&sample, &self.geometry)?;
            let y = self.weights.matmul(&cols)?;
            let pixels = self.geometry.out_pixels();
            for oc in 0..self.out_channels {
                let bias = self.bias.as_slice()[oc];
                for p in 0..pixels {
                    out[b * out_features + oc * pixels + p] = y.as_slice()[oc * pixels + p] + bias;
                }
            }
            if mode == Mode::Train {
                self.cached_cols.push(cols);
            }
        }
        Ok(Tensor::from_vec(Shape::matrix(batch, out_features), out)?)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let batch = grad.shape().dims()[0];
        let in_features = self.in_features();
        let mut dx = vec![0.0f32; batch * in_features];
        self.accumulate(grad, Some(&mut dx))?;
        Ok(Tensor::from_vec(Shape::matrix(batch, in_features), dx)?)
    }

    fn backward_params(&mut self, grad: &Tensor) -> Result<()> {
        self.accumulate(grad, None)
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
        LayerKind::Conv2d {
            geometry: self.geometry,
            out_channels: self.out_channels,
        }
    }

    fn output_features(&self, _input_features: usize) -> usize {
        self.out_features()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_2x2_identityish(rng: &mut SeededRng) -> Conv2d {
        let mut layer = Conv2d::new(1, 3, 3, 1, 2, 1, Padding::Valid, rng).unwrap();
        // Kernel [[1, 0], [0, 0]] picks the top-left of each window.
        layer
            .set_weights(Tensor::from_vec(Shape::matrix(1, 4), vec![1.0, 0.0, 0.0, 0.0]).unwrap())
            .unwrap();
        layer
    }

    #[test]
    fn forward_selects_window_values() {
        let mut rng = SeededRng::new(0);
        let mut layer = layer_2x2_identityish(&mut rng);
        let x = Tensor::from_vec(
            Shape::matrix(1, 9),
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9.],
        )
        .unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[1., 2., 4., 5.]);
    }

    #[test]
    fn forward_applies_bias_per_channel() {
        let mut rng = SeededRng::new(0);
        let mut layer = Conv2d::new(1, 2, 2, 2, 2, 1, Padding::Valid, &mut rng).unwrap();
        layer
            .set_weights(Tensor::zeros(Shape::matrix(2, 4)))
            .unwrap();
        layer.bias = Tensor::from_vec(Shape::vector(2), vec![1.0, -1.0]).unwrap();
        let x = Tensor::ones(Shape::matrix(1, 4));
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = SeededRng::new(0);
        let mut layer = layer_2x2_identityish(&mut rng);
        let x = Tensor::ones(Shape::matrix(1, 8));
        assert!(layer.forward(&x, Mode::Eval).is_err());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SeededRng::new(5);
        let mut layer = Conv2d::new(2, 4, 4, 3, 3, 1, Padding::Valid, &mut rng).unwrap();
        let x = rng.uniform_tensor(Shape::matrix(2, 32), -1.0, 1.0);

        let y = layer.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(y.shape().clone());
        let dx = layer.backward(&ones).unwrap();

        let eps = 1e-2;
        // dW check on two entries.
        for &flat in &[0usize, 17] {
            let mut bumped = layer.clone();
            let mut w = bumped.weights().clone();
            w.as_mut_slice()[flat] += eps;
            bumped.set_weights(w).unwrap();
            let y_plus = bumped.forward(&x, Mode::Eval).unwrap().sum();
            let numeric = (y_plus - y.sum()) / eps;
            let analytic = layer.grad_weights.as_slice()[flat];
            assert!(
                (numeric - analytic).abs() < 0.3,
                "dW[{flat}]: {numeric} vs {analytic}"
            );
        }
        // dX check.
        let mut x2 = x.clone();
        x2.as_mut_slice()[10] += eps;
        let y_plus = layer.forward(&x2, Mode::Eval).unwrap().sum();
        let numeric = (y_plus - y.sum()) / eps;
        assert!((numeric - dx.as_slice()[10]).abs() < 0.3);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = SeededRng::new(0);
        let mut layer = layer_2x2_identityish(&mut rng);
        assert!(layer.backward(&Tensor::ones(Shape::matrix(1, 4))).is_err());
    }

    #[test]
    fn out_features_match_geometry() {
        let mut rng = SeededRng::new(0);
        let layer = Conv2d::new(3, 32, 32, 16, 3, 1, Padding::Same, &mut rng).unwrap();
        assert_eq!(layer.out_features(), 16 * 32 * 32);
        assert_eq!(layer.in_features(), 3 * 32 * 32);
        assert_eq!(layer.output_features(3 * 32 * 32), 16 * 32 * 32);
    }
}
