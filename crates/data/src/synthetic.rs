use crate::dataset::Dataset;
use rapidnn_nn::topology::Benchmark;
use rapidnn_tensor::{SeededRng, Shape, Tensor};

/// Specification of a synthetic Gaussian-mixture classification problem.
///
/// Each class gets a random unit-ish centroid in feature space; samples are
/// the centroid plus isotropic Gaussian noise. `separation` scales the
/// centroid spread relative to the noise — larger values make the problem
/// easier, letting us dial baseline error rates into the ballpark of the
/// paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    features: usize,
    classes: usize,
    separation: f32,
    /// Fraction of features that actually carry class signal; the rest are
    /// pure noise (mimics the uninformative background pixels of MNIST).
    informative_fraction: f32,
    /// When set, centroids are generated as smooth `C x H x W` images
    /// (low-frequency patterns bilinearly upsampled from a coarse grid) so
    /// convolution + pooling preserve the class signal.
    image: Option<(usize, usize, usize)>,
}

impl SyntheticSpec {
    /// Creates a spec with the given feature width, class count and
    /// separation.
    ///
    /// # Panics
    ///
    /// Panics when `features` or `classes` is zero, or `separation` is not
    /// positive.
    pub fn new(features: usize, classes: usize, separation: f32) -> Self {
        assert!(features > 0, "features must be positive");
        assert!(classes > 0, "classes must be positive");
        assert!(separation > 0.0, "separation must be positive");
        SyntheticSpec {
            features,
            classes,
            separation,
            informative_fraction: 0.5,
            image: None,
        }
    }

    /// Generates centroids as smooth `channels x height x width` images:
    /// per-class low-frequency patterns drawn on a coarse grid and
    /// bilinearly upsampled, so convolutional models (whose pooling
    /// destroys high-frequency pixel noise) can recover the class.
    ///
    /// # Panics
    ///
    /// Panics when `channels * height * width` differs from the feature
    /// count.
    pub fn with_image_structure(mut self, channels: usize, height: usize, width: usize) -> Self {
        assert_eq!(
            channels * height * width,
            self.features,
            "image dims must factor the feature count"
        );
        self.image = Some((channels, height, width));
        self
    }

    /// Sets the fraction of informative features (clamped to `(0, 1]`).
    pub fn with_informative_fraction(mut self, fraction: f32) -> Self {
        self.informative_fraction = fraction.clamp(0.05, 1.0);
        self
    }

    /// Feature width.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Class count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Generates `samples` labelled rows.
    ///
    /// Class labels cycle round-robin so every class is represented as
    /// evenly as possible; rows are then shuffled.
    ///
    /// # Errors
    ///
    /// Never fails today; returns `Result` so callers can use `?` uniformly
    /// with tensor construction.
    pub fn generate(
        &self,
        samples: usize,
        rng: &mut SeededRng,
    ) -> Result<Dataset, rapidnn_tensor::TensorError> {
        // Per-class mean vectors: either an informative prefix of i.i.d.
        // Gaussians, or smooth low-frequency images (conv-friendly).
        let means: Vec<f32> = match self.image {
            None => {
                let informative =
                    ((self.features as f32 * self.informative_fraction) as usize).max(1);
                let mut m = vec![0.0f32; self.classes * self.features];
                for class in 0..self.classes {
                    for f in 0..informative {
                        m[class * self.features + f] = rng.normal() * self.separation;
                    }
                }
                m
            }
            Some((channels, height, width)) => {
                let mut m = vec![0.0f32; self.classes * self.features];
                const COARSE: usize = 4;
                for class in 0..self.classes {
                    for ch in 0..channels {
                        // Coarse low-frequency pattern, bilinearly
                        // upsampled to the full resolution.
                        let mut coarse = [[0.0f32; COARSE]; COARSE];
                        for row in coarse.iter_mut() {
                            for v in row.iter_mut() {
                                *v = rng.normal() * self.separation;
                            }
                        }
                        for y in 0..height {
                            let fy = y as f32 / height as f32 * (COARSE - 1) as f32;
                            let (y0, ty) = (fy as usize, fy.fract());
                            let y1 = (y0 + 1).min(COARSE - 1);
                            for x in 0..width {
                                let fx = x as f32 / width as f32 * (COARSE - 1) as f32;
                                let (x0, tx) = (fx as usize, fx.fract());
                                let x1 = (x0 + 1).min(COARSE - 1);
                                let top = coarse[y0][x0] * (1.0 - tx) + coarse[y0][x1] * tx;
                                let bottom = coarse[y1][x0] * (1.0 - tx) + coarse[y1][x1] * tx;
                                m[class * self.features + ch * height * width + y * width + x] =
                                    top * (1.0 - ty) + bottom * ty;
                            }
                        }
                    }
                }
                m
            }
        };

        let mut order: Vec<usize> = (0..samples).collect();
        rng.shuffle(&mut order);

        // The noise is drawn in slot order, one row per slot. A fill with
        // mean 0 and deviation 1 is bit for bit those `normal()` calls:
        // `0 + 1·z` is `z` for every non-zero `z`, and Box–Muller never
        // returns zero.
        let mut noise = vec![0.0f32; samples * self.features];
        rng.fill_normal(&mut noise, 0.0, 1.0);
        let mut xs = vec![0.0f32; samples * self.features];
        let mut labels = vec![0usize; samples];
        for (slot, (&row, row_noise)) in order
            .iter()
            .zip(noise.chunks_exact(self.features))
            .enumerate()
        {
            let class = slot % self.classes;
            labels[row] = class;
            let mean = &means[class * self.features..(class + 1) * self.features];
            for ((x, &m), &z) in xs[row * self.features..]
                .iter_mut()
                .zip(mean)
                .zip(row_noise)
            {
                *x = m + z;
            }
        }
        let inputs = Tensor::from_vec(Shape::matrix(samples, self.features), xs)?;
        Ok(Dataset::new(inputs, labels, self.classes))
    }
}

/// The synthetic stand-in spec for a paper benchmark (same input width and
/// class count as Table 2; separation tuned per benchmark difficulty).
pub fn benchmark_spec(benchmark: Benchmark) -> SyntheticSpec {
    // Harder benchmarks (CIFAR-100, ImageNet) get lower separation so the
    // float baseline lands at a visibly nonzero error rate, mirroring the
    // relative difficulty ordering of Table 2.
    let (separation, informative) = match benchmark {
        Benchmark::Mnist => (0.55, 0.25),
        Benchmark::Isolet => (0.80, 0.4),
        Benchmark::Har => (0.65, 0.4),
        Benchmark::Cifar10 => (0.38, 0.3),
        Benchmark::Cifar100 => (0.32, 0.3),
        Benchmark::ImageNet => (0.55, 0.3),
        // `Benchmark` is non-exhaustive; future variants default to a
        // CIFAR-like difficulty.
        _ => (1.0, 0.3),
    };
    let spec = SyntheticSpec::new(benchmark.input_features(), benchmark.classes(), separation)
        .with_informative_fraction(informative);
    if benchmark.is_type2() {
        // Convolutional benchmarks get smooth image-structured centroids.
        spec.with_image_structure(3, 32, 32)
    } else {
        spec
    }
}

/// Generates the stand-in dataset for `benchmark` with `samples` rows.
///
/// # Errors
///
/// Propagates tensor construction errors (none expected in practice).
pub fn benchmark_dataset(
    benchmark: Benchmark,
    samples: usize,
    rng: &mut SeededRng,
) -> Result<Dataset, rapidnn_tensor::TensorError> {
    benchmark_spec(benchmark).generate(samples, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_matches_spec() {
        let mut rng = SeededRng::new(3);
        let spec = SyntheticSpec::new(8, 3, 2.0);
        let d = spec.generate(90, &mut rng).unwrap();
        assert_eq!(d.len(), 90);
        assert_eq!(d.features(), 8);
        assert_eq!(d.classes(), 3);
        // Round-robin labelling: perfectly balanced.
        let mut counts = [0usize; 3];
        for &l in d.labels() {
            counts[l] += 1;
        }
        assert_eq!(counts, [30, 30, 30]);
    }

    #[test]
    fn same_seed_same_dataset() {
        let spec = SyntheticSpec::new(4, 2, 1.0);
        let a = spec.generate(20, &mut SeededRng::new(5)).unwrap();
        let b = spec.generate(20, &mut SeededRng::new(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_separation_is_more_separable() {
        // Nearest-centroid error should drop as separation grows.
        let err_at = |sep: f32| {
            let mut rng = SeededRng::new(11);
            let spec = SyntheticSpec::new(16, 4, sep).with_informative_fraction(1.0);
            let d = spec.generate(400, &mut rng).unwrap();
            // Estimate class means from the first half; classify the rest.
            let (train, test) = d.split(0.5);
            let f = train.features();
            let mut means = vec![0.0f32; 4 * f];
            let mut counts = [0usize; 4];
            for i in 0..train.len() {
                let label = train.labels()[i];
                counts[label] += 1;
                for (j, v) in train.sample(i).as_slice().iter().enumerate() {
                    means[label * f + j] += v;
                }
            }
            for c in 0..4 {
                for j in 0..f {
                    means[c * f + j] /= counts[c].max(1) as f32;
                }
            }
            let mut wrong = 0;
            for i in 0..test.len() {
                let x = test.sample(i);
                let mut best = (f32::INFINITY, 0usize);
                for c in 0..4 {
                    let dist: f32 = x
                        .as_slice()
                        .iter()
                        .zip(&means[c * f..(c + 1) * f])
                        .map(|(a, b)| (a - b).powi(2))
                        .sum();
                    if dist < best.0 {
                        best = (dist, c);
                    }
                }
                if best.1 != test.labels()[i] {
                    wrong += 1;
                }
            }
            wrong as f32 / test.len() as f32
        };
        let hard = err_at(0.2);
        let easy = err_at(3.0);
        assert!(easy < hard, "easy {easy} vs hard {hard}");
        assert!(easy < 0.05);
    }

    #[test]
    fn benchmark_specs_match_table2_shapes() {
        for bench in Benchmark::ALL {
            let spec = benchmark_spec(bench);
            assert_eq!(spec.features(), bench.input_features(), "{bench}");
            assert_eq!(spec.classes(), bench.classes(), "{bench}");
        }
    }

    #[test]
    fn benchmark_dataset_generates() {
        let mut rng = SeededRng::new(0);
        let d = benchmark_dataset(Benchmark::Har, 30, &mut rng).unwrap();
        assert_eq!(d.len(), 30);
        assert_eq!(d.features(), 561);
        assert_eq!(d.classes(), 19);
    }

    #[test]
    #[should_panic(expected = "separation")]
    fn rejects_nonpositive_separation() {
        let _ = SyntheticSpec::new(4, 2, 0.0);
    }
}
