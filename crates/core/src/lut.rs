use crate::codebook::Codebook;
use crate::{CoreError, Result};
use rapidnn_nn::Activation;

/// How the activation lookup table places its sample points over the
/// clamped domain (Figure 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum QuantizationScheme {
    /// Equally spaced points between the domain bounds.
    Uniform,
    /// Curvature-weighted placement: more points where the activation
    /// bends fastest ("non-linear quantization enables putting more points
    /// on the regions that activation function has sharper changes").
    #[default]
    NonLinear,
}

/// Nearest-distance lookup table approximating an activation function.
///
/// The table stores `(y, z)` coordinate pairs; evaluation finds the stored
/// `y` nearest to the query and returns its `z` — exactly the search the
/// NDCAM block performs in hardware. For ReLU the accelerator replaces the
/// table with a single comparator, which this type models as an exact
/// pass-through ([`ActivationTable::comparator_relu`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationTable {
    activation: Activation,
    /// Sorted query coordinates (`y` in Figure 2c).
    inputs: Vec<f32>,
    /// Output per query coordinate (`z`).
    outputs: Vec<f32>,
    /// `true` when this models the exact CMOS comparator used for ReLU.
    exact_comparator: bool,
}

impl ActivationTable {
    /// Builds a `rows`-entry table for `activation` over `[lo, hi]` with
    /// the given point-placement scheme.
    ///
    /// The domain is typically derived from observed pre-activation values;
    /// for saturating activations the paper clamps it between the two
    /// saturation knees (points `A` and `B`).
    ///
    /// # Errors
    ///
    /// Returns an error when `rows < 2` or the domain is empty/non-finite.
    pub fn build(
        activation: Activation,
        lo: f32,
        hi: f32,
        rows: usize,
        scheme: QuantizationScheme,
    ) -> Result<Self> {
        if rows < 2 {
            return Err(CoreError::InvalidCodebook(
                "activation table needs at least 2 rows".into(),
            ));
        }
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(CoreError::InvalidCodebook(format!(
                "invalid activation domain [{lo}, {hi}]"
            )));
        }
        let inputs = match scheme {
            QuantizationScheme::Uniform => uniform_points(lo, hi, rows),
            QuantizationScheme::NonLinear => curvature_points(activation, lo, hi, rows),
        };
        let outputs = inputs.iter().map(|&y| activation.apply(y)).collect();
        Ok(ActivationTable {
            activation,
            inputs,
            outputs,
            exact_comparator: false,
        })
    }

    /// Models the exact single-comparator ReLU implementation ("for easy
    /// activation functions such as ReLU, our design can replace the lookup
    /// table with a simple comparator block").
    pub fn comparator_relu() -> Self {
        ActivationTable {
            activation: Activation::Relu,
            inputs: vec![0.0],
            outputs: vec![0.0],
            exact_comparator: true,
        }
    }

    /// Identity table used by the output layer (logits pass through).
    pub fn identity() -> Self {
        ActivationTable {
            activation: Activation::Identity,
            inputs: vec![0.0],
            outputs: vec![0.0],
            exact_comparator: true,
        }
    }

    /// The modelled activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of stored rows (1 for comparator/identity variants).
    pub fn rows(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when this table computes its activation exactly (comparator
    /// ReLU / identity) rather than by nearest-point lookup.
    pub fn is_exact(&self) -> bool {
        self.exact_comparator
    }

    /// Sorted query coordinates (`y` in Figure 2c) — exposed so compiled
    /// artifacts can flatten the table.
    pub fn inputs(&self) -> &[f32] {
        &self.inputs
    }

    /// Output per query coordinate (`z`), aligned with [`Self::inputs`].
    pub fn outputs(&self) -> &[f32] {
        &self.outputs
    }

    /// Evaluates the table at `y` — nearest stored input point wins.
    pub fn lookup(&self, y: f32) -> f32 {
        if self.exact_comparator {
            return self.activation.apply(y);
        }
        self.outputs[crate::nearest::nearest(&self.inputs, y)]
    }

    /// Worst-case absolute approximation error sampled over the domain.
    pub fn max_error(&self, samples: usize) -> f32 {
        if self.exact_comparator {
            return 0.0;
        }
        let lo = self.inputs[0];
        let hi = *self.inputs.last().expect("table is non-empty");
        let mut worst = 0.0f32;
        for i in 0..samples.max(2) {
            let y = lo + (hi - lo) * i as f32 / (samples.max(2) - 1) as f32;
            let err = (self.lookup(y) - self.activation.apply(y)).abs();
            worst = worst.max(err);
        }
        worst
    }
}

fn uniform_points(lo: f32, hi: f32, rows: usize) -> Vec<f32> {
    (0..rows)
        .map(|i| lo + (hi - lo) * i as f32 / (rows - 1) as f32)
        .collect()
}

/// Places points at equal quantiles of an importance density proportional
/// to the activation's slope |f'| (plus a uniform floor, so saturated
/// regions still get a few points). For a nearest-input lookup the output
/// error is ≈ |f'|·Δ/2, so slope-proportional density equalises the error
/// across the domain — the paper's "more points on the regions that the
/// activation function has sharper changes".
fn curvature_points(activation: Activation, lo: f32, hi: f32, rows: usize) -> Vec<f32> {
    const GRID: usize = 512;
    let step = (hi - lo) / (GRID - 1) as f32;
    let mut density = Vec::with_capacity(GRID);
    for i in 0..GRID {
        let y = lo + step * i as f32;
        density.push(activation.derivative(y).abs() + 0.05);
    }
    // Cumulative distribution.
    let mut cdf = Vec::with_capacity(GRID);
    let mut acc = 0.0f32;
    for d in &density {
        acc += d;
        cdf.push(acc);
    }
    let total = acc;
    // Equal-quantile point placement with pinned endpoints.
    let mut points = Vec::with_capacity(rows);
    points.push(lo);
    for r in 1..rows - 1 {
        let target = total * r as f32 / (rows - 1) as f32;
        let idx = cdf.partition_point(|&c| c < target).min(GRID - 1);
        points.push(lo + step * idx as f32);
    }
    points.push(hi);
    points.sort_by(f32::total_cmp);
    points.dedup();
    // Deduplication may shrink the list; pad with uniform fill-ins.
    let mut i = 0;
    while points.len() < rows && i < rows {
        let candidate = lo + (hi - lo) * (i as f32 + 0.5) / rows as f32;
        if points.iter().all(|&p| (p - candidate).abs() > f32::EPSILON) {
            points.push(candidate);
            points.sort_by(f32::total_cmp);
        }
        i += 1;
    }
    points
}

/// Lookup table that re-encodes an activation output into the *next*
/// layer's input codebook (Figure 2d).
///
/// In hardware this is the second AM block of an RNA: a nearest-distance
/// search over the next layer's representatives whose payload is the
/// encoded index.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderTable {
    target: Codebook,
}

impl EncoderTable {
    /// Creates an encoder table targeting `codebook`.
    pub fn new(target: Codebook) -> Self {
        EncoderTable { target }
    }

    /// The codebook this table encodes into.
    pub fn target(&self) -> &Codebook {
        &self.target
    }

    /// Number of rows (representatives) in the AM block.
    pub fn rows(&self) -> usize {
        self.target.len()
    }

    /// Encodes a real value to the nearest representative's index.
    pub fn encode(&self, z: f32) -> u16 {
        self.target.encode(z)
    }

    /// Decodes an index back to its representative.
    pub fn decode(&self, code: u16) -> f32 {
        self.target.decode(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_table_approximates_sigmoid() {
        let t = ActivationTable::build(
            Activation::Sigmoid,
            -8.0,
            8.0,
            64,
            QuantizationScheme::Uniform,
        )
        .unwrap();
        assert_eq!(t.rows(), 64);
        assert!((t.lookup(0.0) - 0.5).abs() < 0.05);
        assert!(t.lookup(7.9) > 0.99);
        assert!(t.lookup(-7.9) < 0.01);
        assert!(t.max_error(1000) < 0.05);
    }

    #[test]
    fn nonlinear_beats_uniform_on_sigmoid() {
        // The paper's motivation for non-linear quantization: for the same
        // row budget, curvature-weighted points approximate better.
        let rows = 16;
        let uni = ActivationTable::build(
            Activation::Sigmoid,
            -8.0,
            8.0,
            rows,
            QuantizationScheme::Uniform,
        )
        .unwrap();
        let non = ActivationTable::build(
            Activation::Sigmoid,
            -8.0,
            8.0,
            rows,
            QuantizationScheme::NonLinear,
        )
        .unwrap();
        assert!(
            non.max_error(2000) < uni.max_error(2000),
            "nonlinear {} vs uniform {}",
            non.max_error(2000),
            uni.max_error(2000)
        );
    }

    #[test]
    fn more_rows_reduce_error() {
        let err = |rows| {
            ActivationTable::build(
                Activation::Tanh,
                -4.0,
                4.0,
                rows,
                QuantizationScheme::NonLinear,
            )
            .unwrap()
            .max_error(2000)
        };
        assert!(err(64) < err(8));
    }

    #[test]
    fn comparator_relu_is_exact() {
        let t = ActivationTable::comparator_relu();
        assert!(t.is_exact());
        assert_eq!(t.lookup(-3.5), 0.0);
        assert_eq!(t.lookup(2.25), 2.25);
        assert_eq!(t.max_error(100), 0.0);
    }

    #[test]
    fn identity_table_passes_through() {
        let t = ActivationTable::identity();
        assert_eq!(t.lookup(1.234), 1.234);
        assert!(t.is_exact());
    }

    #[test]
    fn build_validates_inputs() {
        assert!(ActivationTable::build(
            Activation::Sigmoid,
            -1.0,
            1.0,
            1,
            QuantizationScheme::Uniform
        )
        .is_err());
        assert!(ActivationTable::build(
            Activation::Sigmoid,
            2.0,
            1.0,
            8,
            QuantizationScheme::Uniform
        )
        .is_err());
        assert!(ActivationTable::build(
            Activation::Sigmoid,
            f32::NAN,
            1.0,
            8,
            QuantizationScheme::Uniform
        )
        .is_err());
    }

    #[test]
    fn lookup_clamps_outside_domain() {
        let t = ActivationTable::build(
            Activation::Sigmoid,
            -4.0,
            4.0,
            32,
            QuantizationScheme::Uniform,
        )
        .unwrap();
        // Saturation: queries beyond the domain return the edge values.
        assert!((t.lookup(100.0) - t.lookup(4.0)).abs() < 1e-6);
        assert!((t.lookup(-100.0) - t.lookup(-4.0)).abs() < 1e-6);
    }

    #[test]
    fn encoder_table_round_trips() {
        let cb = Codebook::new(vec![-1.0, 0.0, 1.0]).unwrap();
        let enc = EncoderTable::new(cb);
        assert_eq!(enc.rows(), 3);
        assert_eq!(enc.encode(0.9), 2);
        assert_eq!(enc.decode(2), 1.0);
        assert_eq!(enc.encode(enc.decode(1)), 1);
    }
}
