use crate::codebook::Codebook;

use crate::lut::{ActivationTable, EncoderTable, QuantizationScheme};
use crate::product::ProductTable;
use crate::{CoreError, Result};
use rapidnn_data::Dataset;
use rapidnn_nn::{loss, Activation, Layer, LayerKind, Mode, Network};
use rapidnn_tensor::{Conv2dGeometry, Shape, Tensor};

/// Structural kind of a neuron stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageKind {
    /// Fully connected stage.
    Dense {
        /// Input feature count.
        inputs: usize,
        /// Output neuron count.
        outputs: usize,
    },
    /// Convolution stage (one neuron per output pixel per channel).
    Conv {
        /// Window sweep geometry.
        geometry: Conv2dGeometry,
        /// Output channels (one codebook + product table each).
        out_channels: usize,
    },
}

impl StageKind {
    /// Flattened input feature count.
    pub fn input_features(&self) -> usize {
        match self {
            StageKind::Dense { inputs, .. } => *inputs,
            StageKind::Conv { geometry, .. } => geometry.input_shape().volume(),
        }
    }

    /// Flattened output feature count.
    pub fn output_features(&self) -> usize {
        match self {
            StageKind::Dense { outputs, .. } => *outputs,
            StageKind::Conv {
                geometry,
                out_channels,
            } => out_channels * geometry.out_pixels(),
        }
    }

    /// Number of hardware neurons this stage maps to (each output of a
    /// dense layer, each output pixel of each conv channel).
    pub fn neuron_count(&self) -> usize {
        self.output_features()
    }

    /// Incoming edges per neuron (multiply-accumulate operations).
    pub fn edges_per_neuron(&self) -> usize {
        match self {
            StageKind::Dense { inputs, .. } => *inputs,
            StageKind::Conv { geometry, .. } => geometry.patch_len(),
        }
    }
}

/// One reinterpreted weighted layer: encoded multiply (product-table
/// fetch), in-memory accumulation, activation lookup, re-encoding.
#[derive(Debug, Clone)]
pub struct NeuronStage {
    kind: StageKind,
    /// Input representatives for this stage (`u` values).
    input_codebook: Codebook,
    /// One weight codebook for dense stages; one per output channel for
    /// conv stages (§3.1 "Weights").
    weight_codebooks: Vec<Codebook>,
    /// Encoded weights: `outputs x inputs` (dense) or
    /// `out_channels x patch_len` (conv), row-major.
    weight_codes: Vec<u16>,
    /// Float bias per output neuron group (dense output / conv channel).
    bias: Vec<f32>,
    /// Product tables aligned with `weight_codebooks`.
    product_tables: Vec<ProductTable>,
    /// Activation lookup table (shared by the stage's neurons).
    activation: ActivationTable,
    /// Re-encoder targeting the next stage's input codebook; `None` for
    /// the output stage, which emits raw accumulated floats.
    encoder: Option<EncoderTable>,
    /// Code used for zero-padding in conv stages.
    zero_code: u16,
}

impl NeuronStage {
    /// Structural kind.
    pub fn kind(&self) -> &StageKind {
        &self.kind
    }

    /// The stage's input codebook.
    pub fn input_codebook(&self) -> &Codebook {
        &self.input_codebook
    }

    /// Weight codebooks (1 for dense, per-channel for conv).
    pub fn weight_codebooks(&self) -> &[Codebook] {
        &self.weight_codebooks
    }

    /// Product tables (aligned with [`Self::weight_codebooks`]).
    pub fn product_tables(&self) -> &[ProductTable] {
        &self.product_tables
    }

    /// The activation table.
    pub fn activation(&self) -> &ActivationTable {
        &self.activation
    }

    /// The encoder table, when this is not the output stage.
    pub fn encoder(&self) -> Option<&EncoderTable> {
        self.encoder.as_ref()
    }

    /// Encoded weight matrix, row-major.
    pub fn weight_codes(&self) -> &[u16] {
        &self.weight_codes
    }

    /// Float bias per output neuron group (dense output / conv channel).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Code used for zero-padding in conv stages.
    pub fn zero_code(&self) -> u16 {
        self.zero_code
    }

    /// Approximate on-accelerator memory footprint in bytes: product
    /// tables + weight codes + the two AM blocks.
    pub fn memory_bytes(&self) -> usize {
        let product_bits: usize = self.product_tables.iter().map(|t| t.len() * 32).sum();
        let code_bits = self.weight_codes.len() * self.weight_codebooks[0].bits() as usize;
        let act_bits = self.activation.rows() * 64;
        let enc_bits = self.encoder.as_ref().map_or(0, |e| e.rows() * 64);
        (product_bits + code_bits + act_bits + enc_bits).div_ceil(8)
    }

    fn run(&self, codes: &[u16]) -> Result<(Vec<f32>, Option<Vec<u16>>)> {
        let expected = self.kind.input_features();
        if codes.len() != expected {
            return Err(CoreError::InvalidBatch(format!(
                "stage expects {expected} encoded inputs, received {}",
                codes.len()
            )));
        }
        let accumulated = self.accumulate(codes);
        let activated: Vec<f32> = accumulated
            .iter()
            .map(|&y| self.activation.lookup(y))
            .collect();
        match &self.encoder {
            Some(enc) => {
                let codes = activated.iter().map(|&z| enc.encode(z)).collect();
                Ok((activated, Some(codes)))
            }
            None => Ok((activated, None)),
        }
    }

    /// Pre-activation outputs of one encoded sample: dense outputs
    /// [`TILE`] at a time (four weight rows against the same inputs),
    /// conv output pixels [`TILE`] at a time (one channel's weight row
    /// against four patches), a ragged tail one at a time through the
    /// same body.
    fn accumulate(&self, codes: &[u16]) -> Vec<f32> {
        match &self.kind {
            StageKind::Dense { inputs, outputs } => {
                let table = &self.product_tables[0];
                let row = |o: usize| &self.weight_codes[o * inputs..(o + 1) * inputs];
                let mut out = vec![0.0f32; *outputs];
                let whole = outputs - outputs % TILE;
                for o in (0..whole).step_by(TILE) {
                    let sums = accumulate_tile::<TILE>(
                        table,
                        std::array::from_fn(|r| self.bias[o + r]),
                        std::array::from_fn(|r| row(o + r)),
                        [codes; TILE],
                    );
                    out[o..o + TILE].copy_from_slice(&sums);
                }
                for (o, y) in out.iter_mut().enumerate().skip(whole) {
                    [*y] = accumulate_tile::<1>(table, [self.bias[o]], [row(o)], [codes]);
                }
                out
            }
            StageKind::Conv {
                geometry: g,
                out_channels,
            } => {
                let patch_len = g.patch_len();
                let pixels = g.out_pixels();
                let mut out = vec![0.0f32; out_channels * pixels];
                let mut patches = vec![0u16; TILE * patch_len];
                let whole = pixels - pixels % TILE;
                for p in (0..whole).step_by(TILE) {
                    self.conv_tile::<TILE>(g, codes, p, &mut patches, &mut out);
                }
                for p in whole..pixels {
                    self.conv_tile::<1>(g, codes, p, &mut patches, &mut out);
                }
                out
            }
        }
    }

    /// Conv output pixels `p..p + R` of every channel: their `R` patches
    /// are gathered once into `patches`, then each channel's weight row
    /// runs against all of them in one tile.
    fn conv_tile<const R: usize>(
        &self,
        g: &Conv2dGeometry,
        codes: &[u16],
        p: usize,
        patches: &mut [u16],
        out: &mut [f32],
    ) {
        let patch_len = g.patch_len();
        let pixels = g.out_pixels();
        for (r, patch) in patches.chunks_exact_mut(patch_len).take(R).enumerate() {
            gather_patch(g, codes, self.zero_code, p + r, patch);
        }
        let patches: [&[u16]; R] =
            std::array::from_fn(|r| &patches[r * patch_len..(r + 1) * patch_len]);
        for (oc, wrow) in self.weight_codes.chunks_exact(patch_len).enumerate() {
            let sums = accumulate_tile::<R>(
                &self.product_tables[oc],
                [self.bias[oc]; R],
                [wrow; R],
                patches,
            );
            out[oc * pixels + p..][..R].copy_from_slice(&sums);
        }
    }

    /// The one-output-at-a-time loops [`Self::accumulate`] replaced, kept
    /// as its bit oracle.
    #[cfg(test)]
    fn accumulate_scalar(&self, codes: &[u16]) -> Vec<f32> {
        match &self.kind {
            StageKind::Dense { inputs, outputs } => {
                let table = &self.product_tables[0];
                let mut out = Vec::with_capacity(*outputs);
                for o in 0..*outputs {
                    let row = &self.weight_codes[o * inputs..(o + 1) * inputs];
                    let mut acc = self.bias[o];
                    for (w, x) in row.iter().zip(codes) {
                        acc += table.fetch(*w, *x);
                    }
                    out.push(acc);
                }
                out
            }
            StageKind::Conv {
                geometry: g,
                out_channels,
            } => {
                let patch_len = g.patch_len();
                let pixels = g.out_pixels();
                let mut out = vec![0.0f32; out_channels * pixels];
                let (c, h, w) = (g.in_channels, g.in_height, g.in_width);
                for oc in 0..*out_channels {
                    let table = &self.product_tables[oc];
                    let wrow = &self.weight_codes[oc * patch_len..(oc + 1) * patch_len];
                    for oy in 0..g.out_height {
                        for ox in 0..g.out_width {
                            let mut acc = self.bias[oc];
                            let mut k = 0usize;
                            for ic in 0..c {
                                for kh in 0..g.kernel_h {
                                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                                    for kw in 0..g.kernel_w {
                                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                                        let xcode = if iy >= 0
                                            && ix >= 0
                                            && (iy as usize) < h
                                            && (ix as usize) < w
                                        {
                                            codes[ic * h * w + iy as usize * w + ix as usize]
                                        } else {
                                            self.zero_code
                                        };
                                        acc += table.fetch(wrow[k], xcode);
                                        k += 1;
                                    }
                                }
                            }
                            out[oc * pixels + oy * g.out_width + ox] = acc;
                        }
                    }
                }
                out
            }
        }
    }
}

/// Outputs one [`accumulate_tile`] call sums: four independent add
/// chains where one output's 784-step chain would leave the core
/// waiting on every add.
const TILE: usize = 4;

/// `R` accumulators advanced together: lane `r` starts at `bias[r]` and
/// adds `table[w[r][k]][x[r][k]]` for `k` ascending — exactly the sum
/// order of one output's scalar loop. All slices share one length.
#[inline(always)]
fn accumulate_tile<const R: usize>(
    table: &ProductTable,
    bias: [f32; R],
    w: [&[u16]; R],
    x: [&[u16]; R],
) -> [f32; R] {
    let len = w[0].len();
    let w: [&[u16]; R] = std::array::from_fn(|r| &w[r][..len]);
    let x: [&[u16]; R] = std::array::from_fn(|r| &x[r][..len]);
    let mut acc = bias;
    for k in 0..len {
        for (r, a) in acc.iter_mut().enumerate() {
            *a += table.fetch(w[r][k], x[r][k]);
        }
    }
    acc
}

/// Writes the input codes of conv output pixel `pixel` into `patch`, in
/// the weight row's `(ic, kh, kw)` order, padding with `zero_code`.
fn gather_patch(
    g: &Conv2dGeometry,
    codes: &[u16],
    zero_code: u16,
    pixel: usize,
    patch: &mut [u16],
) {
    let (h, w) = (g.in_height, g.in_width);
    let (oy, ox) = (pixel / g.out_width, pixel % g.out_width);
    let mut k = 0usize;
    for ic in 0..g.in_channels {
        for kh in 0..g.kernel_h {
            let iy = (oy * g.stride + kh) as isize - g.pad as isize;
            for kw in 0..g.kernel_w {
                let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                patch[k] = if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                    codes[ic * h * w + iy as usize * w + ix as usize]
                } else {
                    zero_code
                };
                k += 1;
            }
        }
    }
}

/// A stage of the reinterpreted pipeline.
// One Stage exists per network layer, so the size skew between Neuron
// and the pooling variants costs a few hundred bytes total — not worth
// boxing a public variant over.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Stage {
    /// Weighted layer with table-ized multiply/activate/encode.
    Neuron(NeuronStage),
    /// Max pooling performed directly on encoded values (sorted-codebook
    /// property, §3.1 / §4.2.1).
    MaxPool(Conv2dGeometry),
    /// Average pooling: in-memory accumulation of decoded representatives
    /// followed by re-encoding into the same codebook (§4.2.1).
    AvgPool {
        /// Window geometry.
        geometry: Conv2dGeometry,
        /// Codebook of the values flowing through the pool.
        codebook: Codebook,
    },
    /// Residual join: branch output (floats) plus decoded skip values,
    /// re-encoded for the next stage (§4.3 residual data flow).
    Residual {
        /// Branch stages; the branch's final neuron stage emits floats.
        branch: Vec<Stage>,
        /// Codebook of the skip-path codes.
        input_codebook: Codebook,
        /// Encoder into the next stage's codebook; `None` when the
        /// residual output is the network output.
        join_encoder: Option<EncoderTable>,
    },
}

impl Stage {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Neuron(s) => match s.kind {
                StageKind::Dense { .. } => "dense",
                StageKind::Conv { .. } => "conv",
            },
            Stage::MaxPool(_) => "maxpool",
            Stage::AvgPool { .. } => "avgpool",
            Stage::Residual { .. } => "residual",
        }
    }

    /// Total accelerator memory of this stage in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Stage::Neuron(s) => s.memory_bytes(),
            Stage::MaxPool(_) => 0,
            Stage::AvgPool { codebook, .. } => codebook.len() * 8,
            Stage::Residual { branch, .. } => branch.iter().map(Stage::memory_bytes).sum(),
        }
    }
}

/// Batch of encoded activations: the bit-serial payload the broadcast
/// buffers carry between layers (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedBatch {
    codes: Vec<u16>,
    batch: usize,
    features: usize,
}

impl EncodedBatch {
    /// Creates a batch from row-major codes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBatch`] when the code count is not
    /// `batch x features`.
    pub fn new(codes: Vec<u16>, batch: usize, features: usize) -> Result<Self> {
        if codes.len() != batch * features {
            return Err(CoreError::InvalidBatch(format!(
                "{} codes for {batch} x {features} batch",
                codes.len()
            )));
        }
        Ok(EncodedBatch {
            codes,
            batch,
            features,
        })
    }

    /// Number of rows.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Codes per row.
    pub fn features(&self) -> usize {
        self.features
    }

    /// One row of codes.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn row(&self, row: usize) -> &[u16] {
        &self.codes[row * self.features..(row + 1) * self.features]
    }

    /// All codes, row-major.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Total bits moved over a bit-serial broadcast buffer when each code
    /// is `bits` wide — the transfer the tile buffer performs (§4.3).
    pub fn transfer_bits(&self, bits: u32) -> u64 {
        self.codes.len() as u64 * u64::from(bits)
    }
}

/// Per-sample data flowing through the pipeline: encoded until the output
/// stage, floats afterwards.
#[derive(Debug, Clone)]
enum Flow {
    Codes(Vec<u16>),
    Floats(Vec<f32>),
}

/// The reinterpreted (encoded-domain) network — functionally identical to
/// what the RAPIDNN accelerator computes.
#[derive(Debug, Clone)]
pub struct ReinterpretedNetwork {
    input_features: usize,
    output_features: usize,
    /// Virtual input layer: encodes raw features into the first stage's
    /// input codebook (§2.2 "Encoding block").
    virtual_encoder: EncoderTable,
    stages: Vec<Stage>,
}

/// Options controlling reinterpretation; a trimmed-down view of
/// `ComposerConfig` used by the builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReinterpretOptions {
    /// Weight representatives per codebook (`w`).
    pub weight_clusters: usize,
    /// Input representatives per codebook (`u`).
    pub input_clusters: usize,
    /// Activation lookup-table rows (`q`).
    pub activation_rows: usize,
    /// Point-placement scheme for activation tables.
    pub scheme: QuantizationScheme,
    /// Use the exact comparator for ReLU instead of a lookup table.
    pub relu_comparator: bool,
    /// Cap on sample rows used for input clustering.
    pub max_sample_rows: usize,
}

impl Default for ReinterpretOptions {
    fn default() -> Self {
        ReinterpretOptions {
            weight_clusters: 64,
            input_clusters: 64,
            activation_rows: 64,
            scheme: QuantizationScheme::NonLinear,
            relu_comparator: true,
            max_sample_rows: 64,
        }
    }
}

impl ReinterpretedNetwork {
    /// Builds the reinterpreted model from a trained float network and
    /// sample data (used to cluster per-layer inputs and bound activation
    /// domains).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedTopology`] for structures the
    /// composer cannot map, and propagates clustering errors.
    pub fn build(
        network: &mut Network,
        sample_inputs: &Tensor,
        options: &ReinterpretOptions,
        rng: &mut rapidnn_tensor::SeededRng,
    ) -> Result<Self> {
        let input_features = network.input_features();
        let output_features = network.output_features();
        let rows = sample_inputs.shape().dims()[0].min(options.max_sample_rows);
        if rows == 0 {
            return Err(CoreError::InvalidBatch(
                "need at least one sample row to cluster inputs".into(),
            ));
        }
        let sample = Tensor::from_vec(
            Shape::matrix(rows, input_features),
            sample_inputs.as_slice()[..rows * input_features].to_vec(),
        )?;

        let mut builder = Builder {
            options: *options,
            rng,
        };
        let (stages, first_codebook) = builder.build_stages(network.layers_mut(), &sample, true)?;
        let first_codebook = first_codebook.ok_or_else(|| {
            CoreError::UnsupportedTopology("network has no weighted layers".into())
        })?;
        Ok(ReinterpretedNetwork {
            input_features,
            output_features,
            virtual_encoder: EncoderTable::new(first_codebook),
            stages,
        })
    }

    /// Input feature width.
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// Output feature width (class count).
    pub fn output_features(&self) -> usize {
        self.output_features
    }

    /// The pipeline stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The virtual input-layer encoder.
    pub fn virtual_encoder(&self) -> &EncoderTable {
        &self.virtual_encoder
    }

    /// Encodes one raw sample into the first stage's codebook.
    pub fn encode_input(&self, sample: &[f32]) -> Vec<u16> {
        sample
            .iter()
            .map(|&v| self.virtual_encoder.encode(v))
            .collect()
    }

    /// Encodes a `batch x features` matrix through the virtual input
    /// layer — the form the data blocks hand to the first RNA stage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBatch`] when the feature width differs
    /// from the model's input width.
    pub fn encode_batch(&self, inputs: &Tensor) -> Result<EncodedBatch> {
        let batch = inputs.shape().dim(0).unwrap_or(0);
        let features = inputs.shape().dim(1).unwrap_or(0);
        if features != self.input_features {
            return Err(CoreError::InvalidBatch(format!(
                "batch has {features} features, expected {}",
                self.input_features
            )));
        }
        let codes = inputs
            .as_slice()
            .iter()
            .map(|&v| self.virtual_encoder.encode(v))
            .collect();
        EncodedBatch::new(codes, batch, features)
    }

    /// Total accelerator memory of all tables in bytes (Figure 12's
    /// "memory usage" series).
    pub fn memory_bytes(&self) -> usize {
        self.stages.iter().map(Stage::memory_bytes).sum()
    }

    /// Runs encoded inference on one sample, returning the output logits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidBatch`] when `sample` has the wrong
    /// width.
    pub fn infer_sample(&self, sample: &[f32]) -> Result<Vec<f32>> {
        if sample.len() != self.input_features {
            return Err(CoreError::InvalidBatch(format!(
                "sample has {} features, expected {}",
                sample.len(),
                self.input_features
            )));
        }
        let mut flow = Flow::Codes(self.encode_input(sample));
        for stage in &self.stages {
            flow = run_stage(stage, flow)?;
        }
        match flow {
            Flow::Floats(f) => Ok(f),
            Flow::Codes(_) => Err(CoreError::InvalidBatch(
                "pipeline ended in encoded domain; output stage missing".into(),
            )),
        }
    }

    /// Runs encoded inference on a `batch x features` matrix.
    ///
    /// Rows are sharded across the workspace pool in fixed-size chunks
    /// assembled in row order, so the output (and any error surfaced)
    /// is identical to a sequential row loop for any thread count.
    ///
    /// # Errors
    ///
    /// Propagates per-sample errors; the first error in row order wins.
    pub fn infer_batch(&self, inputs: &Tensor) -> Result<Tensor> {
        /// Rows per shard; independent of the worker count.
        const ROW_CHUNK: usize = 8;
        let batch = inputs.shape().dims()[0];
        let features = inputs.shape().dims()[1];
        let chunks = rapidnn_pool::parallel_map(batch, ROW_CHUNK, |_, rows| {
            let mut part = Vec::with_capacity(rows.len() * self.output_features);
            for b in rows {
                let sample = &inputs.as_slice()[b * features..(b + 1) * features];
                part.extend(self.infer_sample(sample)?);
            }
            Ok::<Vec<f32>, CoreError>(part)
        });
        let mut out = Vec::with_capacity(batch * self.output_features);
        for chunk in chunks {
            out.extend(chunk?);
        }
        Ok(Tensor::from_vec(
            Shape::matrix(batch, self.output_features),
            out,
        )?)
    }

    /// Error rate of the reinterpreted model on a dataset — the quality
    /// estimator of §3.2.
    ///
    /// # Errors
    ///
    /// Propagates inference and label errors.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<f32> {
        let logits = self.infer_batch(dataset.inputs())?;
        Ok(loss::error_rate(&logits, dataset.labels())?)
    }

    /// Returns a copy of the model with RNA-block sharing applied (§5.6,
    /// Table 4).
    ///
    /// A `fraction` of each convolution stage's output channels are
    /// remapped to *share* another channel's RNA block: their weights are
    /// re-encoded into the donor channel's codebook and they fetch from
    /// the donor's product table. Dense stages share losslessly — their
    /// neurons already use identical tables ("multiple output neurons of a
    /// fully connected layer have lookup tables with the exact same
    /// entries") — so only convolution stages accrue quality loss, which
    /// is why loss grows with sharing in Table 4's CNN workloads.
    pub fn with_rna_sharing(&self, fraction: f64, rng: &mut rapidnn_tensor::SeededRng) -> Self {
        let mut shared = self.clone();
        let fraction = fraction.clamp(0.0, 0.9);
        if fraction > 0.0 {
            apply_sharing(&mut shared.stages, fraction, rng);
        }
        shared
    }
}

fn apply_sharing(stages: &mut [Stage], fraction: f64, rng: &mut rapidnn_tensor::SeededRng) {
    for stage in stages {
        match stage {
            Stage::Neuron(neuron) => {
                if let StageKind::Conv {
                    geometry,
                    out_channels,
                } = neuron.kind
                {
                    let m = out_channels;
                    if m < 2 {
                        continue;
                    }
                    let patch_len = geometry.patch_len();
                    let shared_count = ((m as f64) * fraction).round() as usize;
                    let victims = rng.sample_indices(m, shared_count.min(m.saturating_sub(1)));
                    for victim in victims {
                        // Donor: a different channel chosen at random.
                        let mut donor = rng.index(m);
                        if donor == victim {
                            donor = (donor + 1) % m;
                        }
                        let donor_book = neuron.weight_codebooks[donor].clone();
                        let donor_table = neuron.product_tables[donor].clone();
                        let own_book = neuron.weight_codebooks[victim].clone();
                        for code in
                            &mut neuron.weight_codes[victim * patch_len..(victim + 1) * patch_len]
                        {
                            let value = own_book.decode(*code);
                            *code = donor_book.encode(value);
                        }
                        neuron.weight_codebooks[victim] = donor_book;
                        neuron.product_tables[victim] = donor_table;
                    }
                }
            }
            Stage::Residual { branch, .. } => apply_sharing(branch, fraction, rng),
            Stage::MaxPool(_) | Stage::AvgPool { .. } => {}
        }
    }
}

fn run_stage(stage: &Stage, flow: Flow) -> Result<Flow> {
    match stage {
        Stage::Neuron(s) => {
            let codes = match flow {
                Flow::Codes(c) => c,
                Flow::Floats(_) => {
                    return Err(CoreError::InvalidBatch(
                        "neuron stage received decoded values".into(),
                    ))
                }
            };
            let (floats, encoded) = s.run(&codes)?;
            Ok(match encoded {
                Some(c) => Flow::Codes(c),
                None => Flow::Floats(floats),
            })
        }
        Stage::MaxPool(g) => Ok(match flow {
            // Sorted codebooks make encoded comparisons order-faithful.
            Flow::Codes(c) => Flow::Codes(pool(g, &c, |a, b| if a >= b { a } else { b })?),
            Flow::Floats(f) => Flow::Floats(pool(g, &f, f32::max)?),
        }),
        Stage::AvgPool { geometry, codebook } => match flow {
            Flow::Codes(c) => {
                let decoded: Vec<f32> = c.iter().map(|&x| codebook.decode(x)).collect();
                let averaged = avg_pool(geometry, &decoded)?;
                Ok(Flow::Codes(
                    averaged.iter().map(|&v| codebook.encode(v)).collect(),
                ))
            }
            Flow::Floats(f) => Ok(Flow::Floats(avg_pool(geometry, &f)?)),
        },
        Stage::Residual {
            branch,
            input_codebook,
            join_encoder,
        } => {
            let codes = match flow {
                Flow::Codes(c) => c,
                Flow::Floats(_) => {
                    return Err(CoreError::InvalidBatch(
                        "residual stage received decoded values".into(),
                    ))
                }
            };
            let skip: Vec<f32> = codes.iter().map(|&c| input_codebook.decode(c)).collect();
            let mut inner = Flow::Codes(codes);
            for s in branch {
                inner = run_stage(s, inner)?;
            }
            let branch_out = match inner {
                Flow::Floats(f) => f,
                Flow::Codes(_) => {
                    return Err(CoreError::InvalidBatch(
                        "residual branch must end in a float-emitting stage".into(),
                    ))
                }
            };
            if branch_out.len() != skip.len() {
                return Err(CoreError::InvalidBatch(format!(
                    "residual branch width {} differs from skip width {}",
                    branch_out.len(),
                    skip.len()
                )));
            }
            let joined: Vec<f32> = branch_out.iter().zip(&skip).map(|(a, b)| a + b).collect();
            Ok(match join_encoder {
                Some(enc) => Flow::Codes(joined.iter().map(|&v| enc.encode(v)).collect()),
                None => Flow::Floats(joined),
            })
        }
    }
}

fn pool<T: Copy>(g: &Conv2dGeometry, data: &[T], combine: impl Fn(T, T) -> T) -> Result<Vec<T>> {
    let expected = g.input_shape().volume();
    if data.len() != expected {
        return Err(CoreError::InvalidBatch(format!(
            "pool expects {expected} values, received {}",
            data.len()
        )));
    }
    let (c, h, w) = (g.in_channels, g.in_height, g.in_width);
    let mut out = Vec::with_capacity(c * g.out_pixels());
    for ch in 0..c {
        for oy in 0..g.out_height {
            for ox in 0..g.out_width {
                let mut acc: Option<T> = None;
                for kh in 0..g.kernel_h {
                    for kw in 0..g.kernel_w {
                        let v = data[ch * h * w + (oy * g.stride + kh) * w + ox * g.stride + kw];
                        acc = Some(match acc {
                            Some(a) => combine(a, v),
                            None => v,
                        });
                    }
                }
                out.push(acc.expect("window is non-empty"));
            }
        }
    }
    Ok(out)
}

fn avg_pool(g: &Conv2dGeometry, data: &[f32]) -> Result<Vec<f32>> {
    let summed = pool(g, data, |a, b| a + b)?;
    let n = (g.kernel_h * g.kernel_w) as f32;
    Ok(summed.into_iter().map(|v| v / n).collect())
}

/// Internal builder walking the float network's layers.
struct Builder<'r> {
    options: ReinterpretOptions,
    rng: &'r mut rapidnn_tensor::SeededRng,
}

/// Self-contained clustering work for one weighted layer, snapshotted
/// during the sequential walk. The RNGs are forked from the builder's
/// stream in layer order, which is what makes the parallel clustering
/// phase bitwise-independent of scheduling.
#[derive(Debug)]
struct NeuronJob {
    kind: StageKind,
    observations: Vec<f32>,
    weights: Vec<f32>,
    bias: Vec<f32>,
    input_rng: rapidnn_tensor::SeededRng,
    weight_rng: rapidnn_tensor::SeededRng,
}

/// Proto-stage before clustering has run.
#[derive(Debug)]
enum Pending {
    Neuron {
        job: Box<NeuronJob>,
        activation: ActivationTable,
    },
    MaxPool(Conv2dGeometry),
    AvgPool(Conv2dGeometry),
    Residual {
        stages: Vec<Stage>,
        input_codebook: Option<Codebook>,
    },
}

/// Proto-stage after clustering, before encoder wiring.
#[derive(Debug)]
enum Proto {
    Neuron {
        kind: StageKind,
        weight_codebooks: Vec<Codebook>,
        weight_codes: Vec<u16>,
        bias: Vec<f32>,
        input_codebook: Codebook,
        activation: ActivationTable,
    },
    MaxPool(Conv2dGeometry),
    AvgPool(Conv2dGeometry),
    Residual {
        stages: Vec<Stage>,
        input_codebook: Option<Codebook>,
    },
}

/// What one clustering task of a neuron job yields: the job's input
/// codebook, or its weight codebooks with the codes they encode.
enum Clustered {
    Input(Codebook),
    Weights(Vec<Codebook>, Vec<u16>),
}

/// Weight clustering over a parameter snapshot (per §3.1: one codebook
/// for a dense matrix, one per output channel for a convolution).
fn cluster_weight_values(
    weights: &[f32],
    kind: &StageKind,
    weight_clusters: usize,
    rng: &mut rapidnn_tensor::SeededRng,
) -> Result<(Vec<Codebook>, Vec<u16>)> {
    match kind {
        StageKind::Dense { .. } => {
            // One codebook for the whole matrix (§3.1).
            let codebook = Codebook::from_kmeans(weights, weight_clusters, rng)?;
            let codes = weights.iter().map(|&v| codebook.encode(v)).collect();
            Ok((vec![codebook], codes))
        }
        StageKind::Conv {
            geometry,
            out_channels,
        } => {
            // One codebook per output channel (§3.1).
            let patch_len = geometry.patch_len();
            let mut codebooks = Vec::with_capacity(*out_channels);
            let mut codes = Vec::with_capacity(weights.len());
            for oc in 0..*out_channels {
                let row = &weights[oc * patch_len..(oc + 1) * patch_len];
                let codebook = Codebook::from_kmeans(row, weight_clusters, rng)?;
                codes.extend(row.iter().map(|&v| codebook.encode(v)));
                codebooks.push(codebook);
            }
            Ok((codebooks, codes))
        }
    }
}

impl Builder<'_> {
    /// Builds stages from `layers`, observing activations by running each
    /// layer on `sample`. Returns the stages plus the input codebook of the
    /// first neuron stage (for the caller's encoder).
    ///
    /// `emit_output_floats` controls whether the final neuron stage omits
    /// its encoder (true at top level; also true inside residual branches,
    /// whose join operates on floats).
    fn build_stages(
        &mut self,
        layers: &mut [Box<dyn Layer>],
        sample: &Tensor,
        _emit_output_floats: bool,
    ) -> Result<(Vec<Stage>, Option<Codebook>)> {
        // First pass (sequential): walk the layers, observe activations,
        // and snapshot each weighted layer's clustering inputs into a
        // self-contained job. Each job gets RNGs forked here, in layer
        // order, so the clustering phase below is free to run the jobs
        // in any order (or on any worker) without changing a single bit
        // of the output.
        let mut pending: Vec<Pending> = Vec::new();
        let mut current = sample.clone();
        let mut i = 0usize;
        while i < layers.len() {
            let kind = layers[i].kind();
            match kind {
                LayerKind::Dense { .. } | LayerKind::Conv2d { .. } => {
                    let stage_kind = match kind {
                        LayerKind::Dense { inputs, outputs } => {
                            StageKind::Dense { inputs, outputs }
                        }
                        LayerKind::Conv2d {
                            geometry,
                            out_channels,
                        } => StageKind::Conv {
                            geometry,
                            out_channels,
                        },
                        _ => unreachable!(),
                    };
                    // Snapshot the observed inputs and the parameters;
                    // both are clustered later, as two pool tasks.
                    let observations = current.as_slice().to_vec();
                    let (weights, bias) = {
                        let params = layers[i].params();
                        if params.len() < 2 {
                            return Err(CoreError::UnsupportedTopology(
                                "weighted layer exposes no parameters".into(),
                            ));
                        }
                        (
                            params[0].value.as_slice().to_vec(),
                            params[1].value.as_slice().to_vec(),
                        )
                    };
                    let input_rng = self.rng.fork();
                    let weight_rng = self.rng.fork();
                    // Forward through the weighted layer.
                    let pre_activation = layers[i].forward(&current, Mode::Eval)?;
                    // Peek at the following activation (skipping nothing —
                    // activation follows immediately in our topologies).
                    let (activation_fn, consumed) = match layers.get(i + 1).map(|l| l.kind()) {
                        Some(LayerKind::Activation(a)) => (a, 1usize),
                        _ => (Activation::Identity, 0),
                    };
                    let activation =
                        self.build_activation_table(activation_fn, pre_activation.as_slice())?;
                    // Advance the observation through activation (+dropout
                    // is identity at eval).
                    current = if consumed == 1 {
                        layers[i + 1].forward(&pre_activation, Mode::Eval)?
                    } else {
                        pre_activation
                    };
                    pending.push(Pending::Neuron {
                        job: Box::new(NeuronJob {
                            kind: stage_kind,
                            observations,
                            weights,
                            bias,
                            input_rng,
                            weight_rng,
                        }),
                        activation,
                    });
                    i += 1 + consumed;
                }
                LayerKind::Activation(_) => {
                    // Standalone activation without a preceding weighted
                    // layer (e.g. at the very start) is unsupported.
                    return Err(CoreError::UnsupportedTopology(
                        "activation layer without preceding weighted layer".into(),
                    ));
                }
                LayerKind::Dropout(_) => {
                    // Identity at inference.
                    i += 1;
                }
                LayerKind::Pool2d { geometry, is_max } => {
                    current = layers[i].forward(&current, Mode::Eval)?;
                    pending.push(if is_max {
                        Pending::MaxPool(geometry)
                    } else {
                        Pending::AvgPool(geometry)
                    });
                    i += 1;
                }
                LayerKind::Residual => {
                    let branch_input = current.clone();
                    current = layers[i].forward(&current, Mode::Eval)?;
                    let branch = layers[i].branch_mut().ok_or_else(|| {
                        CoreError::UnsupportedTopology("residual layer exposes no branch".into())
                    })?;
                    let (stages, first_cb) = self.build_stages(branch, &branch_input, true)?;
                    pending.push(Pending::Residual {
                        stages,
                        input_codebook: first_cb,
                    });
                    i += 1;
                }
                _ => {
                    return Err(CoreError::UnsupportedTopology(format!(
                        "layer kind {} not supported by the composer",
                        kind.label()
                    )))
                }
            }
        }

        // Clustering phase: a job's input clustering and its weight
        // clustering are two pool tasks (the first layer holds the two
        // largest populations). Each draws from its own RNG forked
        // above, so the codebooks are identical for any worker count.
        // Errors propagate in layer order, input before weights.
        let options = self.options;
        let jobs: Vec<&NeuronJob> = pending
            .iter()
            .filter_map(|item| match item {
                Pending::Neuron { job, .. } => Some(&**job),
                _ => None,
            })
            .collect();
        let mut clustered = rapidnn_pool::parallel_map(2 * jobs.len(), 1, |task, _| {
            let job = jobs[task / 2];
            if task % 2 == 0 {
                let mut rng = job.input_rng.clone();
                Codebook::from_kmeans(&job.observations, options.input_clusters, &mut rng)
                    .map(Clustered::Input)
            } else {
                let mut rng = job.weight_rng.clone();
                cluster_weight_values(&job.weights, &job.kind, options.weight_clusters, &mut rng)
                    .map(|(books, codes)| Clustered::Weights(books, codes))
            }
        })
        .into_iter();
        let mut protos: Vec<Proto> = Vec::with_capacity(pending.len());
        for item in pending {
            protos.push(match item {
                Pending::Neuron { job, activation } => {
                    let mut next = || clustered.next().expect("two tasks per neuron job");
                    let (
                        Clustered::Input(input_codebook),
                        Clustered::Weights(weight_codebooks, weight_codes),
                    ) = (next()?, next()?)
                    else {
                        unreachable!("a job's tasks are its input, then its weights");
                    };
                    Proto::Neuron {
                        kind: job.kind,
                        weight_codebooks,
                        weight_codes,
                        bias: job.bias,
                        input_codebook,
                        activation,
                    }
                }
                Pending::MaxPool(g) => Proto::MaxPool(g),
                Pending::AvgPool(g) => Proto::AvgPool(g),
                Pending::Residual {
                    stages,
                    input_codebook,
                } => Proto::Residual {
                    stages,
                    input_codebook,
                },
            });
        }

        // Second pass: wire encoders. Each neuron stage / residual join
        // encodes into the *next* neuron-bearing proto's input codebook.
        let next_codebook = |protos: &[Proto], from: usize| -> Option<Codebook> {
            protos[from + 1..].iter().find_map(|p| match p {
                Proto::Neuron { input_codebook, .. } => Some(input_codebook.clone()),
                Proto::Residual {
                    input_codebook: Some(cb),
                    ..
                } => Some(cb.clone()),
                _ => None,
            })
        };

        let mut first_codebook: Option<Codebook> = None;
        let count = protos.len();
        let mut stages = Vec::with_capacity(count);
        for idx in 0..count {
            let target = next_codebook(&protos, idx);
            let proto = std::mem::replace(
                &mut protos[idx],
                Proto::MaxPool(
                    // Placeholder; replaced value is never read again.
                    Conv2dGeometry::new(1, 1, 1, 1, 1, 1, rapidnn_tensor::Padding::Valid)
                        .expect("trivial geometry"),
                ),
            );
            match proto {
                Proto::Neuron {
                    kind,
                    weight_codebooks,
                    weight_codes,
                    bias,
                    input_codebook,
                    activation,
                } => {
                    if first_codebook.is_none() {
                        first_codebook = Some(input_codebook.clone());
                    }
                    let zero_code = input_codebook.encode(0.0);
                    stages.push(Stage::Neuron(NeuronStage {
                        product_tables: weight_codebooks
                            .iter()
                            .map(|wcb| ProductTable::build(wcb, &input_codebook))
                            .collect(),
                        kind,
                        weight_codebooks,
                        weight_codes,
                        bias,
                        input_codebook,
                        activation,
                        encoder: target.map(EncoderTable::new),
                        zero_code,
                    }));
                }
                Proto::MaxPool(g) => stages.push(Stage::MaxPool(g)),
                Proto::AvgPool(g) => {
                    // The codebook flowing through is the previous
                    // encoder's target; find it from the already-built
                    // stages.
                    let codebook = stages
                        .iter()
                        .rev()
                        .find_map(|s| match s {
                            Stage::Neuron(n) => n.encoder().map(|e| e.target().clone()),
                            Stage::Residual {
                                join_encoder: Some(e),
                                ..
                            } => Some(e.target().clone()),
                            _ => None,
                        })
                        .ok_or_else(|| {
                            CoreError::UnsupportedTopology(
                                "average pool before any encoded stage".into(),
                            )
                        })?;
                    stages.push(Stage::AvgPool {
                        geometry: g,
                        codebook,
                    });
                }
                Proto::Residual {
                    stages: branch,
                    input_codebook,
                } => {
                    let input_codebook = input_codebook.ok_or_else(|| {
                        CoreError::UnsupportedTopology(
                            "residual branch has no weighted layers".into(),
                        )
                    })?;
                    if first_codebook.is_none() {
                        first_codebook = Some(input_codebook.clone());
                    }
                    stages.push(Stage::Residual {
                        branch,
                        input_codebook,
                        join_encoder: target.map(EncoderTable::new),
                    });
                }
            }
        }
        Ok((stages, first_codebook))
    }

    fn build_activation_table(
        &mut self,
        activation: Activation,
        pre_activation: &[f32],
    ) -> Result<ActivationTable> {
        match activation {
            Activation::Identity => Ok(ActivationTable::identity()),
            Activation::Relu if self.options.relu_comparator => {
                Ok(ActivationTable::comparator_relu())
            }
            _ => {
                // Domain from observed pre-activations, clamped at the
                // saturation knees (points A/B of Figure 2c).
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &v in pre_activation {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if !lo.is_finite() || !hi.is_finite() || lo >= hi {
                    lo = -1.0;
                    hi = 1.0;
                }
                if activation.saturates() {
                    const SATURATION: f32 = 8.0;
                    lo = lo.max(-SATURATION);
                    hi = hi.min(SATURATION);
                    if lo >= hi {
                        lo = -SATURATION;
                        hi = SATURATION;
                    }
                }
                ActivationTable::build(
                    activation,
                    lo,
                    hi,
                    self.options.activation_rows,
                    self.options.scheme,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidnn_data::SyntheticSpec;
    use rapidnn_nn::{topology, Trainer, TrainerConfig};
    use rapidnn_tensor::SeededRng;

    fn trained_mlp(rng: &mut SeededRng) -> (Network, rapidnn_data::Dataset, rapidnn_data::Dataset) {
        let data = SyntheticSpec::new(10, 3, 2.5).generate(150, rng).unwrap();
        let (train, val) = data.split(0.8);
        let mut net = topology::mlp(10, &[24], 3, rng).unwrap();
        let mut trainer = Trainer::new(TrainerConfig::default(), rng);
        trainer
            .fit(&mut net, train.inputs(), train.labels(), 20)
            .unwrap();
        (net, train, val)
    }

    fn options(w: usize, u: usize) -> ReinterpretOptions {
        ReinterpretOptions {
            weight_clusters: w,
            input_clusters: u,
            ..ReinterpretOptions::default()
        }
    }

    /// A stage with random books, weight codes, bias and product tables
    /// of the given shape — what `accumulate` reads, and nothing else.
    fn random_stage(kind: StageKind, rng: &mut SeededRng) -> NeuronStage {
        // One weight row per dense output or conv channel; one book and
        // table per dense stage or conv channel.
        let (groups, rows) = match kind {
            StageKind::Dense { outputs, .. } => (1, outputs),
            StageKind::Conv { out_channels, .. } => (out_channels, out_channels),
        };
        let book = |rng: &mut SeededRng, n: usize| {
            Codebook::new((0..n).map(|_| rng.uniform(-2.0, 2.0)).collect()).unwrap()
        };
        let input_codebook = book(rng, 9);
        let weight_codebooks: Vec<Codebook> = (0..groups).map(|_| book(rng, 7)).collect();
        let row_len = kind.edges_per_neuron();
        let weight_codes = (0..rows * row_len)
            .map(|i| rng.index(weight_codebooks[i / row_len % groups].len()) as u16)
            .collect();
        NeuronStage {
            kind,
            product_tables: weight_codebooks
                .iter()
                .map(|wcb| ProductTable::build(wcb, &input_codebook))
                .collect(),
            zero_code: input_codebook.encode(0.0),
            bias: (0..rows).map(|_| rng.normal()).collect(),
            weight_codebooks,
            weight_codes,
            input_codebook,
            activation: ActivationTable::identity(),
            encoder: None,
        }
    }

    /// The four-wide tiles against the one-output loops they replaced:
    /// dense widths around the tile, conv grids of 35, 9 and 12 output
    /// pixels, with and without padding and stride.
    #[test]
    fn tiled_accumulation_matches_the_scalar_loops_bit_for_bit() {
        use rapidnn_tensor::Padding;
        let mut rng = SeededRng::new(0x711e);
        let mut kinds: Vec<StageKind> = [1usize, 3, 4, 5, 10, 32]
            .into_iter()
            .map(|outputs| StageKind::Dense {
                inputs: 37,
                outputs,
            })
            .collect();
        for (geometry, out_channels) in [
            (Conv2dGeometry::new(3, 5, 7, 3, 3, 1, Padding::Same), 5),
            (Conv2dGeometry::new(2, 6, 6, 3, 3, 2, Padding::Same), 3),
            (Conv2dGeometry::new(2, 9, 6, 3, 2, 2, Padding::Valid), 4),
        ] {
            kinds.push(StageKind::Conv {
                geometry: geometry.unwrap(),
                out_channels,
            });
        }
        for kind in kinds {
            let stage = random_stage(kind, &mut rng);
            for _ in 0..4 {
                let codes: Vec<u16> = (0..kind.input_features())
                    .map(|_| rng.index(stage.input_codebook.len()) as u16)
                    .collect();
                let bits = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(
                    bits(stage.accumulate(&codes)),
                    bits(stage.accumulate_scalar(&codes)),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn build_produces_one_stage_per_weighted_layer() {
        let mut rng = SeededRng::new(1);
        let (mut net, train, _) = trained_mlp(&mut rng);
        let model =
            ReinterpretedNetwork::build(&mut net, train.inputs(), &options(16, 16), &mut rng)
                .unwrap();
        assert_eq!(model.stages().len(), 2);
        assert_eq!(model.input_features(), 10);
        assert_eq!(model.output_features(), 3);
        // First stage encodes into second stage's codebook; second emits
        // floats.
        match (&model.stages()[0], &model.stages()[1]) {
            (Stage::Neuron(a), Stage::Neuron(b)) => {
                assert!(a.encoder().is_some());
                assert!(b.encoder().is_none());
                assert_eq!(
                    a.encoder().unwrap().target().values(),
                    b.input_codebook().values()
                );
            }
            _ => panic!("expected two neuron stages"),
        }
    }

    #[test]
    fn encoded_model_tracks_float_model_accuracy() {
        let mut rng = SeededRng::new(2);
        let (mut net, train, val) = trained_mlp(&mut rng);
        let float_err = net.evaluate(val.inputs(), val.labels()).unwrap();
        let model =
            ReinterpretedNetwork::build(&mut net, train.inputs(), &options(32, 32), &mut rng)
                .unwrap();
        let enc_err = model.evaluate(&val).unwrap();
        assert!(
            enc_err <= float_err + 0.12,
            "encoded {enc_err} vs float {float_err}"
        );
    }

    #[test]
    fn more_clusters_do_not_hurt() {
        let mut rng = SeededRng::new(3);
        let (mut net, train, val) = trained_mlp(&mut rng);
        let coarse =
            ReinterpretedNetwork::build(&mut net, train.inputs(), &options(2, 2), &mut rng)
                .unwrap()
                .evaluate(&val)
                .unwrap();
        let fine =
            ReinterpretedNetwork::build(&mut net, train.inputs(), &options(64, 64), &mut rng)
                .unwrap()
                .evaluate(&val)
                .unwrap();
        assert!(fine <= coarse + 0.05, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn infer_sample_validates_width() {
        let mut rng = SeededRng::new(4);
        let (mut net, train, _) = trained_mlp(&mut rng);
        let model = ReinterpretedNetwork::build(&mut net, train.inputs(), &options(8, 8), &mut rng)
            .unwrap();
        assert!(model.infer_sample(&[0.0; 3]).is_err());
        assert_eq!(model.infer_sample(&[0.0; 10]).unwrap().len(), 3);
    }

    #[test]
    fn memory_grows_with_cluster_count() {
        let mut rng = SeededRng::new(5);
        let (mut net, train, _) = trained_mlp(&mut rng);
        let small = ReinterpretedNetwork::build(&mut net, train.inputs(), &options(4, 4), &mut rng)
            .unwrap()
            .memory_bytes();
        let large =
            ReinterpretedNetwork::build(&mut net, train.inputs(), &options(64, 64), &mut rng)
                .unwrap()
                .memory_bytes();
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn cnn_with_pool_reinterprets_and_runs() {
        let mut rng = SeededRng::new(6);
        // Tiny CNN: conv(2ch 6x6) -> relu -> maxpool2 -> dense -> out.
        let mut net = Network::new(2 * 6 * 6);
        net.push(
            rapidnn_nn::Conv2d::new(2, 6, 6, 3, 3, 1, rapidnn_nn::Padding::Same, &mut rng).unwrap(),
        );
        net.push(rapidnn_nn::ActivationLayer::new(Activation::Relu));
        net.push(rapidnn_nn::MaxPool2d::new(3, 6, 6, 2).unwrap());
        net.push(rapidnn_nn::Dense::new(3 * 3 * 3, 4, &mut rng));

        let data = SyntheticSpec::new(72, 4, 2.0)
            .generate(40, &mut rng)
            .unwrap();
        let model =
            ReinterpretedNetwork::build(&mut net, data.inputs(), &options(8, 8), &mut rng).unwrap();
        assert_eq!(model.stages().len(), 3);
        assert!(matches!(model.stages()[1], Stage::MaxPool(_)));
        let out = model.infer_sample(&vec![0.1; 72]).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn residual_network_reinterprets_and_runs() {
        let mut rng = SeededRng::new(7);
        let mut net = Network::new(6);
        net.push(rapidnn_nn::Dense::new(6, 5, &mut rng));
        net.push(rapidnn_nn::ActivationLayer::new(Activation::Relu));
        net.push(rapidnn_nn::Residual::new(vec![
            Box::new(rapidnn_nn::Dense::new(5, 5, &mut rng)),
            Box::new(rapidnn_nn::ActivationLayer::new(Activation::Relu)),
        ]));
        net.push(rapidnn_nn::Dense::new(5, 2, &mut rng));

        let data = SyntheticSpec::new(6, 2, 2.0)
            .generate(40, &mut rng)
            .unwrap();
        let model =
            ReinterpretedNetwork::build(&mut net, data.inputs(), &options(8, 8), &mut rng).unwrap();
        assert_eq!(model.stages().len(), 3);
        assert!(matches!(model.stages()[1], Stage::Residual { .. }));
        let out = model.infer_sample(&[0.5; 6]).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn max_pool_on_codes_equals_pool_on_values() {
        // The sorted-codebook property in action.
        let cb = Codebook::new(vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        let g = Conv2dGeometry::new(1, 2, 2, 2, 2, 2, rapidnn_tensor::Padding::Valid).unwrap();
        let values = [0.4f32, -0.9, 1.8, 0.1];
        let codes: Vec<u16> = values.iter().map(|&v| cb.encode(v)).collect();
        let pooled_codes = pool(&g, &codes, |a: u16, b: u16| a.max(b)).unwrap();
        let pooled_vals = pool(&g, &values, f32::max).unwrap();
        assert_eq!(cb.decode(pooled_codes[0]), cb.quantize(pooled_vals[0]));
    }

    #[test]
    fn rna_sharing_preserves_dense_models_exactly() {
        let mut rng = SeededRng::new(31);
        let (mut net, train, val) = trained_mlp(&mut rng);
        let model =
            ReinterpretedNetwork::build(&mut net, train.inputs(), &options(16, 16), &mut rng)
                .unwrap();
        let base = model.evaluate(&val).unwrap();
        let shared = model.with_rna_sharing(0.3, &mut rng);
        assert_eq!(shared.evaluate(&val).unwrap(), base);
    }

    #[test]
    fn rna_sharing_remaps_conv_channels() {
        let mut rng = SeededRng::new(32);
        let mut net = Network::new(2 * 6 * 6);
        net.push(
            rapidnn_nn::Conv2d::new(2, 6, 6, 8, 3, 1, rapidnn_tensor::Padding::Same, &mut rng)
                .unwrap(),
        );
        net.push(rapidnn_nn::ActivationLayer::new(Activation::Relu));
        net.push(rapidnn_nn::Dense::new(8 * 36, 4, &mut rng));
        let data = SyntheticSpec::new(72, 4, 2.0)
            .generate(30, &mut rng)
            .unwrap();
        let model =
            ReinterpretedNetwork::build(&mut net, data.inputs(), &options(8, 8), &mut rng).unwrap();
        let shared = model.with_rna_sharing(0.5, &mut rng);
        // At least one conv channel now shares a donor codebook.
        match (&model.stages()[0], &shared.stages()[0]) {
            (Stage::Neuron(a), Stage::Neuron(b)) => {
                let changed = a
                    .weight_codebooks()
                    .iter()
                    .zip(b.weight_codebooks())
                    .filter(|(x, y)| x != y)
                    .count();
                assert!(changed >= 1, "no channels were remapped");
            }
            _ => panic!("expected neuron stages"),
        }
        // The shared model still runs.
        assert_eq!(shared.infer_sample(&[0.1; 72]).unwrap().len(), 4);
    }

    #[test]
    fn zero_sharing_is_identity() {
        let mut rng = SeededRng::new(33);
        let (mut net, train, _) = trained_mlp(&mut rng);
        let model = ReinterpretedNetwork::build(&mut net, train.inputs(), &options(8, 8), &mut rng)
            .unwrap();
        let same = model.with_rna_sharing(0.0, &mut rng);
        assert_eq!(same.memory_bytes(), model.memory_bytes());
    }

    #[test]
    fn encode_batch_round_trips_with_encode_input() {
        let mut rng = SeededRng::new(41);
        let (mut net, train, _) = trained_mlp(&mut rng);
        let model = ReinterpretedNetwork::build(&mut net, train.inputs(), &options(8, 8), &mut rng)
            .unwrap();
        let batch = model.encode_batch(train.inputs()).unwrap();
        assert_eq!(batch.batch(), train.len());
        assert_eq!(batch.features(), 10);
        assert_eq!(
            batch.row(0),
            model.encode_input(&train.sample(0).into_vec())
        );
        assert_eq!(batch.transfer_bits(4), (train.len() * 10 * 4) as u64);
        // Width validation.
        let wrong = Tensor::zeros(rapidnn_tensor::Shape::matrix(2, 3));
        assert!(model.encode_batch(&wrong).is_err());
        assert!(EncodedBatch::new(vec![0; 5], 2, 3).is_err());
    }

    #[test]
    fn sigmoid_network_uses_lookup_table() {
        let mut rng = SeededRng::new(8);
        let mut net = Network::new(4);
        net.push(rapidnn_nn::Dense::new(4, 6, &mut rng));
        net.push(rapidnn_nn::ActivationLayer::new(Activation::Sigmoid));
        net.push(rapidnn_nn::Dense::new(6, 2, &mut rng));
        let data = SyntheticSpec::new(4, 2, 2.0)
            .generate(30, &mut rng)
            .unwrap();
        let model =
            ReinterpretedNetwork::build(&mut net, data.inputs(), &options(8, 8), &mut rng).unwrap();
        match &model.stages()[0] {
            Stage::Neuron(s) => {
                assert!(!s.activation().is_exact());
                assert_eq!(s.activation().activation(), Activation::Sigmoid);
                assert!(s.activation().rows() >= 8);
            }
            _ => panic!("expected neuron stage"),
        }
    }
}
