//! The analyzer's neutral program representation.
//!
//! [`Program`] is the one flattened op layout — two contiguous pools
//! plus a linear op list — with public fields and borrowed pools.
//! `rapidnn_serve::CompiledModel` holds one and executes its [`Op`]s
//! directly, so analyzing a compiled model is a matter of lending it,
//! and [`Program::from_reinterpreted`] lowers the composer's stage graph
//! into the same form. Keeping the IR here (rather than in
//! the serving crate) is what lets `rapidnn-serve` depend on the
//! analyzer as its construction gate without a crate cycle.
//!
//! The IR holds no trace of how a model is stored: an artifact's
//! bit-packed code sections end in the serving crate's decoder, which
//! judges their layout itself and returns a [`Program`], so a decoded
//! program and a composed one look alike here.
//!
//! [`Program::flow`] states the program's dataflow once: at every op
//! boundary, how wide a row is, which codebook the values are encoded
//! through, and how deep in residual regions it sits. The checker
//! proves those rules on its own abstract interpretation; everything
//! downstream of it — the quantization plan, the cost model and the
//! serving kernels — reads them from the walk.

use rapidnn_core::{ActivationTable, ReinterpretedNetwork, Stage, StageKind};
use rapidnn_nn::Activation;
use std::borrow::Cow;

/// A `(start, len)` view into one of the program's pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First element index.
    pub start: usize,
    /// Element count.
    pub len: usize,
}

impl Span {
    /// The span's elements of `pool`. Panics when the span is out of
    /// bounds — callers index only what the checker (or their own
    /// bounds check) has proven in range.
    pub fn slice<'a, T>(&self, pool: &'a [T]) -> &'a [T] {
        &pool[self.start..self.start + self.len]
    }
}

/// Activation step of a neuron op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Act {
    /// Exact pass-through.
    Identity,
    /// Exact comparator ReLU.
    Relu,
    /// Nearest-input lookup: `inputs` sorted, aligned with `outputs`.
    Lookup {
        /// Sorted probe values.
        inputs: Span,
        /// Output value per probe row.
        outputs: Span,
    },
}

/// Convolution / pooling window geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geom {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
    /// Output height.
    pub out_height: usize,
    /// Output width.
    pub out_width: usize,
}

impl Geom {
    /// Flattened input volume.
    pub fn in_volume(&self) -> usize {
        self.in_channels * self.in_height * self.in_width
    }

    /// Output pixels per channel.
    pub fn out_pixels(&self) -> usize {
        self.out_height * self.out_width
    }

    /// Elements in one convolution patch.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// One step of the flattened inference program.
///
/// Residual stages are linearized: `ResidualBegin` snapshots the decoded
/// skip values onto a runtime stack, the branch's ops follow inline, and
/// `ResidualEnd` pops the snapshot and joins.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Fully connected stage.
    Dense {
        /// Expected input width.
        inputs: usize,
        /// Output neuron count.
        outputs: usize,
        /// `outputs x inputs` weight codes in the code pool.
        weight_codes: Span,
        /// Per-output bias in the float pool.
        bias: Span,
        /// The weight codebook every output's codes index.
        weight_book: Span,
        /// Activation step.
        act: Act,
        /// Re-encoder codebook; `None` for the output stage.
        encoder: Option<Span>,
    },
    /// Convolution stage.
    Conv {
        /// Window geometry.
        geom: Geom,
        /// Output channels.
        out_channels: usize,
        /// `out_channels x patch_len` weight codes.
        weight_codes: Span,
        /// Per-channel bias.
        bias: Span,
        /// One weight codebook per output channel.
        weight_books: Vec<Span>,
        /// Input code standing in for zero padding.
        zero_code: u16,
        /// Activation step.
        act: Act,
        /// Re-encoder codebook; `None` for the output stage.
        encoder: Option<Span>,
    },
    /// Max pooling directly on encoded values.
    MaxPool(Geom),
    /// Average pooling: decode, window-average, re-encode.
    AvgPool {
        /// Window geometry.
        geom: Geom,
        /// Codebook of the values flowing through the pool.
        codebook: Span,
    },
    /// Snapshot of decoded skip values for a residual join.
    ResidualBegin {
        /// Codebook of the skip-path codes.
        skip_codebook: Span,
    },
    /// Residual join: branch floats plus the popped skip snapshot.
    ResidualEnd {
        /// Re-encoder for the joined values; `None` at network output.
        encoder: Option<Span>,
    },
}

/// A dense or conv op as the paper maps both: RNA neurons over a
/// receptive field ([`Op::neuron`]). Channel `o` at output position `p`
/// is `bias[o] + Σ_k fl(book[w[o][k]] · x_p[k])` over the window's taps,
/// where `book` is the weight book channel `o` reads, `x_p[k]` the
/// decoded input its tap's code selects (a padding tap reads
/// `zero_code`), and each product is the entry the paper's `w × u`
/// table would hold; outputs lie channel-major.
#[derive(Debug, Clone, Copy)]
pub struct Neuron<'o> {
    /// The receptive field; a dense op's is 1×1 over its inputs as channels.
    pub window: Geom,
    /// Output channels: a conv's, or a dense op's outputs.
    pub channels: usize,
    /// The weight codebooks: one that every output channel reads (a
    /// dense op's), or one per channel (a conv's).
    pub weight_books: &'o [Span],
    /// `channels × patch_len` weight codes in the code pool.
    pub weight_codes: Span,
    /// Per-channel bias in the float pool.
    pub bias: Span,
    /// Input code a padding tap reads (0 for a dense op: it has no padding).
    pub zero_code: u16,
    /// Activation step.
    pub act: &'o Act,
    /// Re-encoder codebook; `None` for the output stage.
    pub encoder: Option<Span>,
}

impl<'o> Neuron<'o> {
    /// Each weight book with the weight codes that index it, `codes`
    /// (the op's span of the code pool) split evenly over the books:
    /// with one book that is every code, with one per channel that
    /// channel's patch — the two forms the checker accepts. Panics when
    /// the op has no book.
    pub fn readers<'c>(
        &self,
        codes: &'c [u16],
    ) -> std::iter::Zip<std::iter::Copied<std::slice::Iter<'o, Span>>, std::slice::Chunks<'c, u16>>
    {
        let per_book = codes.len() / self.weight_books.len();
        self.weight_books
            .iter()
            .copied()
            .zip(codes.chunks(per_book.max(1)))
    }
}

impl Op {
    /// The op as a [`Neuron`]: every dense and conv op is one, every
    /// pool and residual step is not.
    pub fn neuron(&self) -> Option<Neuron<'_>> {
        match self {
            Op::Dense {
                inputs,
                outputs,
                weight_codes,
                bias,
                weight_book,
                act,
                encoder,
            } => Some(Neuron {
                window: Geom {
                    in_channels: *inputs,
                    in_height: 1,
                    in_width: 1,
                    kernel_h: 1,
                    kernel_w: 1,
                    stride: 1,
                    pad: 0,
                    out_height: 1,
                    out_width: 1,
                },
                channels: *outputs,
                weight_books: std::slice::from_ref(weight_book),
                weight_codes: *weight_codes,
                bias: *bias,
                zero_code: 0,
                act,
                encoder: *encoder,
            }),
            Op::Conv {
                geom,
                out_channels,
                weight_codes,
                bias,
                weight_books,
                zero_code,
                act,
                encoder,
            } => Some(Neuron {
                window: *geom,
                channels: *out_channels,
                weight_books,
                weight_codes: *weight_codes,
                bias: *bias,
                zero_code: *zero_code,
                act,
                encoder: *encoder,
            }),
            _ => None,
        }
    }
}

/// A flattened inference program over borrowed (or owned) pools — the
/// analyzer's input.
#[derive(Debug, Clone, PartialEq)]
pub struct Program<'a> {
    /// Input feature width.
    pub input_features: usize,
    /// Output feature width.
    pub output_features: usize,
    /// Virtual input-layer codebook in the float pool.
    pub virtual_encoder: Span,
    /// The linear op program.
    pub ops: Vec<Op>,
    /// All f32 data: codebooks (weight books among them), LUTs, biases.
    pub floats: Cow<'a, [f32]>,
    /// All encoded weights.
    pub codes: Cow<'a, [u16]>,
}

/// The dataflow fact at one op boundary of a program (see
/// [`Program::flow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// Values per row.
    pub width: usize,
    /// The codebook the values are encoded through; `None` when they
    /// are decoded floats.
    pub book: Option<Span>,
    /// Residual regions open at this boundary.
    pub depth: usize,
}

impl Program<'_> {
    /// The program's dataflow, one [`Boundary`] per op boundary:
    /// `flow[i]` is what op `i` reads and `flow[ops.len()]` what the
    /// program returns. A neuron op re-encodes through its encoder or
    /// decodes; a max pool keeps its input's book; an average pool
    /// re-encodes encoded values through its own book and leaves
    /// decoded ones decoded; a residual region passes its entry flow to
    /// its first op and leaves through the join's encoder.
    ///
    /// The rules hold on an analyzer-clean program, whose checker
    /// proves them; the walk reads no pool, so it is total on any
    /// program, but answers for the others mean nothing.
    pub fn flow(&self) -> Vec<Boundary> {
        let mut at = Boundary {
            width: self.input_features,
            book: Some(self.virtual_encoder),
            depth: 0,
        };
        let mut flow = Vec::with_capacity(self.ops.len() + 1);
        flow.push(at);
        for op in &self.ops {
            match op {
                Op::Dense { .. } | Op::Conv { .. } => {
                    let n = op.neuron().expect("dense and conv ops are neurons");
                    (at.width, at.book) = (n.channels * n.window.out_pixels(), n.encoder);
                }
                Op::MaxPool(g) => at.width = g.in_channels * g.out_pixels(),
                Op::AvgPool { geom, codebook } => {
                    at.width = geom.in_channels * geom.out_pixels();
                    at.book = at.book.and(Some(*codebook));
                }
                Op::ResidualBegin { .. } => at.depth += 1,
                Op::ResidualEnd { encoder } => {
                    (at.depth, at.book) = (at.depth.saturating_sub(1), *encoder);
                }
            }
            flow.push(at);
        }
        flow
    }

    /// Lowers a composed network's stage graph into the flat IR — the
    /// one lowering: the checker analyzes pipelines through it before
    /// they are compiled, and `CompiledModel::from_reinterpreted` in
    /// the serving crate compiles through it.
    pub fn from_reinterpreted(network: &ReinterpretedNetwork) -> Program<'static> {
        let mut b = Builder::default();
        let virtual_encoder = push(&mut b.floats, network.virtual_encoder().target().values());
        for stage in network.stages() {
            b.lower_stage(stage);
        }
        Program {
            input_features: network.input_features(),
            output_features: network.output_features(),
            virtual_encoder,
            ops: b.ops,
            floats: Cow::Owned(b.floats),
            codes: Cow::Owned(b.codes),
        }
    }
}

#[derive(Default)]
struct Builder {
    floats: Vec<f32>,
    codes: Vec<u16>,
    ops: Vec<Op>,
}

impl Builder {
    fn lower_act(&mut self, act: &ActivationTable) -> Act {
        // Only ReLU and identity have exact compiled forms today; an
        // exact table of any other activation still carries its sampled
        // rows, so lowering it as a lookup stays faithful.
        match (act.is_exact(), act.activation()) {
            (true, Activation::Relu) => Act::Relu,
            (true, Activation::Identity) => Act::Identity,
            _ => Act::Lookup {
                inputs: push(&mut self.floats, act.inputs()),
                outputs: push(&mut self.floats, act.outputs()),
            },
        }
    }

    fn lower_stage(&mut self, stage: &Stage) {
        match stage {
            Stage::Neuron(s) => {
                let weight_codes = push(&mut self.codes, s.weight_codes());
                let bias = push(&mut self.floats, s.bias());
                let act = self.lower_act(s.activation());
                let encoder = s
                    .encoder()
                    .map(|e| push(&mut self.floats, e.target().values()));
                // The weight books the composer built its product tables
                // from; the input book is the boundary's (`Program::flow`).
                let mut weight_books: Vec<Span> = s
                    .weight_codebooks()
                    .iter()
                    .map(|book| push(&mut self.floats, book.values()))
                    .collect();
                self.ops.push(match *s.kind() {
                    StageKind::Dense { inputs, outputs } => Op::Dense {
                        inputs,
                        outputs,
                        weight_codes,
                        bias,
                        weight_book: weight_books.swap_remove(0),
                        act,
                        encoder,
                    },
                    StageKind::Conv {
                        geometry,
                        out_channels,
                    } => Op::Conv {
                        geom: geom_of(&geometry),
                        out_channels,
                        weight_codes,
                        bias,
                        weight_books,
                        zero_code: s.zero_code(),
                        act,
                        encoder,
                    },
                });
            }
            Stage::MaxPool(g) => self.ops.push(Op::MaxPool(geom_of(g))),
            Stage::AvgPool { geometry, codebook } => {
                let codebook = push(&mut self.floats, codebook.values());
                self.ops.push(Op::AvgPool {
                    geom: geom_of(geometry),
                    codebook,
                });
            }
            Stage::Residual {
                branch,
                input_codebook,
                join_encoder,
            } => {
                let skip_codebook = push(&mut self.floats, input_codebook.values());
                self.ops.push(Op::ResidualBegin { skip_codebook });
                for inner in branch {
                    self.lower_stage(inner);
                }
                let encoder = join_encoder
                    .as_ref()
                    .map(|e| push(&mut self.floats, e.target().values()));
                self.ops.push(Op::ResidualEnd { encoder });
            }
        }
    }
}

/// Appends `values` to `pool` and returns the span they occupy.
fn push<T: Copy>(pool: &mut Vec<T>, values: &[T]) -> Span {
    let start = pool.len();
    pool.extend_from_slice(values);
    Span {
        start,
        len: values.len(),
    }
}

fn geom_of(g: &rapidnn_tensor::Conv2dGeometry) -> Geom {
    Geom {
        in_channels: g.in_channels,
        in_height: g.in_height,
        in_width: g.in_width,
        kernel_h: g.kernel_h,
        kernel_w: g.kernel_w,
        stride: g.stride,
        pad: g.pad,
        out_height: g.out_height,
        out_width: g.out_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span reads its elements of either pool.
    #[test]
    fn span_slices_its_pool() {
        let floats = [9.0f32, 10.0, 11.0, 12.0, 20.0, 21.0, 22.0, 9.0];
        let span = Span { start: 4, len: 3 };
        assert_eq!(span.slice(&floats), &[20.0, 21.0, 22.0]);
        assert_eq!(span.slice(&[0u16, 1, 2, 3, 4, 5, 6]), &[4, 5, 6]);
    }
}
