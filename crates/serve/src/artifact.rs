//! Compiled-model artifacts.
//!
//! [`CompiledModel`] flattens a [`ReinterpretedNetwork`] — nested stages,
//! per-stage codebooks, product tables, activation/encoder LUTs — into two
//! contiguous pools (`floats`, `codes`) plus a linear op program. The flat
//! layout is cache-friendly for serving and trivially serializable: the
//! binary format is a hand-rolled, versioned, checksummed little-endian
//! encoding with no dependencies beyond `std`.
//!
//! # Wire format
//!
//! The outer framing is `RNNA` magic, `u32` version, `u64` payload
//! length, payload, FNV-1a 64 checksum of the payload. The payload
//! (format v2, see `DESIGN.md` §12) front-loads a fixed header of nine
//! `u64`s (widths, pool lengths, op/section counts, and the byte
//! offsets of the float section, packed region, and tail directory),
//! then the ops, zero padding to the next 8-byte boundary, the raw LE
//! `f32` float section, per-op code sections bit-packed at
//! `ceil(log2(codebook_len))` bits each, and finally a tail directory
//! locating every section. Because the payload begins 8 bytes into a
//! 16-byte outer header, an 8-aligned payload offset is 8-aligned in
//! the whole buffer, and the loader can borrow the float section (and
//! read codes through a bounded bit cursor) directly out of one
//! aligned copy of the artifact — validate-then-borrow instead of
//! parse-then-copy.
//!
//! # Verified by construction
//!
//! Every public way to obtain a [`CompiledModel`] —
//! [`from_reinterpreted`](CompiledModel::from_reinterpreted),
//! [`from_program`](CompiledModel::from_program),
//! [`from_bytes`](CompiledModel::from_bytes) /
//! [`load`](CompiledModel::load) and
//! [`optimize`](CompiledModel::optimize) — lowers to a
//! [`rapidnn_analyze::Program`] and runs the static analyzer over it,
//! returning either a model or [`ServeError::Rejected`] with the full
//! report. The analyzer proves every span, weight code, code domain and
//! geometry in bounds, so [`CompiledModel::infer`] never panics on a
//! model that exists, and the kernels index with plain bounds-checked
//! slices — no per-gather clamp. Corrupt bytes surface earlier, as
//! typed [`ArtifactError`]s.
//!
//! Inference over the flattened program is bit-for-bit identical to
//! [`ReinterpretedNetwork::infer_sample`]: the nearest-representative
//! search, activation lookup, and accumulation order are replicated
//! exactly. The execution itself lives in [`crate::kernels`]:
//! [`CompiledModel::infer`] and [`CompiledModel::infer_batch`] are thin
//! wrappers over a [`BatchRunner`], the zero-allocation batch-major
//! interpreter.

use crate::error::{ArtifactError, Result, ServeError};
use crate::kernels::BatchRunner;
use crate::pod::{self, AlignedBytes};
use rapidnn_core::nearest::{load_keys, tabulate_thresholds};
use rapidnn_core::ReinterpretedNetwork;
use std::path::Path;
use std::sync::Arc;

/// File magic: `RNNA` ("RapidNN Artifact").
pub const MAGIC: [u8; 4] = *b"RNNA";
/// The artifact format version (bit-packed code sections with a tail
/// directory and a zero-copy float section) — the only one read or
/// written.
pub const FORMAT_VERSION: u32 = 2;
/// Byte length of the outer framing before the payload (magic, version,
/// payload length). The payload therefore starts 8-aligned inside the
/// buffer, which the v2 zero-copy float view relies on.
const OUTER_HEADER_LEN: usize = 16;
/// Byte length of the fixed v2 payload header (nine `u64` fields).
const V2_HEADER_LEN: usize = 72;
/// Byte length of one v2 tail-directory entry (four `u64` fields).
const V2_DIR_ENTRY_LEN: usize = 32;
/// Upper bound on any single dimension/extent, keeping index arithmetic
/// far away from overflow on 32-bit-and-up targets.
const MAX_EXTENT: u64 = 1 << 31;

/// A `(start, len)` view into one of the model's pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) len: usize,
}

impl Span {
    pub(crate) fn slice<'a, T>(&self, pool: &'a [T]) -> &'a [T] {
        &pool[self.start..self.start + self.len]
    }
}

/// A flattened `w x u` product table inside the float pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableRef {
    pub(crate) offset: usize,
    pub(crate) weight_count: usize,
    pub(crate) input_count: usize,
}

impl TableRef {
    #[inline]
    pub(crate) fn fetch(&self, floats: &[f32], w: u16, x: u16) -> f32 {
        floats[self.offset + w as usize * self.input_count + x as usize]
    }

    /// The table row for weight code `w`: all `u` precomputed products
    /// of that weight against the input codebook. The batch kernels
    /// hoist this lookup out of their row loops, so the inner loop is a
    /// pure `acc[r] += row[x[r]]` gather.
    #[inline]
    pub(crate) fn row<'a>(&self, floats: &'a [f32], w: u16) -> &'a [f32] {
        let start = self.offset + w as usize * self.input_count;
        &floats[start..start + self.input_count]
    }
}

/// Activation step of a neuron op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ActRef {
    /// Exact pass-through (output stage logits).
    Identity,
    /// Exact comparator ReLU.
    Relu,
    /// Nearest-input lookup table (`inputs` sorted, aligned with
    /// `outputs`), both spans into the float pool.
    Lookup { inputs: Span, outputs: Span },
}

impl ActRef {
    /// Mirrors `ActivationTable::lookup` exactly.
    #[inline]
    pub(crate) fn apply(&self, floats: &[f32], y: f32) -> f32 {
        match self {
            ActRef::Identity => y,
            ActRef::Relu => y.max(0.0),
            ActRef::Lookup { inputs, outputs } => {
                let xs = inputs.slice(floats);
                let idx = match xs.binary_search_by(|p| p.total_cmp(&y)) {
                    Ok(i) => i,
                    Err(ins) => {
                        if ins == 0 {
                            0
                        } else if ins >= xs.len() {
                            xs.len() - 1
                        } else if (y - xs[ins - 1]).abs() <= (xs[ins] - y).abs() {
                            ins - 1
                        } else {
                            ins
                        }
                    }
                };
                outputs.slice(floats)[idx]
            }
        }
    }
}

/// Convolution / pooling window geometry, mirroring
/// `rapidnn_tensor::Conv2dGeometry` field-for-field so artifacts do not
/// depend on that type's layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geom {
    pub(crate) in_channels: usize,
    pub(crate) in_height: usize,
    pub(crate) in_width: usize,
    pub(crate) kernel_h: usize,
    pub(crate) kernel_w: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
    pub(crate) out_height: usize,
    pub(crate) out_width: usize,
}

impl Geom {
    pub(crate) fn in_volume(&self) -> usize {
        self.in_channels * self.in_height * self.in_width
    }

    pub(crate) fn out_pixels(&self) -> usize {
        self.out_height * self.out_width
    }

    pub(crate) fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// One step of the flattened inference program.
///
/// Residual stages are linearized: `ResidualBegin` snapshots the decoded
/// skip values onto a runtime stack, the branch's ops follow inline, and
/// `ResidualEnd` pops the snapshot and joins.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    Dense {
        inputs: usize,
        outputs: usize,
        weight_codes: Span,
        bias: Span,
        table: TableRef,
        act: ActRef,
        encoder: Option<Span>,
    },
    Conv {
        geom: Geom,
        out_channels: usize,
        weight_codes: Span,
        bias: Span,
        tables: Vec<TableRef>,
        zero_code: u16,
        act: ActRef,
        encoder: Option<Span>,
    },
    MaxPool(Geom),
    AvgPool {
        geom: Geom,
        codebook: Span,
    },
    ResidualBegin {
        skip_codebook: Span,
    },
    ResidualEnd {
        encoder: Option<Span>,
    },
}

/// Number of bits v2 packs each code of a section with `rows`
/// addressable codebook entries into: enough to represent `rows - 1`,
/// minimum 1, maximum 16 — the analyzer caps codebooks at `2^16`
/// values (RNA0004).
pub(crate) fn bits_for(rows: usize) -> u32 {
    let top = rows.max(2) - 1;
    // Codes are u16, so 16 bits always suffice even for a (degenerate)
    // table claiming more than 2^16 rows.
    (usize::BITS - top.leading_zeros()).min(16)
}

/// Smallest width that can represent every code in `values` (minimum 1).
fn bits_needed(values: &[u16]) -> u32 {
    bits_for(values.iter().copied().max().unwrap_or(0) as usize + 1)
}

/// The model's float pool: every codebook, product table, LUT, and bias.
///
/// `Owned` is the materialized pool (compiler and optimizer output);
/// `View` borrows the raw LE float section of an artifact buffer
/// without copying. Construction of a `View` goes through the
/// single [`pod::f32s`] gate, so on targets where the reinterpretation
/// would be wrong (big-endian) the loader falls back to `Owned`.
#[derive(Debug, Clone)]
pub(crate) enum FloatPool {
    /// Materialized values.
    Owned(Vec<f32>),
    /// Borrowed view over an aligned artifact buffer.
    View {
        /// The artifact image the floats live in.
        buf: Arc<AlignedBytes>,
        /// Absolute byte offset of the float section (4-aligned).
        byte_off: usize,
        /// Number of `f32` values.
        len: usize,
    },
}

impl FloatPool {
    pub(crate) fn as_slice(&self) -> &[f32] {
        match self {
            FloatPool::Owned(v) => v,
            FloatPool::View { buf, byte_off, len } => {
                pod::f32s(&buf.bytes()[*byte_off..*byte_off + *len * 4])
                    .expect("View is only constructed after pod::f32s succeeded on these bytes")
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            FloatPool::Owned(v) => v.len(),
            FloatPool::View { len, .. } => *len,
        }
    }
}

impl PartialEq for FloatPool {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One bit-packed code section of a v2 artifact: `len` codes starting
/// at pool index `start`, packed LSB-first at `width_bits` bits each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedSection {
    /// First code-pool index this section holds.
    pub(crate) start: usize,
    /// Number of codes in the section.
    pub(crate) len: usize,
    /// Absolute byte offset of the section's bit stream in the buffer.
    pub(crate) byte_off: usize,
    /// Bits per code, `1..=16`.
    pub(crate) width_bits: u32,
    /// Whether the unused high bits of the section's final byte are
    /// zero. Recorded at decode time; the analyzer rejects sections
    /// with trailing garbage bits.
    pub(crate) padding_clear: bool,
}

impl PackedSection {
    /// Bytes the section's bit stream occupies.
    fn byte_len(&self) -> usize {
        packed_byte_len(self.len, self.width_bits)
    }
}

/// Bytes needed to pack `len` codes at `width` bits each.
fn packed_byte_len(len: usize, width: u32) -> usize {
    (len * width as usize).div_ceil(8)
}

/// The model's code pool: every encoded weight.
///
/// `Wide` is the classic materialized `u16` pool; `Packed` keeps the
/// bit-packed sections of a v2 artifact in place and decodes spans on
/// demand through a bounded bit cursor ([`CompiledModel::codes_for`]).
#[derive(Debug, Clone)]
pub(crate) enum CodePool {
    /// Materialized wide codes.
    Wide(Vec<u16>),
    /// Bit-packed sections borrowed from an aligned artifact buffer.
    Packed {
        /// The artifact image the sections live in.
        buf: Arc<AlignedBytes>,
        /// Sections in ascending `start` order, tiling `0..total`.
        sections: Vec<PackedSection>,
        /// Total number of codes across all sections.
        total: usize,
    },
}

impl CodePool {
    pub(crate) fn len(&self) -> usize {
        match self {
            CodePool::Wide(v) => v.len(),
            CodePool::Packed { total, .. } => *total,
        }
    }

    /// Appends the codes of pool range `start..start + len` to `out`,
    /// reading each packed section through a bounded bit cursor. The
    /// range must be in bounds (callers bounds-check first).
    fn decode_range_into(&self, start: usize, len: usize, out: &mut Vec<u16>) {
        self.map_range(start, len, |c| out.push(c));
    }

    /// Streams the codes of pool range `start..start + len` through `f`
    /// in order, reading bit-packed sections directly — no intermediate
    /// wide buffer. The quantized-table materializer consumes v2 code
    /// sections through this exactly once at load time, which is what
    /// lets the integer batch path skip per-op tile decodes entirely.
    /// The range must be in bounds (callers bounds-check first).
    pub(crate) fn map_range(&self, start: usize, len: usize, mut f: impl FnMut(u16)) {
        match self {
            CodePool::Wide(v) => v[start..start + len].iter().for_each(|&c| f(c)),
            CodePool::Packed { buf, sections, .. } => {
                let bytes = buf.bytes();
                let end = start + len;
                // Sections are sorted and tile the pool; find the first
                // one overlapping the range, then walk forward.
                let first = sections.partition_point(|s| s.start + s.len <= start);
                for s in &sections[first..] {
                    if s.start >= end {
                        break;
                    }
                    let lo = start.max(s.start);
                    let hi = end.min(s.start + s.len);
                    let stream = &bytes[s.byte_off..s.byte_off + s.byte_len()];
                    let mask = (1u32 << s.width_bits) - 1;
                    let mut bit = (lo - s.start) * s.width_bits as usize;
                    for _ in lo..hi {
                        f(read_bits(stream, bit, mask));
                        bit += s.width_bits as usize;
                    }
                }
            }
        }
    }

    /// Materializes the whole pool (serialization, analysis, equality —
    /// never the inference hot path, which decodes per-op tiles).
    pub(crate) fn to_wide(&self) -> Vec<u16> {
        match self {
            CodePool::Wide(v) => v.clone(),
            CodePool::Packed { total, .. } => {
                let mut out = Vec::with_capacity(*total);
                self.decode_range_into(0, *total, &mut out);
                out
            }
        }
    }

    /// The packed sections, empty for a wide pool.
    pub(crate) fn sections(&self) -> &[PackedSection] {
        match self {
            CodePool::Wide(_) => &[],
            CodePool::Packed { sections, .. } => sections,
        }
    }
}

impl PartialEq for CodePool {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CodePool::Wide(a), CodePool::Wide(b)) => a == b,
            (a, b) => a.len() == b.len() && a.to_wide() == b.to_wide(),
        }
    }
}

/// Reads the `mask`-wide value at bit offset `bit` of an LSB-first
/// stream. Out-of-stream bytes read as zero, so a read that would run
/// past the final byte (possible only while probing, never for codes a
/// validated section owns) stays in bounds.
#[inline]
fn read_bits(stream: &[u8], bit: usize, mask: u32) -> u16 {
    let byte = bit / 8;
    let shift = bit % 8;
    let mut acc = 0u32;
    for i in 0..3 {
        if let Some(&b) = stream.get(byte + i) {
            acc |= u32::from(b) << (8 * i);
        }
    }
    ((acc >> shift) & mask) as u16
}

/// LSB-first bit packer for one v2 code section.
#[derive(Default)]
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn put(&mut self, v: u16, width: u32) {
        self.acc |= u64::from(v) << self.nbits;
        self.nbits += width;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Flushes the final partial byte (its unused high bits are zero)
    /// and returns the section's byte stream.
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

/// A [`ReinterpretedNetwork`] flattened into contiguous pools plus a
/// linear op program — the deployable, serializable serving artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    pub(crate) input_features: usize,
    pub(crate) output_features: usize,
    /// Virtual input-layer codebook (sorted values) in the float pool.
    pub(crate) virtual_encoder: Span,
    /// `virtual_encoder`'s search tables, built once by
    /// [`CompiledModel::assemble`] so no batch pays for them. Never
    /// serialized: a pure function of the pool and the span.
    pub(crate) input_enc: InputEncoder,
    pub(crate) ops: Vec<Op>,
    /// All f32 data: codebooks, product tables, LUTs, biases.
    pub(crate) floats: FloatPool,
    /// All encoded weights.
    pub(crate) codes: CodePool,
    /// Materialized integer-kernel state, populated by
    /// [`CompiledModel::quantize`] for analyzer-licensed ops. Never
    /// serialized — a loaded artifact re-earns it.
    pub(crate) quant: Option<crate::quant::QuantState>,
}

/// What [`BatchRunner`] needs to encode input rows through a model's
/// virtual input codebook, tabulated once per model instead of once per
/// batch (the boundary search alone cost a quarter of a one-row call).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum InputEncoder {
    /// The codebook's code boundaries in key space (see
    /// [`tabulate_thresholds`]): encoding is a count against them.
    Thresholds(Vec<i32>),
    /// Total-order keys of a codebook too large to tabulate: encoding
    /// sweeps them and resolves each probe against the book.
    Keys(Vec<i32>),
}

impl InputEncoder {
    /// Tabulates `book`'s span of `floats`. A span outside the pool —
    /// possible only on a freshly decoded model the analyzer has not
    /// seen yet, which it will reject before it encodes anything —
    /// tabulates as empty.
    fn new(floats: &[f32], book: Span) -> InputEncoder {
        let end = book.start.saturating_add(book.len);
        let book = floats.get(book.start..end).unwrap_or(&[]);
        let mut keys = Vec::new();
        load_keys(&mut keys, book);
        match tabulate_thresholds(book, &keys) {
            Some(thr) => InputEncoder::Thresholds(thr),
            None => InputEncoder::Keys(keys),
        }
    }
}

impl CompiledModel {
    /// The one place a model is put together: an f32-only model over
    /// the given program and pools, with the input encoder tabulated.
    /// Runs no analysis — every public constructor gates what it
    /// assembles; only unit tests hand this broken programs.
    pub(crate) fn assemble(
        input_features: usize,
        output_features: usize,
        virtual_encoder: Span,
        ops: Vec<Op>,
        floats: FloatPool,
        codes: CodePool,
    ) -> CompiledModel {
        CompiledModel {
            input_features,
            output_features,
            virtual_encoder,
            input_enc: InputEncoder::new(floats.as_slice(), virtual_encoder),
            ops,
            floats,
            codes,
            quant: None,
        }
    }

    /// Flattens a reinterpreted network into a compiled model: the
    /// analyzer's lowering ([`rapidnn_analyze::Program::from_reinterpreted`])
    /// through [`Self::from_program`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carrying the report when the lowered
    /// program fails static analysis.
    pub fn from_reinterpreted(network: &ReinterpretedNetwork) -> Result<Self> {
        Self::from_program(&rapidnn_analyze::Program::from_reinterpreted(network))
    }

    /// Input feature width.
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// The float pool as a contiguous slice — materialized values for
    /// owned pools, a zero-copy borrow of the artifact buffer for v2
    /// views.
    pub(crate) fn float_pool(&self) -> &[f32] {
        self.floats.as_slice()
    }

    /// The codes of `span`, borrowing the wide pool directly or bit-
    /// decoding the packed sections into `scratch` (cleared first). The
    /// span must be in bounds — the analyzer establishes that before
    /// any model exists to read through this.
    pub(crate) fn codes_for<'a>(&'a self, span: Span, scratch: &'a mut Vec<u16>) -> &'a [u16] {
        match &self.codes {
            CodePool::Wide(v) => span.slice(v),
            packed => {
                scratch.clear();
                packed.decode_range_into(span.start, span.len, scratch);
                scratch
            }
        }
    }

    /// A deliberately inconsistent model (assembled past the analyzer)
    /// whose `infer` panics out of bounds — for exercising the engine's
    /// worker panic containment.
    #[cfg(test)]
    pub(crate) fn broken_for_tests() -> CompiledModel {
        CompiledModel::assemble(
            1,
            1,
            Span { start: 0, len: 2 },
            vec![Op::MaxPool(Geom {
                in_channels: 1,
                in_height: 2,
                in_width: 2,
                kernel_h: 2,
                kernel_w: 2,
                stride: 1,
                pad: 0,
                out_height: 1,
                out_width: 1,
            })],
            FloatPool::Owned(vec![0.0, 1.0]),
            CodePool::Wide(vec![]),
        )
    }

    /// Hand-built `layers`-deep dense chain (4 features wide throughout)
    /// for exercising the pipeline shard planner without composing a
    /// network: every interior layer re-encodes through the shared
    /// 4-entry codebook, the last decodes. All layers alias the same
    /// table/bias/weight spans, so the model stays a few dozen floats.
    #[cfg(test)]
    pub(crate) fn deep_for_tests(layers: usize) -> CompiledModel {
        let book = Span { start: 0, len: 4 };
        let table = TableRef {
            offset: 4,
            weight_count: 2,
            input_count: 4,
        };
        let bias = Span { start: 12, len: 4 };
        let weight_codes = Span { start: 0, len: 16 };
        let mut floats = vec![-1.0f32, -0.25, 0.5, 1.0];
        for &w in &[0.5f32, -1.0] {
            floats.extend([-1.0f32, -0.25, 0.5, 1.0].iter().map(|x| w * x));
        }
        floats.extend([0.01, 0.02, 0.03, 0.04]);
        let ops = (0..layers.max(1))
            .map(|l| Op::Dense {
                inputs: 4,
                outputs: 4,
                weight_codes,
                bias,
                table,
                act: ActRef::Relu,
                encoder: (l + 1 < layers.max(1)).then_some(book),
            })
            .collect();
        CompiledModel::assemble(
            4,
            4,
            book,
            ops,
            FloatPool::Owned(floats),
            CodePool::Wide(vec![0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0]),
        )
    }

    /// [`deep_for_tests`](Self::deep_for_tests) quantized into a mixed
    /// plan: op `refused` multiplies through a table too wide for `i16`
    /// and stays on the f32 path, op `gathered` through one that does
    /// not factor and lowers to an integer Gather; every other op
    /// licenses as an integer Madd.
    #[cfg(test)]
    pub(crate) fn deep_mixed_for_tests(
        layers: usize,
        refused: usize,
        gathered: usize,
    ) -> CompiledModel {
        let mut model = Self::deep_for_tests(layers);
        let FloatPool::Owned(floats) = &mut model.floats else {
            unreachable!("deep_for_tests owns its pool");
        };
        let mut add_table = |weights: [f32; 2], nudge: f32| {
            let offset = floats.len();
            for w in weights {
                floats.extend([-1.0f32, -0.25, 0.5, 1.0].iter().map(|x| w * x));
            }
            floats[offset] += nudge;
            offset
        };
        let (wide, unfactored) = (
            add_table([1.0e6, -1.0e6], 0.0),
            add_table([0.5, -1.0], 0.001),
        );
        for (oi, offset) in [(refused, wide), (gathered, unfactored)] {
            let Op::Dense { table, .. } = &mut model.ops[oi] else {
                unreachable!("deep_for_tests is all dense");
            };
            table.offset = offset;
        }
        model.quantize().expect("quantize is infallible");
        for oi in 0..layers {
            use crate::kernels::Domain;
            let want = match oi {
                oi if oi == refused => None,
                oi if oi == gathered => Some(Domain::Codes),
                _ => Some(Domain::Quants),
            };
            let reads = model.quant_op(oi).map(crate::quant::QuantOp::reads);
            assert_eq!(reads, want, "op {oi}: {:?}", model.quant_plan());
        }
        model
    }

    /// [`deep_for_tests`](Self::deep_for_tests) with a deliberately
    /// inconsistent pool op appended: the healthy dense prefix executes
    /// fine, then the tail op panics out of bounds — for proving that a
    /// panic in a *late* pipeline stage fails only the affected
    /// requests while the stages keep serving.
    #[cfg(test)]
    pub(crate) fn deep_broken_tail_for_tests(layers: usize) -> CompiledModel {
        let mut model = Self::deep_for_tests(layers);
        model.ops.push(Op::MaxPool(Geom {
            in_channels: 4,
            in_height: 4,
            in_width: 4,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            pad: 0,
            out_height: 3,
            out_width: 3,
        }));
        model.output_features = 4 * 9;
        model
    }

    /// Output feature width (class count).
    pub fn output_features(&self) -> usize {
        self.output_features
    }

    /// Number of ops in the flattened program.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Total bytes held by the two pools (the dominant footprint):
    /// 4 per float, and 2 per code for wide pools or the bit-packed
    /// section bytes for packed pools.
    pub fn pool_bytes(&self) -> usize {
        let code_bytes = match &self.codes {
            CodePool::Wide(v) => v.len() * 2,
            CodePool::Packed { sections, .. } => sections.iter().map(PackedSection::byte_len).sum(),
        };
        self.floats.len() * 4 + code_bytes
    }

    /// Runs encoded inference on one sample, returning the output logits.
    ///
    /// Bit-for-bit identical to
    /// [`ReinterpretedNetwork::infer_sample`] on the source network.
    /// Each call spins up a fresh single-row [`BatchRunner`]; a serving
    /// loop should hold a runner of its own and call
    /// [`BatchRunner::run`] to amortise the scratch arena across batches.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when `sample` has the wrong
    /// width. Never panics: the analyzer proved every index in bounds.
    pub fn infer(&self, sample: &[f32]) -> Result<Vec<f32>> {
        if sample.len() != self.input_features {
            return Err(ServeError::InvalidInput(format!(
                "sample has {} features, expected {}",
                sample.len(),
                self.input_features
            )));
        }
        let mut out = Vec::with_capacity(self.output_features);
        BatchRunner::new().run(self, sample, &mut out)?;
        Ok(out)
    }

    /// Runs inference over `batch x features` row-major inputs.
    ///
    /// The whole batch executes through one [`BatchRunner`] pass — each
    /// op runs once over all rows — with outputs bit-for-bit identical
    /// to calling [`CompiledModel::infer`] per row.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidInput`] when the input length is not a
    /// multiple of the model's feature width.
    pub fn infer_batch(&self, inputs: &[f32]) -> Result<Vec<Vec<f32>>> {
        let mut out = Vec::new();
        BatchRunner::new().run(self, inputs, &mut out)?;
        Ok(out
            .chunks(self.output_features)
            .map(<[f32]>::to_vec)
            .collect())
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Serializes the model in the current (v2) format: `RNNA` magic,
    /// format version, payload length, payload, FNV-1a 64 checksum —
    /// all little-endian. The payload carries the float pool as raw LE
    /// `f32` bytes at an 8-aligned offset and the code pool as per-op
    /// bit-packed sections located by a tail directory, so a loader can
    /// borrow both without materializing them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let floats = self.float_pool();
        let codes = self.codes.to_wide();
        let sections = self.plan_sections(&codes);

        // Ops first (variable length), so the header can record where
        // the aligned float section starts.
        let mut ops_bytes = Vec::new();
        write_span(&mut ops_bytes, self.virtual_encoder);
        for op in &self.ops {
            write_op(&mut ops_bytes, op);
        }
        let ops_end = V2_HEADER_LEN + ops_bytes.len();
        let float_byte_off = ops_end.next_multiple_of(8);
        let packed_byte_off = float_byte_off + floats.len() * 4;

        let mut streams: Vec<Vec<u8>> = Vec::with_capacity(sections.len());
        for &(start, len, width) in &sections {
            let mut w = BitWriter::default();
            for &c in &codes[start..start + len] {
                w.put(c, width);
            }
            streams.push(w.finish());
        }
        let packed_len: usize = streams.iter().map(Vec::len).sum();
        let dir_byte_off = packed_byte_off + packed_len;

        let payload_len = dir_byte_off + sections.len() * V2_DIR_ENTRY_LEN;
        let mut payload = Vec::with_capacity(payload_len);
        for v in [
            self.input_features as u64,
            self.output_features as u64,
            floats.len() as u64,
            codes.len() as u64,
            self.ops.len() as u64,
            sections.len() as u64,
            float_byte_off as u64,
            packed_byte_off as u64,
            dir_byte_off as u64,
        ] {
            write_u64(&mut payload, v);
        }
        payload.extend_from_slice(&ops_bytes);
        payload.resize(float_byte_off, 0); // alignment padding, must be zero
        for &f in floats {
            payload.extend_from_slice(&f.to_le_bytes());
        }
        for stream in &streams {
            payload.extend_from_slice(stream);
        }
        let mut byte_off = packed_byte_off;
        for (&(start, len, width), stream) in sections.iter().zip(&streams) {
            write_u64(&mut payload, start as u64);
            write_u64(&mut payload, len as u64);
            write_u64(&mut payload, byte_off as u64);
            write_u64(&mut payload, u64::from(width));
            byte_off += stream.len();
        }
        debug_assert_eq!(payload.len(), payload_len);

        frame(payload)
    }

    /// Plans the v2 code sections as `(start, len, width_bits)` triples
    /// tiling `0..codes.len()` in ascending order.
    ///
    /// Sections come from the ops' weight-code spans (the flattener
    /// lays codes out in op order, so for compiler-built models they
    /// tile the pool exactly); each op section is packed at
    /// `ceil(log2(table rows))` bits. Code ranges no op claims — which
    /// only hand-built or malformed models have — become filler
    /// sections, and every width is widened if needed to hold the
    /// largest value actually present, so serialization round-trips the
    /// pool bit-for-bit even for the broken models unit tests assemble.
    fn plan_sections(&self, codes: &[u16]) -> Vec<(usize, usize, u32)> {
        let total = codes.len();
        let mut claims: Vec<(Span, u32)> = Vec::new();
        for op in &self.ops {
            let claim = match op {
                Op::Dense {
                    weight_codes,
                    table,
                    ..
                } => Some((*weight_codes, bits_for(table.weight_count))),
                Op::Conv {
                    weight_codes,
                    tables,
                    ..
                } => {
                    let rows = tables.iter().map(|t| t.weight_count).max().unwrap_or(0);
                    Some((*weight_codes, bits_for(rows)))
                }
                _ => None,
            };
            if let Some((span, width)) = claim {
                if span.len > 0 && span.start < total && span.start + span.len <= total {
                    claims.push((span, width));
                }
            }
        }
        claims.sort_by_key(|(s, _)| s.start);

        let mut sections = Vec::new();
        let mut push = |start: usize, len: usize, width: u32| {
            let width = width.max(bits_needed(&codes[start..start + len]));
            sections.push((start, len, width));
        };
        let mut cursor = 0usize;
        for (span, width) in claims {
            if span.start < cursor {
                continue; // overlap: the earlier section already covers it
            }
            if span.start > cursor {
                push(cursor, span.start - cursor, 1);
            }
            push(span.start, span.len, width);
            cursor = span.start + span.len;
        }
        if cursor < total {
            push(cursor, total - cursor, 1);
        }
        sections
    }

    /// Decodes an artifact and runs the static analyzer over it — the
    /// only way bytes become a model.
    ///
    /// # Errors
    ///
    /// Byte-level corruption surfaces as [`ServeError::Artifact`] with a
    /// typed [`ArtifactError`] — bad magic, unknown version, truncation,
    /// checksum mismatch, broken framing; a decodable program with
    /// analysis errors surfaces as [`ServeError::Rejected`] carrying
    /// the full diagnostic report. This function never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let model = Self::decode(bytes)?;
        gate(&model.to_program())?;
        Ok(model)
    }

    /// Decodes the byte framing (magic, version, checksum, payload) into
    /// a model no analyzer has seen. Callers run the analyzer over it
    /// ([`Self::from_bytes`], `lint_bytes`) before anything infers.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload_len = r.usize()?;
        let payload = r.take(payload_len)?;
        let stored = r.u64()?;
        if r.remaining() != 0 {
            return Err(ArtifactError::Malformed(format!(
                "{} trailing bytes after checksum",
                r.remaining()
            )));
        }
        let actual = fnv1a64(payload);
        if stored != actual {
            return Err(ArtifactError::ChecksumMismatch {
                expected: stored,
                actual,
            });
        }
        Self::decode_v2(bytes, payload_len)
    }

    /// Decodes a checksummed payload: copies the whole image into one
    /// aligned buffer (the only copy), parses the fixed header and ops,
    /// checks the section directory's framing invariants, and builds
    /// borrowed pool views over the buffer — validate-then-borrow.
    fn decode_v2(bytes: &[u8], payload_len: usize) -> Result<Self, ArtifactError> {
        let invalid = |msg: String| ArtifactError::PackedLayout(msg);
        let buf = Arc::new(AlignedBytes::copy_from(bytes));
        let payload = &buf.bytes()[OUTER_HEADER_LEN..OUTER_HEADER_LEN + payload_len];

        let mut p = Reader::new(payload);
        let input_features = p.extent()?;
        let output_features = p.extent()?;
        let nfloats = p.extent()?;
        let ncodes = p.extent()?;
        let nops = p.extent()?;
        let nsections = p.extent()?;
        let float_byte_off = p.usize()?;
        let packed_byte_off = p.usize()?;
        let dir_byte_off = p.usize()?;

        let virtual_encoder = read_span(&mut p)?;
        // Each op costs at least its 1-byte tag, and all ops must end
        // before the float section.
        p.ensure(nops)?;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            ops.push(read_op(&mut p)?);
        }
        let ops_end = p.pos();

        // Framing invariants: the four regions (ops + padding, floats,
        // packed streams, directory) must chain exactly through the
        // recorded offsets and fill the payload.
        if float_byte_off != ops_end.next_multiple_of(8) {
            return Err(invalid(format!(
                "float section at byte {float_byte_off}, ops end (8-aligned) at {}",
                ops_end.next_multiple_of(8)
            )));
        }
        let float_end = nfloats
            .checked_mul(4)
            .and_then(|n| float_byte_off.checked_add(n))
            .ok_or_else(too_large)?;
        if packed_byte_off != float_end {
            return Err(invalid(format!(
                "packed region at byte {packed_byte_off}, float section ends at {float_end}"
            )));
        }
        let dir_len = nsections
            .checked_mul(V2_DIR_ENTRY_LEN)
            .ok_or_else(too_large)?;
        if packed_byte_off > dir_byte_off || dir_byte_off.checked_add(dir_len) != Some(payload_len)
        {
            return Err(invalid(format!(
                "directory of {nsections} sections at byte {dir_byte_off} does not \
                 end the {payload_len}-byte payload"
            )));
        }
        if payload[ops_end..float_byte_off].iter().any(|&b| b != 0) {
            return Err(invalid("non-zero alignment padding after ops".into()));
        }

        // The tail directory: sections must tile 0..ncodes in order,
        // with byte streams chaining exactly through the packed region.
        let mut d = Reader::new(&payload[dir_byte_off..]);
        let mut sections = Vec::with_capacity(nsections);
        let mut code_cursor = 0usize;
        let mut byte_cursor = packed_byte_off;
        for i in 0..nsections {
            let start = d.usize()?;
            let len = d.extent()?;
            let byte_off = d.usize()?;
            let width_bits = u32::try_from(d.u64()?).map_err(|_| too_large())?;
            if len == 0 {
                return Err(invalid(format!("section {i} is empty")));
            }
            if !(1..=16).contains(&width_bits) {
                return Err(invalid(format!(
                    "section {i} packs {width_bits} bits per code, expected 1..=16"
                )));
            }
            if start != code_cursor {
                return Err(invalid(format!(
                    "section {i} starts at code {start}, tiling cursor is {code_cursor}"
                )));
            }
            if byte_off != byte_cursor {
                return Err(invalid(format!(
                    "section {i} stream at byte {byte_off}, chain cursor is {byte_cursor}"
                )));
            }
            let byte_len = packed_byte_len(len, width_bits);
            code_cursor = start.checked_add(len).ok_or_else(too_large)?;
            byte_cursor = byte_cursor.checked_add(byte_len).ok_or_else(too_large)?;
            if byte_cursor > dir_byte_off {
                return Err(invalid(format!(
                    "section {i} stream overruns the directory at byte {dir_byte_off}"
                )));
            }
            // Unused high bits of the final byte must be zero; recorded
            // here, enforced by the analyzer so the mutation invariant
            // ("flagged or infers without panic") has no third outcome.
            let tail_bits = (len * width_bits as usize) % 8;
            let padding_clear =
                tail_bits == 0 || payload[byte_off + byte_len - 1] >> tail_bits == 0;
            sections.push(PackedSection {
                start,
                len,
                // Absolute offset in the artifact buffer.
                byte_off: OUTER_HEADER_LEN + byte_off,
                width_bits,
                padding_clear,
            });
        }
        if code_cursor != ncodes {
            return Err(invalid(format!(
                "sections cover {code_cursor} codes, header says {ncodes}"
            )));
        }
        if byte_cursor != dir_byte_off {
            return Err(invalid(format!(
                "packed streams end at byte {byte_cursor}, directory starts at {dir_byte_off}"
            )));
        }

        let float_bytes =
            &buf.bytes()[OUTER_HEADER_LEN + float_byte_off..OUTER_HEADER_LEN + packed_byte_off];
        let floats = match pod::f32s(float_bytes) {
            // Zero-copy on little-endian targets: the section *is* the
            // decoded values.
            Some(_) => FloatPool::View {
                buf: Arc::clone(&buf),
                byte_off: OUTER_HEADER_LEN + float_byte_off,
                len: nfloats,
            },
            // Big-endian (or a format drift that broke alignment):
            // decode each lane instead of borrowing.
            None => FloatPool::Owned(
                float_bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte lane")))
                    .collect(),
            ),
        };
        let codes = CodePool::Packed {
            buf,
            sections,
            total: ncodes,
        };

        Ok(CompiledModel::assemble(
            input_features,
            output_features,
            virtual_encoder,
            ops,
            floats,
            codes,
        ))
    }

    /// [`Self::from_bytes`] under its old name: the analyzer used to be
    /// the opt-in "strict" load and is now the only one. Remains
    /// because the frozen benchmark harness (`bench/`) calls it.
    ///
    /// # Errors
    ///
    /// As [`Self::from_bytes`].
    pub fn from_bytes_strict(bytes: &[u8]) -> Result<Self> {
        Self::from_bytes(bytes)
    }

    /// Writes the serialized artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads an artifact from `path` via [`Self::from_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and everything
    /// [`Self::from_bytes`] returns.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    // ------------------------------------------------------------------
    // Static analysis
    // ------------------------------------------------------------------

    /// Lowers the model into the analyzer's IR, borrowing both pools.
    pub(crate) fn to_program(&self) -> rapidnn_analyze::Program<'_> {
        use rapidnn_analyze as a;
        use std::borrow::Cow;

        let span = |s: Span| a::Span {
            start: s.start,
            len: s.len,
        };
        let table = |t: &TableRef| a::TableRef {
            offset: t.offset,
            weight_count: t.weight_count,
            input_count: t.input_count,
        };
        let act = |x: &ActRef| match x {
            ActRef::Identity => a::Act::Identity,
            ActRef::Relu => a::Act::Relu,
            ActRef::Lookup { inputs, outputs } => a::Act::Lookup {
                inputs: span(*inputs),
                outputs: span(*outputs),
            },
        };
        let geom = |g: &Geom| a::Geom {
            in_channels: g.in_channels,
            in_height: g.in_height,
            in_width: g.in_width,
            kernel_h: g.kernel_h,
            kernel_w: g.kernel_w,
            stride: g.stride,
            pad: g.pad,
            out_height: g.out_height,
            out_width: g.out_width,
        };
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                Op::Dense {
                    inputs,
                    outputs,
                    weight_codes,
                    bias,
                    table: t,
                    act: x,
                    encoder,
                } => a::Op::Dense {
                    inputs: *inputs,
                    outputs: *outputs,
                    weight_codes: span(*weight_codes),
                    bias: span(*bias),
                    table: table(t),
                    act: act(x),
                    encoder: encoder.map(span),
                },
                Op::Conv {
                    geom: g,
                    out_channels,
                    weight_codes,
                    bias,
                    tables,
                    zero_code,
                    act: x,
                    encoder,
                } => a::Op::Conv {
                    geom: geom(g),
                    out_channels: *out_channels,
                    weight_codes: span(*weight_codes),
                    bias: span(*bias),
                    tables: tables.iter().map(table).collect(),
                    zero_code: *zero_code,
                    act: act(x),
                    encoder: encoder.map(span),
                },
                Op::MaxPool(g) => a::Op::MaxPool(geom(g)),
                Op::AvgPool { geom: g, codebook } => a::Op::AvgPool {
                    geom: geom(g),
                    codebook: span(*codebook),
                },
                Op::ResidualBegin { skip_codebook } => a::Op::ResidualBegin {
                    skip_codebook: span(*skip_codebook),
                },
                Op::ResidualEnd { encoder } => a::Op::ResidualEnd {
                    encoder: encoder.map(span),
                },
            })
            .collect();
        a::Program {
            input_features: self.input_features,
            output_features: self.output_features,
            virtual_encoder: span(self.virtual_encoder),
            ops,
            floats: Cow::Borrowed(self.float_pool()),
            codes: match &self.codes {
                CodePool::Wide(v) => Cow::Borrowed(&v[..]),
                packed => Cow::Owned(packed.to_wide()),
            },
            packed: self
                .codes
                .sections()
                .iter()
                .map(|s| a::PackedSection {
                    code_start: s.start,
                    code_len: s.len,
                    width_bits: s.width_bits,
                    padding_clear: s.padding_clear,
                })
                .collect(),
        }
    }

    /// Builds a model from the analyzer's program IR — the inverse of
    /// the lowering behind [`Self::analyze`] — after the analyzer has
    /// passed it. Pools are materialized owned/wide; writing the model
    /// back out re-packs v2 code sections at the width the (possibly
    /// compacted) tables now imply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carrying the report when the program
    /// fails static analysis.
    pub fn from_program(program: &rapidnn_analyze::Program<'_>) -> Result<Self> {
        gate(program)?;
        Ok(Self::realize(program))
    }

    /// The un-gated conversion behind [`Self::from_program`], for
    /// callers holding a program the analyzer has already passed.
    fn realize(program: &rapidnn_analyze::Program<'_>) -> Self {
        use rapidnn_analyze as a;

        let span = |s: a::Span| Span {
            start: s.start,
            len: s.len,
        };
        let table = |t: &a::TableRef| TableRef {
            offset: t.offset,
            weight_count: t.weight_count,
            input_count: t.input_count,
        };
        let act = |x: &a::Act| match x {
            a::Act::Identity => ActRef::Identity,
            a::Act::Relu => ActRef::Relu,
            a::Act::Lookup { inputs, outputs } => ActRef::Lookup {
                inputs: span(*inputs),
                outputs: span(*outputs),
            },
        };
        let geom = |g: &a::Geom| Geom {
            in_channels: g.in_channels,
            in_height: g.in_height,
            in_width: g.in_width,
            kernel_h: g.kernel_h,
            kernel_w: g.kernel_w,
            stride: g.stride,
            pad: g.pad,
            out_height: g.out_height,
            out_width: g.out_width,
        };
        let ops = program
            .ops
            .iter()
            .map(|op| match op {
                a::Op::Dense {
                    inputs,
                    outputs,
                    weight_codes,
                    bias,
                    table: t,
                    act: x,
                    encoder,
                } => Op::Dense {
                    inputs: *inputs,
                    outputs: *outputs,
                    weight_codes: span(*weight_codes),
                    bias: span(*bias),
                    table: table(t),
                    act: act(x),
                    encoder: encoder.map(span),
                },
                a::Op::Conv {
                    geom: g,
                    out_channels,
                    weight_codes,
                    bias,
                    tables,
                    zero_code,
                    act: x,
                    encoder,
                } => Op::Conv {
                    geom: geom(g),
                    out_channels: *out_channels,
                    weight_codes: span(*weight_codes),
                    bias: span(*bias),
                    tables: tables.iter().map(table).collect(),
                    zero_code: *zero_code,
                    act: act(x),
                    encoder: encoder.map(span),
                },
                a::Op::MaxPool(g) => Op::MaxPool(geom(g)),
                a::Op::AvgPool { geom: g, codebook } => Op::AvgPool {
                    geom: geom(g),
                    codebook: span(*codebook),
                },
                a::Op::ResidualBegin { skip_codebook } => Op::ResidualBegin {
                    skip_codebook: span(*skip_codebook),
                },
                a::Op::ResidualEnd { encoder } => Op::ResidualEnd {
                    encoder: encoder.map(span),
                },
            })
            .collect();
        CompiledModel::assemble(
            program.input_features,
            program.output_features,
            span(program.virtual_encoder),
            ops,
            FloatPool::Owned(program.floats.to_vec()),
            CodePool::Wide(program.codes.to_vec()),
        )
    }

    /// Runs the certified optimizer ([`rapidnn_analyze::optimize`])
    /// over the compiled program and translation-validates the result
    /// before returning it: the rewrite's certificate is re-proven by
    /// [`rapidnn_analyze::validate_certificate`] against both programs,
    /// so a rewrite that cannot be re-proven is never handed back. The
    /// validator's pass over the output program is the returned model's
    /// construction gate. It carries no quantization state — callers
    /// opt back in with [`Self::quantize`], exactly as after a load.
    ///
    /// Inference is bit-identical to the source model on both the f32
    /// and the int16 path; what changes is the footprint: dead
    /// codebook entries, unreferenced product-table rows, dead columns
    /// and LUT rows are gone, and [`Self::to_bytes`] re-packs v2 code
    /// sections at the narrower width the compacted tables imply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] carrying the diagnostic report when the
    /// certificate does not validate (RNA0015/RNA0016/RNA0017).
    pub fn optimize(&self) -> Result<(CompiledModel, rapidnn_analyze::Certificate)> {
        let input = self.to_program();
        let optimized = rapidnn_analyze::optimize(&input).map_err(ServeError::Rejected)?;
        let check = rapidnn_analyze::validate_certificate(
            &input,
            &optimized.program,
            &optimized.certificate,
        );
        if check.has_errors() {
            return Err(ServeError::Rejected(Box::new(check)));
        }
        // The validator just ran the analyzer over the optimized program
        // with no errors; gating it again would only repeat that pass.
        Ok((Self::realize(&optimized.program), optimized.certificate))
    }

    /// Runs the static analyzer over the compiled program and returns
    /// the full diagnostic report. Construction already refused every
    /// `error`, so what comes back are the warnings and notes.
    pub fn analyze(&self) -> rapidnn_analyze::Report {
        rapidnn_analyze::analyze(&self.to_program())
    }

    /// Materializes integer kernels for every op the analyzer licenses
    /// ([`rapidnn_analyze::quantize_plan`]): `i16` weight/table tiles,
    /// quantized biases and precomputed finish LUTs, with v2 bit-packed
    /// code sections consumed directly — exactly once, here — so the
    /// integer batch path never decodes weight tiles again.
    ///
    /// Quantization is opt-in: no constructor enables it, so the f32
    /// path stays bit-identical unless a caller asks for integers. Ops
    /// the plan refuses stay on the f32 path; [`Self::kernel_path`]
    /// reports the resulting mix.
    ///
    /// # Errors
    ///
    /// None: the analysis that could refuse a model ran when it was
    /// constructed. The `Result` remains because the frozen benchmark
    /// harness (`bench/`) `.expect`s it.
    pub fn quantize(&mut self) -> Result<()> {
        let plan = rapidnn_analyze::quantize_plan(&self.to_program());
        self.quant = Some(crate::quant::QuantState::materialize(self, plan));
        Ok(())
    }

    /// The quantization plan materialized by [`Self::quantize`], or
    /// `None` for a pure-f32 model.
    pub fn quant_plan(&self) -> Option<&rapidnn_analyze::QuantPlan> {
        self.quant.as_ref().map(|q| &q.plan)
    }

    /// Derives the quantization plan without changing the model: which
    /// ops the analyzer would license for the integer path and why the
    /// rest fall back.
    pub fn quant_plan_preview(&self) -> rapidnn_analyze::QuantPlan {
        rapidnn_analyze::quantize_plan(&self.to_program())
    }

    /// The flow domain each op reads under `plan`, in op order:
    /// `"codes"`, `"f32"`, or `"i16"` — the operands of an integer Madd
    /// op, which whatever produces its input writes in place of codes,
    /// so consecutive `"i16"` ops never leave the quantized domain.
    /// Like [`Self::quant_plan_preview`] it needs no materialized plan.
    pub fn read_domains(&self, plan: &rapidnn_analyze::QuantPlan) -> Vec<&'static str> {
        use rapidnn_analyze::{OpQuant, QuantMode};
        let (states, _) = crate::kernels::flow_states_with(self, |oi| {
            matches!(
                (self.ops.get(oi), plan.ops.get(oi)),
                (Some(Op::Dense { .. }), Some(OpQuant::Licensed(lic)))
                    if matches!(lic.mode, QuantMode::Madd { .. })
            )
        });
        let reads = &states[..self.ops.len()];
        reads.iter().map(|st| st.domain.name()).collect()
    }

    /// Which kernels serve this model: `"f32"` (no quantization, or
    /// nothing licensed), `"int16"` (every table op licensed), or
    /// `"mixed"`.
    pub fn kernel_path(&self) -> &'static str {
        match &self.quant {
            None => "f32",
            Some(q) => {
                let plan = &q.plan;
                if plan.licensed() == 0 {
                    "f32"
                } else if plan.fallbacks() == 0 {
                    "int16"
                } else {
                    "mixed"
                }
            }
        }
    }

    /// Number of ops running on the integer path (0 unless
    /// [`Self::quantize`] licensed some).
    pub fn licensed_ops(&self) -> usize {
        self.quant.as_ref().map_or(0, |q| q.plan.licensed())
    }

    /// `(inputs, outputs)` of every dense op, in program order — the
    /// shapes an equivalent unquantized GEMM stack would multiply
    /// (used by the benchmark's dense-baseline comparison).
    pub fn dense_shapes(&self) -> Vec<(usize, usize)> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Dense {
                    inputs, outputs, ..
                } => Some((*inputs, *outputs)),
                _ => None,
            })
            .collect()
    }
}

/// The construction gate: runs the static analyzer over `program` and
/// refuses it on any `error` diagnostic.
fn gate(program: &rapidnn_analyze::Program<'_>) -> Result<()> {
    let report = rapidnn_analyze::analyze(program);
    if report.has_errors() {
        return Err(ServeError::Rejected(Box::new(report)));
    }
    Ok(())
}

/// Nearest-representative search over a sorted codebook, replicating
/// `Codebook::encode` exactly (ties resolve to the smaller value).
/// The analyzer caps codebooks at `2^16` values (RNA0004), so the
/// returned index always fits a `u16` without wrapping.
///
/// The hot paths use the branch-free equivalent in `kernels`; this
/// binary-search form is the readable reference the unit tests check
/// both against, and the quantized-LUT materializer (`crate::quant`)
/// bakes finish codes through it so integer finishes encode exactly
/// like the scalar path would.
#[inline]
pub(crate) fn nearest(values: &[f32], value: f32) -> u16 {
    let idx = match values.binary_search_by(|probe| probe.total_cmp(&value)) {
        Ok(i) => i,
        Err(insertion) => {
            if insertion == 0 {
                0
            } else if insertion >= values.len() {
                values.len() - 1
            } else {
                let lo = insertion - 1;
                let hi = insertion;
                if (value - values[lo]).abs() <= (values[hi] - value).abs() {
                    lo
                } else {
                    hi
                }
            }
        }
    };
    idx as u16
}

fn malformed(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed(msg.into())
}

fn too_large() -> ArtifactError {
    ArtifactError::Malformed("size overflow".into())
}

/// Wraps a payload in the outer framing: magic, version, payload
/// length, payload, FNV-1a 64 checksum.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(OUTER_HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    write_u64(&mut out, fnv1a64(&payload));
    out
}

/// FNV-1a 64-bit hash — cheap, dependency-free corruption detection.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

// ----------------------------------------------------------------------
// Binary encoding helpers
// ----------------------------------------------------------------------

fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_span(out: &mut Vec<u8>, s: Span) {
    write_u64(out, s.start as u64);
    write_u64(out, s.len as u64);
}

fn write_opt_span(out: &mut Vec<u8>, s: &Option<Span>) {
    match s {
        Some(s) => {
            out.push(1);
            write_span(out, *s);
        }
        None => out.push(0),
    }
}

fn write_table(out: &mut Vec<u8>, t: &TableRef) {
    write_u64(out, t.offset as u64);
    write_u64(out, t.weight_count as u64);
    write_u64(out, t.input_count as u64);
}

fn write_act(out: &mut Vec<u8>, act: &ActRef) {
    match act {
        ActRef::Identity => out.push(0),
        ActRef::Relu => out.push(1),
        ActRef::Lookup { inputs, outputs } => {
            out.push(2);
            write_span(out, *inputs);
            write_span(out, *outputs);
        }
    }
}

fn write_geom(out: &mut Vec<u8>, g: &Geom) {
    for v in [
        g.in_channels,
        g.in_height,
        g.in_width,
        g.kernel_h,
        g.kernel_w,
        g.stride,
        g.pad,
        g.out_height,
        g.out_width,
    ] {
        write_u64(out, v as u64);
    }
}

fn write_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Dense {
            inputs,
            outputs,
            weight_codes,
            bias,
            table,
            act,
            encoder,
        } => {
            out.push(0);
            write_u64(out, *inputs as u64);
            write_u64(out, *outputs as u64);
            write_span(out, *weight_codes);
            write_span(out, *bias);
            write_table(out, table);
            write_act(out, act);
            write_opt_span(out, encoder);
        }
        Op::Conv {
            geom,
            out_channels,
            weight_codes,
            bias,
            tables,
            zero_code,
            act,
            encoder,
        } => {
            out.push(1);
            write_geom(out, geom);
            write_u64(out, *out_channels as u64);
            write_span(out, *weight_codes);
            write_span(out, *bias);
            write_u64(out, tables.len() as u64);
            for t in tables {
                write_table(out, t);
            }
            out.extend_from_slice(&zero_code.to_le_bytes());
            write_act(out, act);
            write_opt_span(out, encoder);
        }
        Op::MaxPool(geom) => {
            out.push(2);
            write_geom(out, geom);
        }
        Op::AvgPool { geom, codebook } => {
            out.push(3);
            write_geom(out, geom);
            write_span(out, *codebook);
        }
        Op::ResidualBegin { skip_codebook } => {
            out.push(4);
            write_span(out, *skip_codebook);
        }
        Op::ResidualEnd { encoder } => {
            out.push(5);
            write_opt_span(out, encoder);
        }
    }
}

/// Little-endian cursor with typed truncation errors.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn ensure(&self, needed: usize) -> Result<(), ArtifactError> {
        if self.remaining() < needed {
            return Err(ArtifactError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.ensure(n)?;
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArtifactError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, ArtifactError> {
        usize::try_from(self.u64()?).map_err(|_| too_large())
    }

    /// A length/count/dimension field, capped so later arithmetic on it
    /// cannot overflow.
    fn extent(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        if v > MAX_EXTENT {
            return Err(too_large());
        }
        Ok(v as usize)
    }
}

fn read_span(r: &mut Reader<'_>) -> Result<Span, ArtifactError> {
    let start = r.usize()?;
    let len = r.extent()?;
    Ok(Span { start, len })
}

fn read_opt_span(r: &mut Reader<'_>) -> Result<Option<Span>, ArtifactError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_span(r)?)),
        t => Err(malformed(format!("bad option tag {t}"))),
    }
}

fn read_table(r: &mut Reader<'_>) -> Result<TableRef, ArtifactError> {
    Ok(TableRef {
        offset: r.usize()?,
        weight_count: r.extent()?,
        input_count: r.extent()?,
    })
}

fn read_act(r: &mut Reader<'_>) -> Result<ActRef, ArtifactError> {
    match r.u8()? {
        0 => Ok(ActRef::Identity),
        1 => Ok(ActRef::Relu),
        2 => Ok(ActRef::Lookup {
            inputs: read_span(r)?,
            outputs: read_span(r)?,
        }),
        t => Err(malformed(format!("bad activation tag {t}"))),
    }
}

fn read_geom(r: &mut Reader<'_>) -> Result<Geom, ArtifactError> {
    Ok(Geom {
        in_channels: r.extent()?,
        in_height: r.extent()?,
        in_width: r.extent()?,
        kernel_h: r.extent()?,
        kernel_w: r.extent()?,
        stride: r.extent()?,
        pad: r.extent()?,
        out_height: r.extent()?,
        out_width: r.extent()?,
    })
}

fn read_op(r: &mut Reader<'_>) -> Result<Op, ArtifactError> {
    match r.u8()? {
        0 => Ok(Op::Dense {
            inputs: r.extent()?,
            outputs: r.extent()?,
            weight_codes: read_span(r)?,
            bias: read_span(r)?,
            table: read_table(r)?,
            act: read_act(r)?,
            encoder: read_opt_span(r)?,
        }),
        1 => {
            let geom = read_geom(r)?;
            let out_channels = r.extent()?;
            let weight_codes = read_span(r)?;
            let bias = read_span(r)?;
            let ntables = r.extent()?;
            // Each table costs 24 bytes on the wire.
            r.ensure(ntables.checked_mul(24).ok_or_else(too_large)?)?;
            let mut tables = Vec::with_capacity(ntables);
            for _ in 0..ntables {
                tables.push(read_table(r)?);
            }
            Ok(Op::Conv {
                geom,
                out_channels,
                weight_codes,
                bias,
                tables,
                zero_code: r.u16()?,
                act: read_act(r)?,
                encoder: read_opt_span(r)?,
            })
        }
        2 => Ok(Op::MaxPool(read_geom(r)?)),
        3 => Ok(Op::AvgPool {
            geom: read_geom(r)?,
            codebook: read_span(r)?,
        }),
        4 => Ok(Op::ResidualBegin {
            skip_codebook: read_span(r)?,
        }),
        5 => Ok(Op::ResidualEnd {
            encoder: read_opt_span(r)?,
        }),
        t => Err(malformed(format!("bad op tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn nearest_matches_codebook_semantics() {
        let values = [-1.25f32, -0.5, 0.2, 0.45];
        assert_eq!(nearest(&values, 1.2), 3);
        assert_eq!(nearest(&values, -9.0), 0);
        assert_eq!(nearest(&values, 0.2), 2);
        assert_eq!(nearest(&values, -0.9), 0);
        assert_eq!(nearest(&values, -0.6), 1);
        // Ties resolve low.
        assert_eq!(nearest(&[0.0, 2.0], 1.0), 0);
    }

    #[test]
    fn reader_reports_truncation() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.u64(),
            Err(ArtifactError::Truncated {
                needed: 8,
                available: 3
            })
        ));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            CompiledModel::decode(b"nope"),
            Err(ArtifactError::BadMagic | ArtifactError::Truncated { .. })
        ));
        assert!(matches!(
            CompiledModel::decode(b"XXXXXXXXXXXXXXXXXXXX"),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn decode_rejects_future_version() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&[]).to_le_bytes());
        assert!(matches!(
            CompiledModel::decode(&bytes),
            Err(ArtifactError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn bits_for_matches_ceil_log2() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(1 << 16), 16);
        assert_eq!(bits_for((1 << 16) + 7), 16);
    }

    #[test]
    fn bit_streams_round_trip_every_width() {
        for width in 1..=16u32 {
            let mask = (1u32 << width) - 1;
            let values: Vec<u16> = (0..41u32)
                .map(|i| (i.wrapping_mul(0x9e37_79b9) & mask) as u16)
                .collect();
            let mut w = BitWriter::default();
            for &v in &values {
                w.put(v, width);
            }
            let stream = w.finish();
            assert_eq!(stream.len(), packed_byte_len(values.len(), width));
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    read_bits(&stream, i * width as usize, mask),
                    v,
                    "width {width}"
                );
            }
        }
    }

    /// The v2 writer's alignment contract: the float section offset is
    /// always a multiple of 8 in the payload, and the payload itself
    /// starts 8 bytes into the outer header — so the float bytes are
    /// 8-aligned in any 8-aligned buffer.
    #[test]
    fn v2_float_section_is_aligned() {
        let model = CompiledModel::assemble(
            1,
            1,
            Span { start: 0, len: 3 },
            vec![],
            FloatPool::Owned(vec![0.0, 1.0, 2.0]),
            CodePool::Wide(vec![]),
        );
        let bytes = model.to_bytes();
        let float_off = u64::from_le_bytes(
            bytes[OUTER_HEADER_LEN + 48..OUTER_HEADER_LEN + 56]
                .try_into()
                .expect("8 bytes"),
        );
        assert_eq!(float_off % 8, 0);
        assert_eq!(OUTER_HEADER_LEN % 8, 0);
    }
}
