//! The artifact wire format: [`encode`] and [`decode`].
//!
//! The outer framing is `RNNA` magic, `u32` version, `u64` payload
//! length, payload, FNV-1a 64 checksum of the payload — a hand-rolled,
//! versioned, checksummed little-endian encoding with no dependencies
//! beyond `std`. The payload (format v4, see `DESIGN.md` §12) is a
//! header of five `u64`s (input and output widths, float count, code
//! count, op count), the virtual encoder's span and the ops, zero
//! padding to the next 8-byte boundary, the raw LE `f32` float section,
//! and then the code sections, each bit-packed at
//! `ceil(log2(weight_book_len))` bits. Nothing locates a section: the
//! ops and the code count imply the layout ([`plan_sections`]).
//!
//! The float section carries the paper's two codebooks per neuron op,
//! not their product: each op names its weight books (one for a dense
//! op, one per output channel for a conv), and the input book is the
//! one its input is encoded through ([`Program::flow`]), so no `w × u`
//! product table is stored.
//!
//! The packing is a property of the bytes only: [`decode`] unpacks
//! every section once into the program's one code pool and copies the
//! float section into its one float pool, so a loaded model is laid out
//! exactly like the one it was written from and nothing downstream
//! knows how it was built.
//!
//! [`decode`] judges the bytes, all of them: the framing, zero padding
//! and pad bits, and no byte after the last section, so one program has
//! one byte string. It does not judge the program — it hands back the
//! analyzer's IR, a [`Program`] no analyzer has seen, which
//! [`CompiledModel::from_bytes`] gates before it derives anything and
//! `lint_bytes` analyzes as it is.
//!
//! [`CompiledModel::from_bytes`]: crate::CompiledModel::from_bytes

use crate::error::ArtifactError;
use rapidnn_analyze::{Act, Geom, Op, Program, Span, MAX_EXTENT};
use std::borrow::Cow;

/// File magic: `RNNA` ("RapidNN Artifact").
pub const MAGIC: [u8; 4] = *b"RNNA";
/// The artifact format version (weight books, an aligned raw float
/// section, and code sections bit-packed in the layout the ops imply) —
/// the only one read or written.
pub const FORMAT_VERSION: u32 = 4;
/// Byte length of the outer framing before the payload (magic, version,
/// payload length), so the payload starts 8-aligned in the file.
const OUTER_HEADER_LEN: usize = 16;
/// Byte length of one span on the wire (two `u64` fields).
const SPAN_LEN: usize = 16;
/// Width of a code range no op claims: any `u16` fits.
const FILLER_BITS: u32 = 16;

/// Number of bits each code of a section with `rows` addressable
/// codebook entries is packed into: enough to represent `rows - 1`,
/// minimum 1, maximum 16 — the analyzer caps codebooks at `2^16`
/// values (RNA0004).
fn bits_for(rows: usize) -> u32 {
    let top = rows.max(2) - 1;
    // Codes are u16, so 16 bits always suffice even for a (degenerate)
    // book claiming more than 2^16 entries.
    (usize::BITS - top.leading_zeros()).min(16)
}

/// Bytes needed to pack `len` codes at `width` bits each.
fn packed_byte_len(len: usize, width: u32) -> usize {
    (len * width as usize).div_ceil(8)
}

/// Reads the `mask`-wide value at bit offset `bit` of an LSB-first
/// stream. Out-of-stream bytes read as zero, so the last codes of a
/// section read in bounds.
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

/// LSB-first bit packer for one code section.
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

/// Serializes a program in the current (v4) format: `RNNA` magic,
/// format version, payload length, payload, FNV-1a 64 checksum —
/// all little-endian. The payload carries the float pool as raw LE
/// `f32` bytes at an 8-aligned offset and the code pool as the
/// bit-packed sections [`plan_sections`] lays out.
pub(crate) fn encode(program: &Program<'_>) -> Vec<u8> {
    let (floats, codes) = (&program.floats, &program.codes);
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    write_u64(&mut out, 0); // the payload length, known at the end
    for v in [
        program.input_features,
        program.output_features,
        floats.len(),
        codes.len(),
        program.ops.len(),
    ] {
        write_u64(&mut out, v as u64);
    }
    write_span(&mut out, program.virtual_encoder);
    for op in &program.ops {
        write_op(&mut out, op);
    }
    // The payload starts 8-aligned, so this aligns the float section in
    // both. The padding must be zero.
    out.resize(out.len().next_multiple_of(8), 0);
    for f in floats.iter() {
        out.extend_from_slice(&f.to_le_bytes());
    }
    for (start, len, width) in plan_sections(&program.ops, codes.len()) {
        let mut w = BitWriter::default();
        for &c in &codes[start..start + len] {
            // The gate proved every weight code below its book's length.
            debug_assert!(u32::from(c) >> width == 0, "code {c} over {width} bits");
            w.put(c, width);
        }
        out.extend(w.finish());
    }
    let payload_len = (out.len() - OUTER_HEADER_LEN) as u64;
    out[8..OUTER_HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = fnv1a64(&out[OUTER_HEADER_LEN..]);
    write_u64(&mut out, checksum);
    out
}

/// Plans the code sections as `(start, len, width_bits)` triples
/// tiling `0..total` in ascending order, from the ops alone.
///
/// Each neuron op's weight-code span is one section, packed at
/// `ceil(log2(book len))` bits over the op's largest weight book (the
/// flattener lays codes out in op order, so for compiler-built models
/// these tile the pool exactly). A span that is empty, leaves the pool
/// or starts inside an earlier one claims nothing, and code ranges no
/// op claims — only hand-built programs have them — pack at
/// [`FILLER_BITS`].
fn plan_sections(ops: &[Op], total: usize) -> Vec<(usize, usize, u32)> {
    let mut claims: Vec<(Span, u32)> = ops
        .iter()
        .filter_map(Op::neuron)
        .filter(|n| {
            let s = n.weight_codes;
            s.len > 0 && s.start < total && s.len <= total - s.start
        })
        .map(|n| {
            let rows = n.weight_books.iter().fold(0, |m, b| m.max(b.len));
            (n.weight_codes, bits_for(rows))
        })
        .collect();
    claims.sort_by_key(|(s, _)| s.start);

    let mut sections = Vec::new();
    let mut cursor = 0usize;
    for (span, width) in claims {
        if span.start < cursor {
            continue; // overlap: the earlier section already covers it
        }
        if span.start > cursor {
            sections.push((cursor, span.start - cursor, FILLER_BITS));
        }
        sections.push((span.start, span.len, width));
        cursor = span.start + span.len;
    }
    if cursor < total {
        sections.push((cursor, total - cursor, FILLER_BITS));
    }
    sections
}

/// Decodes an artifact into the program it carries, which no analyzer
/// has seen yet: `CompiledModel::from_bytes` gates it before deriving
/// anything, and `lint_bytes` analyzes it. The program keeps no trace
/// of the packing.
///
/// Once the checksum holds, one pass reads the header and ops, then the
/// float section and each planned code section in order; every read is
/// checked against the bytes that remain before anything is sized by
/// it. Non-zero alignment padding or pad bits, or a byte after the last
/// section, is an [`ArtifactError::PackedLayout`]: one byte string per
/// model.
pub(crate) fn decode(bytes: &[u8]) -> Result<Program<'static>, ArtifactError> {
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

    let mut p = Reader::new(payload);
    let input_features = p.extent()?;
    let output_features = p.extent()?;
    let nfloats = p.extent()?;
    let ncodes = p.extent()?;
    let nops = p.extent()?;
    let virtual_encoder = read_span(&mut p)?;
    // Each op costs at least its 1-byte tag.
    p.ensure(nops)?;
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        ops.push(read_op(&mut p)?);
    }
    let pad = p.take(p.pos().next_multiple_of(8) - p.pos())?;
    if pad.iter().any(|&b| b != 0) {
        return Err(ArtifactError::PackedLayout(
            "non-zero alignment padding after ops".into(),
        ));
    }
    let floats: Vec<f32> = p
        .take(nfloats * 4)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte lane")))
        .collect();

    // A code costs at least one bit of what remains.
    let mut codes = Vec::with_capacity(ncodes.min(p.remaining().saturating_mul(8)));
    for (start, len, width) in plan_sections(&ops, ncodes) {
        let stream = p.take(packed_byte_len(len, width))?;
        let tail_bits = (len * width as usize) % 8;
        if tail_bits != 0 && stream[stream.len() - 1] >> tail_bits != 0 {
            return Err(ArtifactError::PackedLayout(format!(
                "the section of codes {start}.. has non-zero pad bits"
            )));
        }
        let mask = (1u32 << width) - 1;
        codes.extend((0..len).map(|i| read_bits(stream, i * width as usize, mask)));
    }
    if p.remaining() != 0 {
        return Err(ArtifactError::PackedLayout(format!(
            "{} bytes after the last code section",
            p.remaining()
        )));
    }

    Ok(Program {
        input_features,
        output_features,
        virtual_encoder,
        ops,
        floats: Cow::Owned(floats),
        codes: Cow::Owned(codes),
    })
}

fn malformed(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed(msg.into())
}

fn too_large() -> ArtifactError {
    ArtifactError::Malformed("size overflow".into())
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

fn write_act(out: &mut Vec<u8>, act: &Act) {
    match act {
        Act::Identity => out.push(0),
        Act::Relu => out.push(1),
        Act::Lookup { inputs, outputs } => {
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
            weight_book,
            act,
            encoder,
        } => {
            out.push(0);
            write_u64(out, *inputs as u64);
            write_u64(out, *outputs as u64);
            write_span(out, *weight_codes);
            write_span(out, *bias);
            write_span(out, *weight_book);
            write_act(out, act);
            write_opt_span(out, encoder);
        }
        Op::Conv {
            geom,
            out_channels,
            weight_codes,
            bias,
            weight_books,
            zero_code,
            act,
            encoder,
        } => {
            out.push(1);
            write_geom(out, geom);
            write_u64(out, *out_channels as u64);
            write_span(out, *weight_codes);
            write_span(out, *bias);
            write_u64(out, weight_books.len() as u64);
            for book in weight_books {
                write_span(out, *book);
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

    /// A length/count/dimension field, capped at the analyzer's
    /// [`MAX_EXTENT`] before anything is sized by it, so later arithmetic
    /// on it cannot overflow.
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

fn read_act(r: &mut Reader<'_>) -> Result<Act, ArtifactError> {
    match r.u8()? {
        0 => Ok(Act::Identity),
        1 => Ok(Act::Relu),
        2 => Ok(Act::Lookup {
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
            weight_book: read_span(r)?,
            act: read_act(r)?,
            encoder: read_opt_span(r)?,
        }),
        1 => {
            let geom = read_geom(r)?;
            let out_channels = r.extent()?;
            let weight_codes = read_span(r)?;
            let bias = read_span(r)?;
            let nbooks = r.extent()?;
            // Each book costs one span on the wire.
            r.ensure(nbooks.checked_mul(SPAN_LEN).ok_or_else(too_large)?)?;
            let mut weight_books = Vec::with_capacity(nbooks);
            for _ in 0..nbooks {
                weight_books.push(read_span(r)?);
            }
            Ok(Op::Conv {
                geom,
                out_channels,
                weight_codes,
                bias,
                weight_books,
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

    /// The wire bytes of a model hand-built from literals (no k-means,
    /// no libm, so platform-independent), pinned: a change that is meant
    /// to leave the format as it is may not show on the wire.
    #[test]
    fn deep_model_bytes_are_pinned() {
        let bytes = crate::CompiledModel::deep_for_tests(3).to_bytes();
        assert_eq!(bytes.len(), 362);
        assert_eq!(fnv1a64(&bytes), 0xcaa6_a07d_9d6b_238d);
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
            decode(b"nope"),
            Err(ArtifactError::BadMagic | ArtifactError::Truncated { .. })
        ));
        assert!(matches!(
            decode(b"XXXXXXXXXXXXXXXXXXXX"),
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
            decode(&bytes),
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

    /// The writer's alignment contract: the float section starts at a
    /// multiple of 8 in the payload, and the payload itself starts 8
    /// bytes into the outer header — so the float bytes are 8-aligned
    /// in the file.
    #[test]
    fn float_section_is_aligned() {
        let program = crate::CompiledModel::deep_program_for_tests(1);
        let bytes = encode(&program);
        let section: Vec<u8> = program
            .floats
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .collect();
        let float_off = bytes
            .windows(section.len())
            .position(|w| w == section)
            .expect("the float section");
        assert_eq!(float_off % 8, 0);
        assert_eq!(OUTER_HEADER_LEN % 8, 0);
    }
}
