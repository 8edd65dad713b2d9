//! Soundness of the static analyzer against artifact corruption.
//!
//! The load-time contract has exactly two legal outcomes for any byte
//! string: either the linter flags it with an `error` diagnostic and
//! the loader refuses it, or it loads and infers without panicking. The
//! property test below throws hundreds of random single-field
//! corruptions at serialized artifacts of every op-program topology and
//! checks there is no third outcome; the layout tests hold the decoder
//! to refusing every section layout the encoder would not write. The
//! analyzer's liveness notes read nothing dead on what the composer
//! emits.

mod common;

use common::repair_checksum;

use rapidnn_analyze::{Act, DiagCode, Op, Program, Severity, Span};
use rapidnn_prop::{any_u64, check, usize_in, SeededRng};
use rapidnn_serve::{lint_bytes, ArtifactError, CompiledModel, ServeError};
use std::borrow::Cow;

/// Applies one random single-field corruption. Three kinds: a byte or
/// an aligned u64 field inside the payload with the checksum repaired
/// (structural damage the analyzer must judge), or a raw byte anywhere
/// without repair (framing damage the decoder must catch).
fn mutate(rng: &mut SeededRng, bytes: &mut [u8]) {
    let payload = 16..bytes.len() - 8;
    match usize_in(rng, 0, 3) {
        0 => {
            let at = usize_in(rng, payload.start, payload.end);
            bytes[at] = any_u64(rng) as u8;
            repair_checksum(bytes);
        }
        1 if payload.len() >= 8 => {
            let at = usize_in(rng, payload.start, payload.end - 7);
            let v = any_u64(rng);
            // Small values hit the interesting range of counts, spans
            // and geometry fields; huge ones test the extent caps.
            let v = if v.is_multiple_of(2) { v % 4096 } else { v };
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            repair_checksum(bytes);
        }
        _ => {
            let at = usize_in(rng, 0, bytes.len());
            bytes[at] ^= 1 << usize_in(rng, 0, 8);
        }
    }
}

/// The two-outcome contract on one byte string.
fn assert_flagged_or_harmless(bytes: &[u8]) {
    let report = lint_bytes(bytes);
    let loaded = CompiledModel::from_bytes(bytes);

    // The linter and the loader are one gate: flagged iff refused.
    assert_eq!(
        report.has_errors(),
        loaded.is_err(),
        "lint and load disagree ({:?}):\n{report}",
        loaded.as_ref().err()
    );
    let Ok(model) = loaded else { return };

    // Accepted mutants must infer without panicking: no third outcome.
    let sample = vec![0.25f32; model.input_features()];
    let run = std::panic::catch_unwind(|| model.infer(&sample).map(|_| ()));
    assert!(run.is_ok(), "analyzer-clean mutant panicked in infer");

    // An accepted mutant reloads from its own bytes and infers
    // identically, without panicking.
    let run = std::panic::catch_unwind(|| {
        let reloaded = CompiledModel::from_bytes(&model.to_bytes())?;
        let expect: Vec<u32> = model.infer(&sample)?.iter().map(|x| x.to_bits()).collect();
        let got: Vec<u32> = reloaded
            .infer(&sample)?
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(expect, got, "reloaded mutant diverged from its source");
        Ok::<(), ServeError>(())
    });
    assert!(
        run.expect("reloading an analyzer-clean mutant panicked")
            .is_ok(),
        "analyzer-clean mutant failed to reload"
    );
}

#[test]
fn corrupted_artifacts_are_flagged_or_harmless() {
    let mut rng = SeededRng::new(2024);
    let artifacts: Vec<Vec<u8>> = [
        common::mlp_model(&mut rng),
        common::cnn_model(&mut rng),
        common::residual_model(&mut rng),
    ]
    .iter()
    .map(|net| {
        CompiledModel::from_reinterpreted(net)
            .expect("compile")
            .to_bytes()
    })
    .collect();

    // 3 topologies x 200 seeds = 600 corrupted mutants.
    check(200, |rng| {
        for clean in &artifacts {
            let mut bytes = clean.clone();
            mutate(rng, &mut bytes);
            assert_flagged_or_harmless(&bytes);
        }
    });
}

/// No composed model carries dead data. Every weight centroid owns the
/// weights it was fitted to, and the analyzer's hull over every code
/// combination has so far always covered the float calibration range
/// each codebook and LUT was fitted to — an observation, not a theorem,
/// which this test keeps checked.
#[test]
fn composed_models_carry_no_dead_data() {
    for seed in [1, 2, 3, 42, 43] {
        let mut rng = SeededRng::new(seed);
        for (name, net) in [
            ("mlp", common::mlp_model(&mut rng)),
            ("cnn", common::cnn_model(&mut rng)),
            ("residual", common::residual_model(&mut rng)),
        ] {
            let model = CompiledModel::from_reinterpreted(&net).expect("compile");
            let report = model.analyze();
            assert_eq!(
                report.liveness().total(),
                0,
                "{name}, seed {seed}:\n{report}"
            );
        }
    }
}

#[test]
fn an_output_width_lie_is_refused_at_load() {
    let mut rng = SeededRng::new(100);
    let model = CompiledModel::from_reinterpreted(&common::mlp_model(&mut rng)).expect("compile");
    let mut bytes = model.to_bytes();
    // Lie about the output width (second payload u64): decodes fine,
    // analyzer errors with a shape mismatch.
    bytes[24..32].copy_from_slice(&9999u64.to_le_bytes());
    repair_checksum(&mut bytes);
    match CompiledModel::from_bytes(&bytes) {
        Err(ServeError::Rejected(report)) => assert!(report.has_errors()),
        other => panic!("expected rejection, got {other:?}"),
    }
}

/// Decode unpacks code sections into memory, so the counts it reads
/// must be backed by bytes before they size anything: a few hundred
/// bytes claiming 2^31 codes — in the header, or in a 1-bit section
/// whose stream holds sixteen — are a typed framing error, not an
/// allocation, and go through the corpus check like any other mutant.
#[test]
fn decode_cannot_be_made_to_allocate_by_a_lie() {
    let floats = vec![-1.0f32, -0.25, 0.5, 1.0, 0.5, -1.0, 0.125];
    let program = Program {
        input_features: 16,
        output_features: 1,
        virtual_encoder: Span { start: 0, len: 4 },
        ops: vec![Op::Dense {
            inputs: 16,
            outputs: 1,
            weight_codes: Span { start: 0, len: 16 },
            bias: Span { start: 6, len: 1 },
            weight_book: Span { start: 4, len: 2 },
            act: Act::Identity,
            encoder: None,
        }],
        floats: Cow::Owned(floats),
        codes: Cow::Owned((0..16).map(|i| i % 2).collect()),
    };
    let clean = CompiledModel::from_program(&program)
        .expect("compile")
        .to_bytes();
    assert!(clean.len() <= 1024, "{} bytes", clean.len());
    assert!(CompiledModel::from_bytes(&clean).is_ok());

    let huge = (1u64 << 31).to_le_bytes();
    // The header's code count is the fourth payload u64; the one
    // section's length is the second u64 of the 32-byte directory
    // entry that ends the payload.
    let header_count = 16 + 3 * 8;
    let section_len = clean.len() - 8 - 32 + 8;
    for at in [header_count, section_len] {
        let mut bytes = clean.clone();
        assert_eq!(bytes[at..at + 8], 16u64.to_le_bytes(), "field at {at}");
        bytes[at..at + 8].copy_from_slice(&huge);
        repair_checksum(&mut bytes);
        assert!(
            matches!(
                CompiledModel::from_bytes(&bytes),
                Err(ServeError::Artifact(ArtifactError::PackedLayout(_)))
            ),
            "lie at byte {at}"
        );
        assert_flagged_or_harmless(&bytes);
    }
}

/// Codes of [`five_code_artifact`]'s one dense op: 5 codes into a
/// 2-entry weight book, one 1-bit section of 5 bits, so its byte has 3
/// pad bits.
const FIVE_CODES: [u16; 5] = [0, 1, 1, 0, 1];

fn five_code_artifact() -> Vec<u8> {
    let floats = vec![-1.0f32, -0.25, 0.5, 1.0, 0.5, -1.0, 0.125];
    let program = Program {
        input_features: 5,
        output_features: 1,
        virtual_encoder: Span { start: 0, len: 4 },
        ops: vec![Op::Dense {
            inputs: 5,
            outputs: 1,
            weight_codes: Span { start: 0, len: 5 },
            bias: Span { start: 6, len: 1 },
            weight_book: Span { start: 4, len: 2 },
            act: Act::Identity,
            encoder: None,
        }],
        floats: Cow::Owned(floats),
        codes: Cow::Owned(FIVE_CODES.to_vec()),
    };
    CompiledModel::from_program(&program)
        .expect("compile")
        .to_bytes()
}

/// An unsorted codebook has no search boundaries for the runtime to
/// tabulate its encode over: lint and load both refuse it (RNA0018).
#[test]
fn an_unsorted_codebook_is_refused_at_load() {
    let mut bytes = five_code_artifact();
    let book: Vec<u8> = [-1.0f32, -0.25, 0.5, 1.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = bytes.windows(16).position(|w| w == book).expect("the book");
    // The middle entries swap places: [-1, 0.5, -0.25, 1].
    bytes[at + 4..at + 12].rotate_left(4);
    repair_checksum(&mut bytes);
    let report = lint_bytes(&bytes);
    let found = report.find(DiagCode::UnsortedCodebook).map(|d| d.severity);
    assert_eq!(found, Some(Severity::Error), "{report}");
    assert_flagged_or_harmless(&bytes);
}

/// `clean` with its packed region and directory rewritten: `codes`
/// split into `sections` of `(code_len, width_bits)`, each packed
/// LSB-first, with bit 7 of each stream's last byte set when `dirty`.
/// Framing stays consistent (offsets, lengths, checksum), so only the
/// layout itself is on trial.
fn repack(clean: &[u8], codes: &[u16], sections: &[(usize, u32)], dirty: bool) -> Vec<u8> {
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("u64"));
    let payload = &clean[16..clean.len() - 8];
    let packed_off = u64_at(payload, 56) as usize;
    let (mut streams, mut dir, mut start) = (Vec::new(), Vec::new(), 0);
    for &(len, width) in sections {
        let width = width as usize;
        let mut stream = vec![0u8; (len * width).div_ceil(8)];
        for (i, &code) in codes[start..start + len].iter().enumerate() {
            for b in (0..width).filter(|b| code >> b & 1 == 1) {
                stream[(i * width + b) / 8] |= 1 << ((i * width + b) % 8);
            }
        }
        if dirty {
            *stream.last_mut().expect("non-empty") |= 0x80;
        }
        for v in [start, len, packed_off + streams.len(), width] {
            dir.extend_from_slice(&(v as u64).to_le_bytes());
        }
        streams.extend(stream);
        start += len;
    }
    let mut body = payload[..packed_off].to_vec();
    body[40..48].copy_from_slice(&(sections.len() as u64).to_le_bytes());
    body[64..72].copy_from_slice(&((packed_off + streams.len()) as u64).to_le_bytes());
    body.extend(streams);
    body.extend(dir);
    let mut bytes = clean[..8].to_vec();
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend(body);
    bytes.extend_from_slice(&[0; 8]);
    repair_checksum(&mut bytes);
    bytes
}

/// A layout refusal belongs to the decoder: a typed `PackedLayout`
/// error from the loader, errors from the linter, and no third outcome.
fn assert_layout_refused(bytes: &[u8]) {
    let loaded = CompiledModel::from_bytes(bytes);
    assert!(
        matches!(
            loaded,
            Err(ServeError::Artifact(ArtifactError::PackedLayout(_)))
        ),
        "{loaded:?}"
    );
    assert!(lint_bytes(bytes).has_errors());
    assert_flagged_or_harmless(bytes);
}

#[test]
fn repack_reproduces_the_encoder() {
    let clean = five_code_artifact();
    assert_eq!(repack(&clean, &FIVE_CODES, &[(5, 1)], false), clean);
}

#[test]
fn a_section_wider_than_its_book_is_refused() {
    // Two rows need one bit; two bits still hold every code.
    let clean = five_code_artifact();
    assert_layout_refused(&repack(&clean, &FIVE_CODES, &[(5, 2)], false));
}

#[test]
fn a_weight_code_span_split_across_sections_is_refused() {
    let clean = five_code_artifact();
    assert_layout_refused(&repack(&clean, &FIVE_CODES, &[(2, 1), (3, 1)], false));
}

#[test]
fn non_zero_trailing_pad_bits_are_refused() {
    let clean = five_code_artifact();
    assert_layout_refused(&repack(&clean, &FIVE_CODES, &[(5, 1)], true));
}
