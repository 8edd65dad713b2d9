//! Soundness of the static analyzer against artifact corruption.
//!
//! The load-time contract has exactly two legal outcomes for any byte
//! string: either the linter flags it with an `error` diagnostic and
//! the loader refuses it, or it loads and infers without panicking. The
//! property test below throws hundreds of random single-field
//! corruptions at serialized artifacts of every op-program topology and
//! checks there is no third outcome, and that every mutant which loads
//! is the one byte string its model encodes to; the layout tests hold
//! the decoder to refusing padding, pad bits and trailing bytes. The
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
    // One program, one byte string: what loads is what it encodes to.
    assert!(
        model.to_bytes() == bytes,
        "a loaded mutant re-encodes differently"
    );

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

/// Decode unpacks the float and code sections into memory, so the
/// counts it reads must be backed by bytes before they size anything:
/// a few hundred bytes claiming 2^31 floats or 2^31 codes are a typed
/// truncation, not an allocation, and go through the corpus check like
/// any other mutant.
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
    // The header's float and code counts are the third and fourth
    // payload u64s.
    for (at, count) in [(16 + 2 * 8, 7u64), (16 + 3 * 8, 16)] {
        let mut bytes = clean.clone();
        assert_eq!(bytes[at..at + 8], count.to_le_bytes(), "field at {at}");
        bytes[at..at + 8].copy_from_slice(&huge);
        repair_checksum(&mut bytes);
        assert!(
            matches!(
                CompiledModel::from_bytes(&bytes),
                Err(ServeError::Artifact(ArtifactError::Truncated { .. }))
            ),
            "lie at byte {at}"
        );
        assert_flagged_or_harmless(&bytes);
    }
}

/// One dense op of 5 codes into a 2-entry weight book: one 1-bit
/// section of 5 bits, so its byte has 3 pad bits.
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
        codes: Cow::Owned(vec![0, 1, 1, 0, 1]),
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
fn non_zero_trailing_pad_bits_are_refused() {
    // The one section is the payload's last byte; its top 3 bits pad.
    let mut bytes = five_code_artifact();
    let last = bytes.len() - 9;
    bytes[last] |= 0x80;
    repair_checksum(&mut bytes);
    assert_layout_refused(&bytes);
}

#[test]
fn non_zero_alignment_padding_is_refused() {
    let mut bytes = five_code_artifact();
    let floats: Vec<u8> = [-1.0f32, -0.25, 0.5, 1.0, 0.5, -1.0, 0.125]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = bytes
        .windows(28)
        .position(|w| w == floats)
        .expect("the floats");
    // The ops end 3 bytes short of the 8-aligned float section.
    assert_eq!(bytes[at - 1], 0);
    bytes[at - 1] = 1;
    repair_checksum(&mut bytes);
    assert_layout_refused(&bytes);
}

#[test]
fn a_byte_after_the_last_section_is_refused() {
    let mut bytes = five_code_artifact();
    let end = bytes.len() - 8;
    bytes.insert(end, 0);
    let payload_len = (end - 16 + 1) as u64;
    bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());
    repair_checksum(&mut bytes);
    assert_layout_refused(&bytes);
}
