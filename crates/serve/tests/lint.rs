//! Soundness of the static analyzer against artifact corruption.
//!
//! The load-time contract has exactly two legal outcomes for any byte
//! string: either the linter flags it with an `error` diagnostic and
//! the loader refuses it, or it loads and infers without panicking. The
//! property test below throws hundreds of random single-field
//! corruptions at serialized artifacts of every op-program topology and
//! checks there is no third outcome.

mod common;

use common::repair_checksum;

use rapidnn_analyze::{Act, Op, Program, Span, TableRef};
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

    // The same two-outcome contract extends through the optimizer: an
    // accepted mutant optimizes (its certificate re-proven inside
    // `optimize`), and the result reloads and infers mutant-identically
    // without panicking — certificates over mutants never validate
    // incorrectly.
    let run = std::panic::catch_unwind(|| {
        let (opt, _cert) = model.optimize()?;
        let reloaded = CompiledModel::from_bytes(&opt.to_bytes())?;
        let expect: Vec<u32> = model.infer(&sample)?.iter().map(|x| x.to_bits()).collect();
        let got: Vec<u32> = reloaded
            .infer(&sample)?
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(expect, got, "optimized mutant diverged from its source");
        Ok::<(), ServeError>(())
    });
    assert!(
        run.expect("optimizing an analyzer-clean mutant panicked")
            .is_ok(),
        "analyzer-clean mutant failed to optimize + reload"
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
    let book = [-1.0f32, -0.25, 0.5, 1.0];
    let mut floats = book.to_vec();
    for w in [0.5f32, -1.0] {
        floats.extend(book.iter().map(|x| w * x));
    }
    floats.push(0.125);
    let program = Program {
        input_features: 16,
        output_features: 1,
        virtual_encoder: Span { start: 0, len: 4 },
        ops: vec![Op::Dense {
            inputs: 16,
            outputs: 1,
            weight_codes: Span { start: 0, len: 16 },
            bias: Span { start: 12, len: 1 },
            table: TableRef {
                offset: 4,
                weight_count: 2,
                input_count: 4,
            },
            act: Act::Identity,
            encoder: None,
        }],
        floats: Cow::Owned(floats),
        codes: Cow::Owned((0..16).map(|i| i % 2).collect()),
        packed: vec![],
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
