//! Artifact round-trip, equivalence and corruption properties.
//!
//! The load-time contract under test: any byte buffer — truncated,
//! bit-flipped, or adversarially structured with a valid checksum — either
//! decodes to a model whose `infer` matches the source network bit for
//! bit, or fails with a typed [`ServeError`]. It never panics.

mod common;

use common::{cnn_model, mlp_model, repair_checksum, residual_model};
use rapidnn_analyze::{inject_dead_rows, DiagCode, Op, Program};
use rapidnn_core::ReinterpretedNetwork;
use rapidnn_prop::{check, usize_in, vec_f32};
use rapidnn_serve::{ArtifactError, CompiledModel, ServeError, FORMAT_VERSION, MAGIC};
use rapidnn_tensor::SeededRng;

fn assert_bit_identical(
    model: &ReinterpretedNetwork,
    compiled: &CompiledModel,
    rng: &mut SeededRng,
) {
    for _ in 0..16 {
        let sample = vec_f32(rng, model.input_features(), -3.0, 3.0);
        let expected = model.infer_sample(&sample).unwrap();
        let actual = compiled.infer(&sample).unwrap();
        assert_eq!(actual, expected, "compiled inference diverged");
    }
}

#[test]
fn compiled_mlp_matches_source_bit_for_bit() {
    check(8, |rng| {
        let model = mlp_model(rng);
        let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
        assert_bit_identical(&model, &compiled, rng);
    });
}

#[test]
fn compiled_cnn_matches_source_bit_for_bit() {
    let mut rng = SeededRng::new(101);
    let model = cnn_model(&mut rng);
    let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
    assert_bit_identical(&model, &compiled, &mut rng);
}

#[test]
fn compiled_residual_matches_source_bit_for_bit() {
    let mut rng = SeededRng::new(102);
    let model = residual_model(&mut rng);
    let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
    assert_bit_identical(&model, &compiled, &mut rng);
}

#[test]
fn batch_inference_matches_per_sample() {
    let mut rng = SeededRng::new(103);
    let model = mlp_model(&mut rng);
    let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
    let flat = vec_f32(&mut rng, 5 * compiled.input_features(), -2.0, 2.0);
    let rows = compiled.infer_batch(&flat).unwrap();
    assert_eq!(rows.len(), 5);
    for (i, row) in rows.iter().enumerate() {
        let sample = &flat[i * compiled.input_features()..(i + 1) * compiled.input_features()];
        assert_eq!(row, &compiled.infer(sample).unwrap());
    }
    assert!(compiled.infer_batch(&flat[1..]).is_err());
}

#[test]
fn round_trip_preserves_every_topology() {
    let mut rng = SeededRng::new(104);
    for model in [
        mlp_model(&mut rng),
        cnn_model(&mut rng),
        residual_model(&mut rng),
    ] {
        let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
        let bytes = compiled.to_bytes();
        let restored = CompiledModel::from_bytes(&bytes).unwrap();
        assert_eq!(restored, compiled);
        assert_bit_identical(&model, &restored, &mut rng);
    }
}

#[test]
fn save_and_load_round_trip_through_disk() {
    let mut rng = SeededRng::new(105);
    let model = mlp_model(&mut rng);
    let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
    let path = std::env::temp_dir().join(format!("rapidnn-artifact-{}.rnna", std::process::id()));
    compiled.save(&path).unwrap();
    let restored = CompiledModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored, compiled);
}

#[test]
fn every_truncation_is_a_typed_error() {
    let mut rng = SeededRng::new(106);
    let bytes = CompiledModel::from_reinterpreted(&mlp_model(&mut rng))
        .unwrap()
        .to_bytes();
    // Every strict prefix must fail without panicking.
    for len in 0..bytes.len() {
        match CompiledModel::from_bytes(&bytes[..len]) {
            Err(ServeError::Artifact(
                ArtifactError::Truncated { .. }
                | ArtifactError::BadMagic
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Malformed(_),
            )) => {}
            Err(other) => panic!("unexpected error at prefix {len}: {other}"),
            Ok(_) => panic!("prefix {len} of {} decoded successfully", bytes.len()),
        }
    }
}

#[test]
fn bit_flips_are_always_detected() {
    let mut rng = SeededRng::new(107);
    let model = mlp_model(&mut rng);
    let compiled = CompiledModel::from_reinterpreted(&model).unwrap();
    let bytes = compiled.to_bytes();
    check(rapidnn_prop::DEFAULT_CASES, |rng| {
        let mut corrupt = bytes.clone();
        let pos = usize_in(rng, 0, corrupt.len());
        let bit = usize_in(rng, 0, 8);
        corrupt[pos] ^= 1 << bit;
        // Any single-bit flip hits the magic, version, length, payload
        // (checksummed) or the checksum itself — all typed failures.
        assert!(CompiledModel::from_bytes(&corrupt).is_err());
    });
}

#[test]
fn adversarial_payloads_with_valid_checksums_never_panic() {
    // Random garbage framed as a well-formed artifact (correct magic,
    // version, length and checksum) must be rejected by structural
    // validation, not by a panic.
    check(128, |rng| {
        let payload_len = usize_in(rng, 0, 256);
        let payload: Vec<u8> = (0..payload_len)
            .map(|_| usize_in(rng, 0, 256) as u8)
            .collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv(&payload).to_le_bytes());
        assert!(CompiledModel::from_bytes(&bytes).is_err());
    });
}

#[test]
fn bad_magic_and_future_version_are_typed() {
    assert!(matches!(
        CompiledModel::from_bytes(b"LAYRxxxxxxxxxxxxxxxxxxxx"),
        Err(ServeError::Artifact(ArtifactError::BadMagic))
    ));
    // The retired v1 and v2 are as unreadable as a version from the
    // future.
    for version in [1, 2, FORMAT_VERSION + 1] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&fnv(&[]).to_le_bytes());
        assert!(matches!(
            CompiledModel::from_bytes(&bytes),
            Err(ServeError::Artifact(ArtifactError::UnsupportedVersion { found, supported }))
                if found == version && supported == FORMAT_VERSION
        ));
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A model padded with product-table rows no weight code references
/// (9 per table: 17 rows widen the v2 code width from 3 to 5 bits) is
/// a strictly larger artifact that reloads, quantizes and infers bit
/// for bit like its unpadded source on both kernel paths.
#[test]
fn dead_padded_model_serves_its_source_bits() {
    let mut rng = SeededRng::new(515);
    let net = mlp_model(&mut rng);
    let padded = inject_dead_rows(&Program::from_reinterpreted(&net), 9);
    let model = CompiledModel::from_program(&padded).unwrap();
    let base = CompiledModel::from_reinterpreted(&net).unwrap();
    let bytes = model.to_bytes();
    assert!(bytes.len() > base.to_bytes().len());

    // The integer kernels are a separate path, so the int16 side gets
    // the quantized source as its oracle.
    let reloaded = CompiledModel::from_bytes(&bytes).unwrap();
    let mut reloaded_q = reloaded.clone();
    reloaded_q.quantize().unwrap();
    let mut base_q = base.clone();
    base_q.quantize().unwrap();
    for _ in 0..16 {
        let sample = vec_f32(&mut rng, base.input_features(), -2.0, 2.0);
        let expected = bits(&base.infer(&sample).unwrap());
        assert_eq!(expected, bits(&model.infer(&sample).unwrap()));
        assert_eq!(expected, bits(&reloaded.infer(&sample).unwrap()));
        assert_eq!(
            bits(&base_q.infer(&sample).unwrap()),
            bits(&reloaded_q.infer(&sample).unwrap()),
            "int16 path diverged on the padded model"
        );
    }
}

/// The construction gate: a program the analyzer rejects never becomes
/// a model, whichever constructor it arrives through.
#[test]
fn invalid_model_is_rejected_by_every_constructor() {
    let mut rng = SeededRng::new(99);
    let net = mlp_model(&mut rng);
    let mut program = Program::from_reinterpreted(&net);
    // Poison a referenced weight-book entry, so its products are NaN:
    // structure stays valid, analysis fails.
    let offset = match &program.ops[0] {
        Op::Dense { weight_book, .. } => weight_book.start,
        _ => unreachable!("mlp starts with a dense op"),
    };
    let mut bytes = CompiledModel::from_program(&program).unwrap().to_bytes();
    program.floats.to_mut()[offset] = f32::NAN;

    // The same poison in the serialized float section (its payload
    // offset is the header's seventh u64; the payload starts at 16).
    let float_off = u64::from_le_bytes(bytes[16 + 48..16 + 56].try_into().unwrap()) as usize;
    let at = 16 + float_off + offset * 4;
    bytes[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    repair_checksum(&mut bytes);

    for refused in [
        CompiledModel::from_program(&program),
        CompiledModel::from_bytes(&bytes),
    ] {
        match refused {
            Err(ServeError::Rejected(report)) => {
                assert!(report.find(DiagCode::NonFinite).is_some(), "{report}");
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }
}

/// Local FNV-1a 64 copy so tests can frame adversarial payloads.
fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}
