//! Certified-optimizer property gate: `CompiledModel::optimize` must
//! be a *footprint* change only. For every op-program topology the
//! compiler emits (dense, conv + pools, residual), across the artifact
//! round-trip, kernel paths (f32, analyzer-licensed int16), and engine
//! stage counts, the optimized model answers every request bit-for-bit
//! identically to its unoptimized source — while a model with injected
//! dead rows provably shrinks and an invalid program never becomes a
//! model to rewrite.

mod common;

use common::{cnn_model, mlp_model, repair_checksum, residual_model};
use rapidnn_analyze::{DiagCode, Pass};
use rapidnn_prop::{check, usize_in, vec_f32};
use rapidnn_serve::{CompiledModel, Engine, EngineConfig, ServeError};
use rapidnn_tensor::SeededRng;
use std::time::Duration;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every topology as (label, source model, optimized model) with the
/// certificate already translation-validated inside `optimize`.
fn optimized_pairs() -> Vec<(&'static str, CompiledModel, CompiledModel)> {
    let mut rng = SeededRng::new(20108);
    [
        ("mlp", mlp_model(&mut rng)),
        ("cnn", cnn_model(&mut rng)),
        ("residual", residual_model(&mut rng)),
    ]
    .into_iter()
    .map(|(name, net)| {
        let base = CompiledModel::from_reinterpreted(&net).unwrap();
        let (opt, _cert) = base.optimize().unwrap();
        (name, base, opt)
    })
    .collect()
}

/// The bit-identity gate: optimized artifacts reproduce their source
/// bit for bit across the artifact round-trip, f32/int16 kernel paths,
/// and per-sample vs batch entry points.
#[test]
fn optimized_models_infer_bit_identically() {
    let pairs = optimized_pairs();
    // (label suffix, quantized?)
    let variants = [("f32", false), ("int16", true)];
    check(8, |rng| {
        for (name, base, opt) in &pairs {
            for (suffix, quantized) in variants {
                let realize = |m: &CompiledModel| {
                    let mut m = CompiledModel::from_bytes(&m.to_bytes()).unwrap();
                    if quantized {
                        m.quantize().unwrap();
                    }
                    m
                };
                let (base, opt) = (realize(base), realize(opt));
                let sample = vec_f32(rng, base.input_features(), -2.0, 2.0);
                assert_eq!(
                    bits(&base.infer(&sample).unwrap()),
                    bits(&opt.infer(&sample).unwrap()),
                    "{name}/{suffix}: per-sample inference diverged"
                );
                let rows = usize_in(rng, 2, 4);
                let block = vec_f32(rng, rows * base.input_features(), -2.0, 2.0);
                assert_eq!(
                    base.infer_batch(&block).unwrap(),
                    opt.infer_batch(&block).unwrap(),
                    "{name}/{suffix}: batch inference diverged"
                );
            }
        }
    });
}

/// Optimized models still serve through every execution shape: the
/// classic worker pool and sharded pipelines answer with the *source*
/// model's per-sample bits.
#[test]
fn optimized_models_shard_bit_identically() {
    let pairs = optimized_pairs();
    check(3, |rng| {
        for (name, base, opt) in &pairs {
            let features = opt.input_features();
            for stages in [0usize, 2, 3] {
                let engine = Engine::start(
                    opt.clone(),
                    EngineConfig {
                        workers: 2,
                        stages,
                        max_batch_size: 4,
                        max_wait: Duration::from_micros(200),
                        ..EngineConfig::default()
                    },
                );
                let flat = vec_f32(rng, 3 * features, -2.0, 2.0);
                let got = engine.submit_batch(flat.clone()).unwrap().wait().unwrap();
                let mut oracle = Vec::new();
                for r in 0..3 {
                    oracle.extend(base.infer(&flat[r * features..(r + 1) * features]).unwrap());
                }
                assert_eq!(
                    bits(&got),
                    bits(&oracle),
                    "{name} stages={stages}: sharded optimized outputs diverged"
                );
                engine.shutdown();
            }
        }
    });
}

/// A model with injected dead rows provably shrinks: the optimizer
/// removes exactly the injected rows, the v2 artifact gets strictly
/// smaller (the packed code width narrows back down), and the shrunken
/// model still loads, quantizes, and infers identically.
#[test]
fn injected_dead_rows_provably_shrink_v2() {
    let mut rng = SeededRng::new(515);
    let net = mlp_model(&mut rng);
    let program = rapidnn_analyze::Program::from_reinterpreted(&net);
    // 8-row tables + 9 dead rows = 17 rows: v2 code width grows from 3
    // to 5 bits, so compaction must win it back.
    let dense_tables = 2;
    let padded = rapidnn_analyze::inject_dead_rows(&program, 9);
    let model = CompiledModel::from_program(&padded).unwrap();

    let (opt, cert) = model.optimize().unwrap();
    assert_eq!(cert.removed(Pass::RowCompaction), 9 * dense_tables);

    let before = model.to_bytes();
    let after = opt.to_bytes();
    assert!(
        after.len() < before.len(),
        "optimized v2 artifact must shrink ({} -> {} bytes)",
        before.len(),
        after.len()
    );

    // The shrunken artifact still loads and quantizes; the f32
    // path reproduces the unpadded source bit for bit, and the int16
    // path reproduces the *quantized* source (integer kernels are a
    // separate path, so they get their own oracle).
    let reloaded = CompiledModel::from_bytes(&after).unwrap();
    let mut reloaded_q = reloaded.clone();
    reloaded_q.quantize().unwrap();
    let base = CompiledModel::from_reinterpreted(&net).unwrap();
    let mut base_q = base.clone();
    base_q.quantize().unwrap();
    for _ in 0..16 {
        let sample = vec_f32(&mut rng, base.input_features(), -2.0, 2.0);
        let expected = bits(&base.infer(&sample).unwrap());
        assert_eq!(expected, bits(&model.infer(&sample).unwrap()));
        assert_eq!(expected, bits(&opt.infer(&sample).unwrap()));
        assert_eq!(expected, bits(&reloaded.infer(&sample).unwrap()));
        assert_eq!(
            bits(&base_q.infer(&sample).unwrap()),
            bits(&reloaded_q.infer(&sample).unwrap()),
            "int16 path diverged after optimization"
        );
    }
}

/// The construction gate: a program the analyzer rejects never becomes
/// a model, whichever constructor it arrives through — so `optimize`
/// has nothing invalid to rewrite.
#[test]
fn invalid_model_is_rejected_not_rewritten() {
    let mut rng = SeededRng::new(99);
    let net = mlp_model(&mut rng);
    let mut program = rapidnn_analyze::Program::from_reinterpreted(&net);
    // Poison a reachable product-table entry: structure stays valid,
    // analysis fails.
    let offset = match &program.ops[0] {
        rapidnn_analyze::Op::Dense { table, .. } => table.offset,
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
