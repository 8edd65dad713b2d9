//! Sharded-serving equivalence gate: a pipelined engine must be an
//! *execution* change only. For every op-program topology the compiler
//! emits (dense, conv + pools, residual) — a model reloaded from its
//! artifact *is* the model it was written from, so that axis is one
//! equality — on both kernel paths (f32, analyzer-licensed int16), an
//! engine sharded into any stage count must answer every
//! request bit-for-bit identically to per-sample `infer` — the same
//! oracle the unsharded engine is held to — through both the
//! single-request and pre-batched submission paths.

mod common;

use common::{cnn_model, mlp_model, residual_model};
use rapidnn_prop::{check, usize_in, vec_f32};
use rapidnn_serve::{CompiledModel, Engine, EngineConfig, Ticket};
use rapidnn_tensor::SeededRng;
use std::time::Duration;

/// Every (topology × kernel path) variant under test, with a label for
/// failure messages. How a model was obtained is not an axis: equality
/// covers the pools, the lowering and, after `quantize()`, the integer
/// kernel state, so a reloaded model has nothing left to differ in.
fn model_variants() -> Vec<(String, CompiledModel)> {
    let mut rng = SeededRng::new(4242);
    let topologies = [
        (
            "mlp",
            CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap(),
        ),
        (
            "cnn",
            CompiledModel::from_reinterpreted(&cnn_model(&mut rng)).unwrap(),
        ),
        (
            "residual",
            CompiledModel::from_reinterpreted(&residual_model(&mut rng)).unwrap(),
        ),
    ];
    let mut variants = Vec::new();
    for (name, compiled) in topologies {
        let mut reloaded = CompiledModel::from_bytes(&compiled.to_bytes()).unwrap();
        assert_eq!(reloaded, compiled, "{name}");
        let mut int16 = compiled.clone();
        int16.quantize().unwrap();
        reloaded.quantize().unwrap();
        assert_eq!(reloaded, int16, "{name} quantized");
        variants.push((format!("{name}/f32"), compiled));
        variants.push((format!("{name}/int16"), int16));
    }
    variants
}

/// The gate itself: random request mixes (singles and pre-batched
/// blocks) through engines at stage counts 1–4 and several worker
/// counts all reproduce the per-sample oracle bit for bit. Stage
/// counts above a model's cut points clamp rather than fail, so every
/// configuration below serves.
#[test]
fn sharded_engine_matches_per_sample_inference_bit_for_bit() {
    let variants = model_variants();
    // (stages, workers): stages 0 = classic pool (worker count varies),
    // stages 2..=4 = pipeline (one thread per stage, workers ignored).
    let configs = [(0usize, 1usize), (0, 4), (2, 1), (3, 1), (4, 1)];
    check(4, |rng| {
        for (label, model) in &variants {
            let features = model.input_features();
            for &(stages, workers) in &configs {
                let engine = Engine::start(
                    model.clone(),
                    EngineConfig {
                        workers,
                        stages,
                        max_batch_size: 16,
                        max_wait: Duration::from_micros(200),
                        ..EngineConfig::default()
                    },
                );
                if stages >= 2 {
                    let stats = engine.pipeline_stats().expect("sharded engine has stages");
                    assert!(stats.stages.len() >= 2 && stats.stages.len() <= stages);
                    assert!(stats.stages.iter().all(|s| s.cost_units > 0));
                    assert_eq!(stats.stages[0].ops.start, 0);
                    assert_eq!(
                        stats.stages.last().unwrap().ops.end,
                        model.op_count(),
                        "{label}: stages must tile the program"
                    );
                }
                // A mix of single submissions and pre-batched blocks,
                // redeemed in order against the per-sample oracle. The
                // fixed tail crosses a lane group (8 rows) through the
                // queue: 3 + 7 rows gathered into one batch with pad
                // rows, a lone 10-row block (a 7 on each side leaves no
                // room beside it) run straight off its admission-padded
                // buffer, then 7 rows and three singles.
                let sizes: Vec<usize> = (0..6)
                    .map(|_| usize_in(rng, 1, 4))
                    .chain([3, 7, 10, 7, 1, 1, 1])
                    .collect();
                let mut expected: Vec<(Vec<f32>, usize)> = Vec::new();
                let mut tickets: Vec<Ticket> = Vec::new();
                for &rows in &sizes {
                    let flat = vec_f32(rng, rows * features, -2.0, 2.0);
                    let ticket = if rows == 1 {
                        engine.submit(&flat).unwrap()
                    } else {
                        engine.submit_batch(&flat).unwrap()
                    };
                    expected.push((flat, rows));
                    tickets.push(ticket);
                }
                for ((flat, rows), ticket) in expected.iter().zip(tickets) {
                    let got = ticket.wait().unwrap();
                    let mut oracle = Vec::new();
                    for r in 0..*rows {
                        oracle.extend(
                            model
                                .infer(&flat[r * features..(r + 1) * features])
                                .unwrap(),
                        );
                    }
                    assert_eq!(
                        bits(&got),
                        bits(&oracle),
                        "{label} stages={stages} workers={workers}: outputs diverged"
                    );
                }
                let stats = engine.shutdown();
                assert_eq!(stats.failed, 0, "{label} stages={stages}");
                assert_eq!(stats.completed, sizes.len() as u64);
            }
        }
    });
}

/// A single pre-batched request larger than `max_batch_size` still
/// runs (alone, in one kernel call) on both the classic pool and the
/// sharded pipeline, and the batch-size distribution records the true
/// row counts.
#[test]
fn oversized_batch_submission_runs_alone() {
    let mut rng = SeededRng::new(77);
    let model = CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap();
    let features = model.input_features();
    for stages in [0usize, 3] {
        let engine = Engine::start(
            model.clone(),
            EngineConfig {
                workers: 1,
                stages,
                max_batch_size: 2,
                max_wait: Duration::ZERO,
                ..EngineConfig::default()
            },
        );
        let rows = 9; // > max_batch_size
        let flat = vec_f32(&mut rng, rows * features, -2.0, 2.0);
        let got = engine.submit_batch(flat.clone()).unwrap().wait().unwrap();
        let mut oracle = Vec::new();
        for r in 0..rows {
            oracle.extend(
                model
                    .infer(&flat[r * features..(r + 1) * features])
                    .unwrap(),
            );
        }
        assert_eq!(bits(&got), bits(&oracle), "stages={stages}");
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        // 9 rows land in the [8, 16) bucket of the size distribution.
        assert_eq!(stats.batch_size_buckets[3], 1, "stages={stages}");
        assert_eq!(stats.mean_batch_size, 9.0);
    }
}

/// Invalid pre-batched bodies are typed errors before the queue.
#[test]
fn misaligned_batch_submission_is_rejected() {
    let mut rng = SeededRng::new(78);
    let model = CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap();
    let features = model.input_features();
    let engine = Engine::start(model, EngineConfig::default());
    assert!(engine.try_submit_batch(vec![]).is_err());
    assert!(engine.try_submit_batch(vec![0.0; features + 1]).is_err());
    assert!(engine.try_submit_batch(vec![0.0; features]).is_ok());
    engine.shutdown();
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
