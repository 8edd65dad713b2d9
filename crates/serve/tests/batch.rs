//! Batched-kernel properties: for every op-program topology the
//! compiler can emit (dense, conv + pools, residual), `infer_batch` must
//! be bit-for-bit identical to per-sample `infer`, a reused
//! [`BatchRunner`] must be stateless across batch sizes and models and
//! allocate nothing past its reservation, the kernels each dense op was
//! lowered to must reproduce the composer's emulator whether the model
//! was built or reloaded, the engine's straggler wait must exit early
//! when a batch fills and flush partial batches at the deadline, and a
//! saved artifact must serve identically after a round trip through a
//! real file.

mod common;

use common::{cnn_model, mlp_model, residual_model, strided_cnn_model};
use rapidnn_core::ReinterpretedNetwork;
use rapidnn_prop::{check, usize_in, vec_f32};
use rapidnn_serve::{BatchRunner, CompiledModel, Engine, EngineConfig};
use rapidnn_tensor::SeededRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn topologies() -> [ReinterpretedNetwork; 4] {
    let mut rng = SeededRng::new(2024);
    [
        mlp_model(&mut rng),
        cnn_model(&mut rng),
        residual_model(&mut rng),
        strided_cnn_model(&mut rng),
    ]
}

fn compiled_topologies() -> Vec<CompiledModel> {
    let compile = |m| CompiledModel::from_reinterpreted(m).unwrap();
    topologies().iter().map(compile).collect()
}

/// Each dense op gets its kernel once, when the model is assembled —
/// from a network or from bytes — and which one runs depends on the
/// batch: the gather below a block of eight rows, the decoded-weight
/// multiply from eight up. Every combination must produce the bits of
/// the composer's own encoded-domain emulator.
#[test]
fn lowered_kernels_match_the_emulator_built_or_reloaded_at_every_batch_size() {
    let mut rng = SeededRng::new(31);
    for (network, built) in topologies().iter().zip(compiled_topologies()) {
        let reloaded = CompiledModel::from_bytes(&built.to_bytes()).unwrap();
        let features = built.input_features();
        for rows in [1usize, 5, 8, 64] {
            let flat = vec_f32(&mut rng, rows * features, -3.0, 3.0);
            let expected: Vec<u32> = flat
                .chunks(features)
                .flat_map(|sample| network.infer_sample(sample).unwrap())
                .map(f32::to_bits)
                .collect();
            for (how, model) in [("built", &built), ("reloaded", &reloaded)] {
                let mut out = Vec::new();
                BatchRunner::new().run(model, &flat, &mut out).unwrap();
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "{how}, {features} features, {rows} rows");
            }
        }
    }
}

#[test]
fn infer_batch_matches_per_sample_for_every_topology() {
    let models = compiled_topologies();
    check(24, |rng| {
        for model in &models {
            let rows = usize_in(rng, 1, 9);
            let flat = vec_f32(rng, rows * model.input_features(), -3.0, 3.0);
            let batched = model.infer_batch(&flat).unwrap();
            assert_eq!(batched.len(), rows);
            for (i, row) in batched.iter().enumerate() {
                let sample = &flat[i * model.input_features()..(i + 1) * model.input_features()];
                assert_eq!(
                    row,
                    &model.infer(sample).unwrap(),
                    "batched row {i} diverged from per-sample inference"
                );
            }
        }
    });
}

#[test]
fn reused_runner_is_stateless_across_sizes_and_models() {
    // One runner serving interleaved models and growing/shrinking batch
    // sizes must behave exactly like a fresh runner per call: no state
    // may leak through the scratch arena between runs.
    let models = compiled_topologies();
    let mut runner = BatchRunner::new();
    let mut rng = SeededRng::new(7);
    for round in 0..6 {
        for model in &models {
            let rows = [5, 1, 8, 2, 3, 1][round];
            let flat = vec_f32(&mut rng, rows * model.input_features(), -2.0, 2.0);
            let mut out = Vec::new();
            let n = runner.run(model, &flat, &mut out).unwrap();
            assert_eq!(n, rows);
            assert_eq!(out.len(), rows * model.output_features());
            let expected: Vec<f32> = model
                .infer_batch(&flat)
                .unwrap()
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(out, expected, "reused runner diverged on round {round}");
        }
    }
}

#[test]
fn reservation_covers_every_topology_on_both_kernel_paths() {
    // `for_model` sizes each flow buffer by the widest flow in its own
    // domain; whatever the op loop then touches — conv accumulators,
    // pool outputs, residual snapshots, `i16` operands written by pools
    // and joins — must already be reserved, at full and partial batches.
    for model in compiled_topologies() {
        let mut quantized = model.clone();
        quantized.quantize().unwrap();
        for model in [model, quantized] {
            let mut runner = BatchRunner::for_model(&model, 16);
            let reserved = runner.scratch_bytes();
            let mut rng = SeededRng::new(11);
            let mut out = Vec::new();
            for rows in [16, 1, 5, 16] {
                let flat = vec_f32(&mut rng, rows * model.input_features(), -2.0, 2.0);
                runner.run(&model, &flat, &mut out).unwrap();
                assert_eq!(
                    runner.scratch_bytes(),
                    reserved,
                    "{} path, {} ops: a {rows}-row run grew the arena",
                    model.kernel_path(),
                    model.dense_shapes().len()
                );
            }
        }
    }
}

#[test]
fn empty_and_misaligned_batches() {
    let models = compiled_topologies();
    let mut runner = BatchRunner::new();
    for model in &models {
        let mut out = vec![1.0f32; 3]; // Stale contents must be cleared.
        assert_eq!(runner.run(model, &[], &mut out).unwrap(), 0);
        assert!(out.is_empty());
        assert!(model.infer_batch(&[]).unwrap().is_empty());
        // One value short of a whole row is a typed error, not a panic.
        let short = vec![0.0f32; model.input_features() - 1];
        assert!(runner.run(model, &short, &mut out).is_err());
        assert!(model.infer_batch(&short).is_err());
    }
}

#[test]
fn straggler_wait_exits_early_when_batch_fills() {
    // With max_wait far beyond the test budget, a filled batch must be
    // the thing that releases the worker — if the straggler wait ran to
    // its deadline these tickets could not resolve in time.
    let mut rng = SeededRng::new(11);
    let model = CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap();
    let features = model.input_features();
    let engine = Engine::start(
        model,
        EngineConfig {
            workers: 1,
            max_batch_size: 2,
            max_wait: Duration::from_secs(600),
            ..EngineConfig::default()
        },
    );
    let start = Instant::now();
    let a = engine
        .submit(vec_f32(&mut rng, features, -1.0, 1.0))
        .unwrap();
    let b = engine
        .submit(vec_f32(&mut rng, features, -1.0, 1.0))
        .unwrap();
    assert!(a.wait().is_ok());
    assert!(b.wait().is_ok());
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "full batch did not exit the straggler wait early"
    );
    engine.shutdown();
}

#[test]
fn partial_batch_flushes_at_deadline() {
    // A lone request in a wide batch window must be answered once
    // max_wait elapses — the worker may not hold it waiting for
    // stragglers that never come — and not before: the hold counts from
    // the admission stamp, which is taken after `submitted`, so the
    // answer can arrive no sooner than `max_wait` after it.
    let mut rng = SeededRng::new(12);
    let model = CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap();
    let features = model.input_features();
    let engine = Engine::start(
        model,
        EngineConfig {
            workers: 1,
            max_batch_size: 64,
            max_wait: Duration::from_millis(50),
            ..EngineConfig::default()
        },
    );
    let row = vec_f32(&mut rng, features, -1.0, 1.0);
    let submitted = Instant::now();
    let ticket = engine.submit(row).unwrap();
    assert!(matches!(
        ticket.wait_timeout(Duration::from_secs(30)),
        Some(Ok(_))
    ));
    let answered = submitted.elapsed();
    assert!(
        answered >= Duration::from_millis(50),
        "answered after {answered:?}"
    );
    engine.shutdown();
}

#[test]
fn save_load_serve_round_trip_through_disk() {
    // Full deployment path: compile → save to a real file → load → serve
    // through the engine; every response must match the original
    // in-memory model bit for bit.
    let mut rng = SeededRng::new(13);
    let compiled = CompiledModel::from_reinterpreted(&mlp_model(&mut rng)).unwrap();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch-round-trip.rnna");
    compiled.save(&path).unwrap();
    let restored = CompiledModel::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored, compiled);

    let features = restored.input_features();
    let engine = Engine::start(
        restored,
        EngineConfig {
            workers: 2,
            max_batch_size: 8,
            max_wait: Duration::from_micros(200),
            ..EngineConfig::default()
        },
    );
    let inputs: Vec<Vec<f32>> = (0..32)
        .map(|_| vec_f32(&mut rng, features, -2.0, 2.0))
        .collect();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| engine.submit(input.clone()).unwrap())
        .collect();
    for (input, ticket) in inputs.iter().zip(tickets) {
        assert_eq!(ticket.wait().unwrap(), compiled.infer(input).unwrap());
    }
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.failed, 0);
}
