//! End-to-end determinism: the whole pipeline — pooled normals for data
//! and initialisation, training, the clustering tasks, the quality
//! loop's sharded validation pass, and compiled inference — must
//! produce bitwise-identical results for any worker count.
//! `with_threads(1)` is the sequential oracle.

use rapidnn::pool::with_threads;
use rapidnn::tensor::SeededRng;
use rapidnn::{Pipeline, PipelineConfig};

/// Runs the tiny pipeline and compiled inference under `threads` workers,
/// returning an exact bit-level fingerprint: both error rates, one
/// output row, and the whole compiled artifact — every codebook, code
/// and table, so one that moves without moving the rest still shows.
fn fingerprint(threads: usize) -> (u32, u32, Vec<u32>, Vec<u8>) {
    with_threads(threads, || {
        let mut rng = SeededRng::new(31);
        let report = Pipeline::new(PipelineConfig::tiny_for_tests())
            .run(&mut rng)
            .unwrap();
        let model = report.compile().unwrap();
        let sample = &report.validation.inputs().as_slice()[..model.input_features()];
        let output = model.infer(sample).unwrap();
        (
            report.compose.baseline_error.to_bits(),
            report.compose.final_error.to_bits(),
            output.iter().map(|v| v.to_bits()).collect(),
            model.to_bytes(),
        )
    })
}

#[test]
fn pipeline_bitwise_identical_across_thread_counts() {
    let oracle = fingerprint(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            fingerprint(threads),
            oracle,
            "pipeline diverged at {threads} threads"
        );
    }
}
