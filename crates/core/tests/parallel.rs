//! k-means runs entirely on the calling thread — subsample, sort, seed
//! and Lloyd on prefix sums — so its output cannot depend on the pool
//! size. One test keeps that pinned where an RNG draw is involved.

use rapidnn_core::kmeans::{cluster, wcss, KmeansConfig};
use rapidnn_pool::with_threads;
use rapidnn_tensor::SeededRng;

/// Bit pattern of a clustering result, suitable for exact comparison.
fn fingerprint(result: &rapidnn_core::kmeans::Clustering) -> (Vec<u32>, u64, usize) {
    (
        result.centroids.iter().map(|v| v.to_bits()).collect(),
        result.wcss.to_bits(),
        result.iterations,
    )
}

/// Subsampled populations (len > max_samples) draw the same subsample for
/// any worker count, because sampling happens on the calling thread.
#[test]
fn subsampled_population_identical_across_thread_counts() {
    let mut data_rng = SeededRng::new(55);
    let values: Vec<f32> = (0..3000).map(|_| data_rng.uniform(0.0, 1.0)).collect();
    let config = KmeansConfig {
        max_samples: 1000,
        ..KmeansConfig::default()
    };
    let oracle = with_threads(1, || {
        let mut rng = SeededRng::new(9);
        fingerprint(&cluster(&values, 10, &config, &mut rng).unwrap())
    });
    for threads in [2, 4, 8] {
        let got = with_threads(threads, || {
            let mut rng = SeededRng::new(9);
            fingerprint(&cluster(&values, 10, &config, &mut rng).unwrap())
        });
        assert_eq!(got, oracle, "diverged at {threads} threads");
    }
}

/// The public WCSS helper agrees with the clustering's internal score on
/// the exact population it clustered.
#[test]
fn wcss_helper_matches_internal_score() {
    let mut data_rng = SeededRng::new(77);
    let values: Vec<f32> = (0..513).map(|_| data_rng.uniform(-1.0, 1.0)).collect();
    let mut rng = SeededRng::new(2);
    let result = cluster(&values, 6, &KmeansConfig::default(), &mut rng).unwrap();
    let recomputed = wcss(&values, &result.centroids);
    assert!(
        (result.wcss - recomputed).abs() <= 1e-9 * recomputed.max(1.0),
        "{} vs {recomputed}",
        result.wcss
    );
}
