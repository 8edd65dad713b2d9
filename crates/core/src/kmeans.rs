//! 1-D k-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! The composer clusters *scalar* populations — the weights of a layer, or
//! the activation values flowing into it — so the classic 1-D specialisation
//! applies: clusters are contiguous intervals of the sorted value axis,
//! assignment is a binary search over sorted centroids, and recursive
//! bisection yields the tree codebook's prefix property.
//!
//! The sample is sorted once, by an LSD radix sort over its total-order
//! keys (four 8-bit digits, a digit every value shares skipped): equal
//! `total_cmp` means equal bits, so it returns exactly the array a
//! comparison sort would, at half the cost of one on the 16 384-value
//! samples the composer clusters. Lloyd then runs on prefix sums of the
//! sorted sample, built once: each iteration finds the `k - 1` interval
//! boundaries by binary search and reads every cluster's count and sum
//! as a prefix difference — `O(n + I·k·log n)` for `I` iterations, not
//! `O(I·n)`. Nothing here runs on the worker pool, so results cannot
//! depend on `RAPIDNN_THREADS`; the composer runs whole clusterings as
//! pool tasks instead.

use crate::{nearest, CoreError, Result};
use rapidnn_tensor::SeededRng;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster centroids in ascending order.
    pub centroids: Vec<f32>,
    /// Within-cluster sum of squares (the paper's Eq. 1 objective).
    pub wcss: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

/// Hyper-parameters for [`cluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansConfig {
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Stop when the relative WCSS improvement drops below this.
    pub tolerance: f64,
    /// Cap on the number of samples actually clustered; larger populations
    /// are subsampled (the paper samples as little as 2 % of the data,
    /// §3.1).
    pub max_samples: usize,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            max_iterations: 60,
            tolerance: 1e-6,
            max_samples: 16_384,
        }
    }
}

/// Runs k-means++ seeded Lloyd iterations on scalar `values`.
///
/// Returns centroids sorted ascending. When the population has fewer
/// distinct values than `k`, the surplus centroids collapse onto existing
/// values and are deduplicated, so the result may have fewer than `k`
/// centroids.
///
/// # Errors
///
/// Returns [`CoreError::InvalidClustering`] when `values` is empty or `k`
/// is zero.
pub fn cluster(
    values: &[f32],
    k: usize,
    config: &KmeansConfig,
    rng: &mut SeededRng,
) -> Result<Clustering> {
    validate_input(values, k)?;
    let sorted = radix_sort(subsample(values, config, rng));
    let centroids = seed_plus_plus(&sorted, k, rng);
    Ok(lloyd(&sorted, centroids, config))
}

/// Sorts `values` into [`f32::total_cmp`] order: an LSD radix sort over
/// the total-order keys ([`nearest::total_key`], sign bit flipped so the
/// keys order as unsigned integers). One pass counts all four 8-bit
/// digits, then each digit scatters the keys stably into a second
/// buffer — except a digit every key shares, whose scatter would be the
/// identity. `total_cmp`-equal floats have equal bits, so the result is
/// the array any correct `total_cmp` sort returns, bit for bit.
///
/// Takes the sample by value: the keys are collected into its
/// allocation and the result back into theirs (same size and
/// alignment), so the sort holds one spare buffer, not two.
fn radix_sort(values: Vec<f32>) -> Vec<f32> {
    const SIGN: u32 = 1 << 31;
    let n = values.len();
    let mut keys: Vec<u32> = values
        .into_iter()
        .map(|v| nearest::total_key(v) as u32 ^ SIGN)
        .collect();
    let mut counts = [[0usize; 256]; 4];
    for &key in &keys {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * digit)) as usize & 0xff] += 1;
        }
    }
    let mut spare = vec![0u32; n];
    for (digit, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = start;
            start += c;
        }
        for &key in &keys {
            let slot = &mut next[(key >> (8 * digit)) as usize & 0xff];
            spare[*slot] = key;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut spare);
    }
    // `total_key` is an involution, so it maps each key back to its bits.
    keys.into_iter()
        .map(|key| f32::from_bits(nearest::total_key(f32::from_bits(key ^ SIGN)) as u32))
        .collect()
}

fn validate_input(values: &[f32], k: usize) -> Result<()> {
    if values.is_empty() {
        return Err(CoreError::InvalidClustering(
            "cannot cluster an empty sample".into(),
        ));
    }
    if k == 0 {
        return Err(CoreError::InvalidClustering("k must be positive".into()));
    }
    Ok(())
}

/// Caps the population at `config.max_samples` values, drawing a uniform
/// subsample when it is larger. Always makes exactly one copy, which the
/// caller then sorts in its own allocation.
fn subsample(values: &[f32], config: &KmeansConfig, rng: &mut SeededRng) -> Vec<f32> {
    if values.len() > config.max_samples {
        rng.sample_indices(values.len(), config.max_samples)
            .into_iter()
            .map(|i| values[i])
            .collect()
    } else {
        values.to_vec()
    }
}

/// Lloyd refinement over sorted data from the given seed centroids,
/// shared by [`cluster`] and [`cluster_naive_init`].
fn lloyd(sorted: &[f32], mut centroids: Vec<f32>, config: &KmeansConfig) -> Clustering {
    centroids.sort_by(f32::total_cmp);
    centroids.dedup();

    // prefix[j] = Σ d over d = sorted[t] - pivot, t < j, and the one total
    // Σ d²: the clusters partition the sample, so their squared errors sum
    // to Σ d² - Σᵢ (2·oᵢ·Sᵢ - mᵢ·oᵢ²) for cluster sums Sᵢ, counts mᵢ and
    // centroid offsets oᵢ. Centring on the median keeps Σ d² the size of
    // the spread, not of the values, so a tight population far from zero
    // does not cancel away.
    let n = sorted.len();
    let pivot = f64::from(sorted[n / 2]);
    let mut prefix = Vec::with_capacity(n + 1);
    let (mut sum, mut total_sq) = (0.0f64, 0.0f64);
    prefix.push(sum);
    for &v in sorted {
        let d = f64::from(v) - pivot;
        sum += d;
        total_sq += d * d;
        prefix.push(sum);
    }

    let mut last_wcss = f64::INFINITY;
    let mut iterations = 0;
    loop {
        // Assignment and update in one sweep over the centroids: cluster
        // `i` is `sorted[lo..hi]`, where `hi` is the first value at or
        // after `lo` strictly closer to centroid `i + 1` than to `i`
        // (ties stay low). Both are read before either is updated.
        let mut explained = 0.0f64;
        let mut lo = 0usize;
        for i in 0..centroids.len() {
            let centroid = centroids[i];
            let hi = match centroids.get(i + 1) {
                None => n,
                Some(&next) => {
                    let closer = |v: f32| (v - next).abs() < (v - centroid).abs();
                    let mut hi = lo + sorted[lo..].partition_point(|&v| v < next && !closer(v));
                    // From `next` up the strict test can fail by rounding
                    // (equal centroids, or a gap below the ulp of
                    // `v - centroid`); such a value stays in cluster `i`.
                    while hi < n && !closer(sorted[hi]) {
                        hi += 1;
                    }
                    hi
                }
            };
            let count = (hi - lo) as f64;
            let sum = prefix[hi] - prefix[lo];
            let offset = f64::from(centroid) - pivot;
            explained += offset * (2.0 * sum - count * offset);
            if hi > lo {
                centroids[i] = (pivot + sum / count) as f32;
            }
            lo = hi;
        }
        let wcss = total_sq - explained;
        iterations += 1;
        let improved = last_wcss - wcss;
        last_wcss = wcss;
        if iterations >= config.max_iterations
            || improved.abs() <= config.tolerance * wcss.max(1e-12)
        {
            break;
        }
    }

    centroids.sort_by(f32::total_cmp);
    centroids.dedup();
    // The loop's WCSS tracks the *pre-update* centroids and is a
    // difference of large sums; report the exact walk over the centroids
    // returned.
    let final_wcss = sorted_wcss(sorted, &centroids);
    Clustering {
        centroids,
        wcss: final_wcss,
        iterations,
    }
}

/// WCSS of sorted data against sorted centroids in one walk: on sorted
/// data the nearest centroid only ever moves up.
fn sorted_wcss(sorted: &[f32], centroids: &[f32]) -> f64 {
    let mut c = 0usize;
    let mut total = 0.0f64;
    for &v in sorted {
        while c + 1 < centroids.len() && (v - centroids[c + 1]).abs() < (v - centroids[c]).abs() {
            c += 1;
        }
        total += ((v - centroids[c]) as f64).powi(2);
    }
    total
}

/// k-means++ seeding over sorted data: first centroid uniform, the rest
/// sampled proportionally to squared distance from the nearest chosen
/// centroid.
fn seed_plus_plus(sorted: &[f32], k: usize, rng: &mut SeededRng) -> Vec<f32> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(sorted[rng.index(sorted.len())]);
    let mut dist_sq: Vec<f64> = sorted
        .iter()
        .map(|&v| ((v - centroids[0]) as f64).powi(2))
        .collect();
    let mut total: f64 = dist_sq.iter().sum();
    while centroids.len() < k {
        if total <= 0.0 {
            // All remaining mass is on existing centroids; give up early.
            break;
        }
        let mut target = rng.uniform(0.0, 1.0) as f64 * total;
        let mut chosen = sorted.len() - 1;
        for (i, &d) in dist_sq.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        let new_c = sorted[chosen];
        centroids.push(new_c);
        total = 0.0;
        for (d, &v) in dist_sq.iter_mut().zip(sorted) {
            let nd = ((v - new_c) as f64).powi(2);
            if nd < *d {
                *d = nd;
            }
            total += *d;
        }
    }
    centroids
}

/// Naive random-seeded k-means for ablation comparisons: seeds are `k`
/// uniform draws from the data instead of k-means++. Subsamples with the
/// same `config.max_samples` policy as [`cluster`], so the ablation
/// compares seeding strategies over the same population size.
///
/// # Errors
///
/// Same as [`cluster`].
pub fn cluster_naive_init(
    values: &[f32],
    k: usize,
    config: &KmeansConfig,
    rng: &mut SeededRng,
) -> Result<Clustering> {
    validate_input(values, k)?;
    let sorted = radix_sort(subsample(values, config, rng));
    let centroids: Vec<f32> = (0..k).map(|_| sorted[rng.index(sorted.len())]).collect();
    Ok(lloyd(&sorted, centroids, config))
}

/// Computes the WCSS of `values` against arbitrary finite `centroids`
/// (used by tests and the tree-codebook builder).
///
/// Sorts a local copy of the centroids and finds each value's nearest
/// one with the branch-free total-order-key search shared with the
/// serve kernels, instead of an `O(k)` distance scan per value.
pub fn wcss(values: &[f32], centroids: &[f32]) -> f64 {
    if centroids.is_empty() {
        return values.iter().map(|_| f64::INFINITY).sum();
    }
    let mut sorted = centroids.to_vec();
    sorted.sort_by(f32::total_cmp);
    sorted.dedup();
    let mut keys = Vec::new();
    nearest::load_keys(&mut keys, &sorted);
    values
        .iter()
        .map(|&v| {
            let c = sorted[nearest::nearest_index(&sorted, &keys, v)];
            ((v - c) as f64).powi(2)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk `lloyd` replaced, kept as its oracle: every pass visits
    /// every value with a monotone centroid cursor, in 2048-value chunks
    /// whose partial sums merge in chunk order.
    fn lloyd_reference(
        sorted: &[f32],
        mut centroids: Vec<f32>,
        config: &KmeansConfig,
    ) -> Clustering {
        const ASSIGN_CHUNK: usize = 2048;
        centroids.sort_by(f32::total_cmp);
        centroids.dedup();
        let mut last_wcss = f64::INFINITY;
        let mut iterations = 0;
        loop {
            let mut sums = vec![0.0f64; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            let mut wcss = 0.0f64;
            for chunk in sorted.chunks(ASSIGN_CHUNK) {
                let mut part_sums = vec![0.0f64; centroids.len()];
                let mut part_wcss = 0.0f64;
                let mut c = 0usize;
                for &v in chunk {
                    while c + 1 < centroids.len()
                        && (v - centroids[c + 1]).abs() < (v - centroids[c]).abs()
                    {
                        c += 1;
                    }
                    part_sums[c] += v as f64;
                    counts[c] += 1;
                    part_wcss += ((v - centroids[c]) as f64).powi(2);
                }
                for (s, ps) in sums.iter_mut().zip(&part_sums) {
                    *s += ps;
                }
                wcss += part_wcss;
            }
            for (i, centroid) in centroids.iter_mut().enumerate() {
                if counts[i] > 0 {
                    *centroid = (sums[i] / counts[i] as f64) as f32;
                }
            }
            iterations += 1;
            let improved = last_wcss - wcss;
            last_wcss = wcss;
            if iterations >= config.max_iterations
                || improved.abs() <= config.tolerance * wcss.max(1e-12)
            {
                break;
            }
        }
        centroids.sort_by(f32::total_cmp);
        centroids.dedup();
        let wcss = sorted
            .chunks(ASSIGN_CHUNK)
            .map(|chunk| sorted_wcss(chunk, &centroids))
            .sum();
        Clustering {
            centroids,
            wcss,
            iterations,
        }
    }

    /// Seeded populations that reach every branch of the boundary search.
    fn corpus() -> Vec<(&'static str, Vec<f32>)> {
        fn draw(n: usize, mut f: impl FnMut(&mut SeededRng) -> f32) -> Vec<f32> {
            let mut rng = SeededRng::new(2022 + n as u64);
            (0..n).map(|_| f(&mut rng)).collect()
        }
        vec![
            ("normal", draw(5001, SeededRng::normal)),
            ("uniform", draw(4096, |r| r.uniform(-10.0, 10.0))),
            (
                "duplicate-heavy",
                draw(3000, |r| [-2.5f32, 0.0, 0.0, 0.0, 1.25][r.index(5)]),
            ),
            ("relu", draw(6000, |r| r.normal().max(0.0))),
            ("two-valued", draw(777, |r| [-1.0f32, 1.0][r.index(2)])),
            ("fewer than k", vec![0.5, -0.25, 3.0]),
            ("single value", vec![7.0; 40]),
            ("one element", vec![-3.5]),
            (
                "tight far from zero",
                draw(4000, |r| {
                    [100.0f32, 100.5, 101.0][r.index(3)] + 0.01 * r.normal()
                }),
            ),
            ("subsampled", draw(40_000, |r| r.normal_with(0.0, 0.05))),
        ]
    }

    #[test]
    fn prefix_sum_lloyd_matches_the_reference_walk() {
        let config = KmeansConfig::default();
        for (name, values) in corpus() {
            for k in [1usize, 2, 8, 16, 64] {
                for naive in [false, true] {
                    let case = format!("{name}, k = {k}, naive = {naive}");
                    let mut rng = SeededRng::new(31 + k as u64);
                    let public = if naive {
                        cluster_naive_init(&values, k, &config, &mut rng.clone())
                    } else {
                        cluster(&values, k, &config, &mut rng.clone())
                    }
                    .unwrap();

                    let mut sorted = subsample(&values, &config, &mut rng);
                    sorted.sort_by(f32::total_cmp);
                    let seeds: Vec<f32> = if naive {
                        (0..k).map(|_| sorted[rng.index(sorted.len())]).collect()
                    } else {
                        seed_plus_plus(&sorted, k, &mut rng)
                    };
                    let expected = lloyd_reference(&sorted, seeds, &config);

                    let bits = |c: &Clustering| -> Vec<u32> {
                        c.centroids.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&public), bits(&expected), "{case}");
                    assert_eq!(public.iterations, expected.iterations, "{case}");
                    assert!(
                        (public.wcss - expected.wcss).abs() <= 1e-9 * expected.wcss,
                        "{case}: wcss {} vs {}",
                        public.wcss,
                        expected.wcss
                    );
                }
            }
        }
    }

    /// The radix sort returns the bits `sort_unstable_by(total_cmp)`
    /// does, on both zeros, NaNs of both signs and several payloads,
    /// both infinities, subnormals, all-equal and two-valued arrays, and
    /// at lengths around one digit's bucket count and the composer's
    /// sample sizes.
    #[test]
    fn radix_sort_matches_total_cmp_bit_for_bit() {
        let specials = [
            0.0f32,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xff80_0001),
            f32::from_bits(0x7fff_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ];
        let mut rng = SeededRng::new(0x5047);
        for n in [0usize, 1, 255, 256, 16_384, 50_176] {
            let mixed: Vec<f32> = (0..n)
                .map(|i| match i % 4 {
                    0 => specials[rng.index(specials.len())],
                    1 => f32::from_bits(rng.index(1 << 23) as u32 | (i as u32 & 1) << 31),
                    2 => rng.normal(),
                    _ => rng.uniform(-1e6, 1e6),
                })
                .collect();
            let equal = vec![-2.5f32; n];
            let two_valued: Vec<f32> = (0..n).map(|_| [0.0, -0.0][rng.index(2)]).collect();
            for (name, values) in [
                ("mixed", mixed),
                ("all-equal", equal),
                ("two-valued", two_valued),
            ] {
                let mut expected = values.clone();
                expected.sort_unstable_by(f32::total_cmp);
                let sorted = radix_sort(values);
                let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(bits(&sorted), bits(&expected), "{name}, n = {n}");
            }
        }
    }

    /// Two centroids closer together than the rounding of `v - centroid`:
    /// above them the strict-closer test reads true at `3e7 + 4` alone
    /// (`v - 1.0` is a tie that rounds to even), so it is not monotone
    /// there, and a value it fails for stays low, as in the reference
    /// walk. A bare binary search over that test lands at the end.
    #[test]
    fn boundary_search_follows_the_walk_where_rounding_breaks_monotonicity() {
        let mut sorted = vec![1.0f32, 1.0, 3e7 + 2.0, 3e7 + 2.0, 3e7 + 4.0];
        sorted.extend((0..7).map(|j| 3e7 + 6.0 + 4.0 * j as f32));
        let seeds = vec![1.0f32, 1.0 + f32::EPSILON];
        let one_pass = KmeansConfig {
            max_iterations: 1,
            ..KmeansConfig::default()
        };
        let first = lloyd(&sorted, seeds.clone(), &one_pass);
        assert_eq!(first.centroids, [15_000_002.0, 30_000_016.0]);
        for config in [one_pass, KmeansConfig::default()] {
            assert_eq!(
                lloyd(&sorted, seeds.clone(), &config),
                lloyd_reference(&sorted, seeds.clone(), &config)
            );
        }
    }

    #[test]
    fn non_finite_samples_end_in_a_typed_error() {
        use crate::Codebook;
        let mut rng = SeededRng::new(8);
        let finite: Vec<f32> = (0..300).map(|_| rng.normal()).collect();
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0usize, 150, 299] {
                let mut values = finite.clone();
                values[at] = bad;
                for k in [1usize, 4, 64] {
                    let result = Codebook::from_kmeans(&values, k, &mut rng);
                    assert!(
                        matches!(result, Err(CoreError::InvalidCodebook(_))),
                        "{bad} at {at}, k = {k}: {result:?}"
                    );
                }
            }
        }
        assert!(Codebook::from_kmeans(&[f32::NAN; 5], 2, &mut rng).is_err());
    }

    #[test]
    fn recovers_well_separated_clusters() {
        let mut rng = SeededRng::new(1);
        let mut values = Vec::new();
        for &center in &[-5.0f32, 0.0, 5.0] {
            for _ in 0..100 {
                values.push(center + 0.1 * rng.normal());
            }
        }
        let result = cluster(&values, 3, &KmeansConfig::default(), &mut rng).unwrap();
        assert_eq!(result.centroids.len(), 3);
        for (c, expected) in result.centroids.iter().zip(&[-5.0f32, 0.0, 5.0]) {
            assert!((c - expected).abs() < 0.2, "{c} vs {expected}");
        }
    }

    #[test]
    fn centroids_are_sorted_and_deduped() {
        let mut rng = SeededRng::new(2);
        let values = vec![1.0f32; 50];
        let result = cluster(&values, 4, &KmeansConfig::default(), &mut rng).unwrap();
        assert_eq!(result.centroids, vec![1.0]);
        assert_eq!(result.wcss, 0.0);
    }

    #[test]
    fn errors_on_empty_or_zero_k() {
        let mut rng = SeededRng::new(0);
        assert!(cluster(&[], 2, &KmeansConfig::default(), &mut rng).is_err());
        assert!(cluster(&[1.0], 0, &KmeansConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn wcss_decreases_with_more_clusters() {
        let mut rng = SeededRng::new(3);
        let values: Vec<f32> = (0..500).map(|_| rng.normal()).collect();
        let mut last = f64::INFINITY;
        for k in [1usize, 2, 4, 8, 16] {
            let r = cluster(&values, k, &KmeansConfig::default(), &mut rng).unwrap();
            assert!(
                r.wcss <= last + 1e-9,
                "wcss not monotone at k={k}: {} > {last}",
                r.wcss
            );
            last = r.wcss;
        }
    }

    #[test]
    fn plus_plus_beats_or_matches_naive_on_average() {
        let mut rng = SeededRng::new(4);
        // Pathological distribution: tight cluster + far outliers.
        let mut values: Vec<f32> = (0..300).map(|_| rng.normal() * 0.01).collect();
        values.extend((0..10).map(|i| 100.0 + i as f32));
        let mut pp_total = 0.0f64;
        let mut naive_total = 0.0f64;
        for seed in 0..10 {
            let mut r1 = SeededRng::new(seed);
            let mut r2 = SeededRng::new(seed);
            pp_total += cluster(&values, 4, &KmeansConfig::default(), &mut r1)
                .unwrap()
                .wcss;
            naive_total += cluster_naive_init(&values, 4, &KmeansConfig::default(), &mut r2)
                .unwrap()
                .wcss;
        }
        assert!(
            pp_total <= naive_total * 1.05,
            "k-means++ {pp_total} vs naive {naive_total}"
        );
    }

    #[test]
    fn subsampling_keeps_centroids_reasonable() {
        let mut rng = SeededRng::new(5);
        let values: Vec<f32> = (0..100_000)
            .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
            .collect();
        let config = KmeansConfig {
            max_samples: 1000,
            ..KmeansConfig::default()
        };
        let r = cluster(&values, 2, &config, &mut rng).unwrap();
        assert!((r.centroids[0] + 1.0).abs() < 0.05);
        assert!((r.centroids[1] - 1.0).abs() < 0.05);
    }

    #[test]
    fn naive_init_subsamples_like_cluster() {
        // 100k values would take ~60 Lloyd passes over the full data if
        // `max_samples` were ignored; with subsampling the naive path
        // clusters the same-sized population as `cluster` and still
        // recovers both modes.
        let mut rng = SeededRng::new(6);
        let values: Vec<f32> = (0..100_000)
            .map(|i| if i % 2 == 0 { -1.0 } else { 1.0 })
            .collect();
        let config = KmeansConfig {
            max_samples: 1000,
            ..KmeansConfig::default()
        };
        let r = cluster_naive_init(&values, 2, &config, &mut rng).unwrap();
        assert_eq!(r.centroids.len(), 2);
        assert!((r.centroids[0] + 1.0).abs() < 0.05);
        assert!((r.centroids[1] - 1.0).abs() < 0.05);
    }

    #[test]
    fn naive_init_deterministic_for_seed() {
        let values: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let a = cluster_naive_init(&values, 8, &KmeansConfig::default(), &mut SeededRng::new(9))
            .unwrap();
        let b = cluster_naive_init(&values, 8, &KmeansConfig::default(), &mut SeededRng::new(9))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wcss_helper_matches_definition() {
        let values = [0.0f32, 1.0, 2.0];
        let centroids = [0.0f32, 2.0];
        // 0->0 (0), 1->either (1), 2->2 (0)
        assert_eq!(wcss(&values, &centroids), 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let values: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let a = cluster(&values, 8, &KmeansConfig::default(), &mut SeededRng::new(9)).unwrap();
        let b = cluster(&values, 8, &KmeansConfig::default(), &mut SeededRng::new(9)).unwrap();
        assert_eq!(a, b);
    }
}
