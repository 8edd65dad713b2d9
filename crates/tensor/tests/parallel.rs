//! Property tests: the parallel tensor kernels are bit-identical to
//! the sequential oracle (`with_threads(1)`) for every thread count
//! from 1 to 8, including odd sizes that leave ragged chunk
//! remainders. Sizes are chosen to cross the parallel-dispatch gate so
//! the pool path actually runs.

use rapidnn_pool::with_threads;
use rapidnn_tensor::{gemm, im2col, matvec, Conv2dGeometry, Padding, SeededRng, Shape, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gemm_bit_identical_across_thread_counts() {
    let mut rng = SeededRng::new(11);
    // (m, k, n) large enough for the parallel gate, with odd remainders:
    // last bands of 1, 2 and 3 rows past a 4-row tile, panels of 1 to 7
    // columns past an 8-column one, and a ReLU-sparse A so the tile's
    // zero skip runs on both sides of every band boundary.
    for &(m, k, n) in &[
        (97, 33, 41),
        (128, 64, 64),
        (65, 129, 7),
        (99, 40, 77),
        (70, 50, 12),
        (130, 20, 9),
    ] {
        let mut a = rng.uniform_tensor(Shape::matrix(m, k), -1.0, 1.0);
        a.as_mut_slice().iter_mut().for_each(|x| *x = x.max(0.0));
        let b = rng.uniform_tensor(Shape::matrix(k, n), -1.0, 1.0);
        let oracle = with_threads(1, || bits(&gemm(&a, &b).unwrap()));
        for threads in 1..=8 {
            let got = with_threads(threads, || bits(&gemm(&a, &b).unwrap()));
            assert_eq!(
                got, oracle,
                "gemm {m}x{k}x{n} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn matvec_bit_identical_across_thread_counts() {
    let mut rng = SeededRng::new(12);
    for &(m, k) in &[(301, 257), (512, 64), (1000, 33)] {
        let a = rng.uniform_tensor(Shape::matrix(m, k), -1.0, 1.0);
        let x = rng.uniform_tensor(Shape::vector(k), -1.0, 1.0);
        let oracle = with_threads(1, || bits(&matvec(&a, &x).unwrap()));
        for threads in 1..=8 {
            let got = with_threads(threads, || bits(&matvec(&a, &x).unwrap()));
            assert_eq!(got, oracle, "matvec {m}x{k} diverged at {threads} threads");
        }
    }
}

#[test]
fn im2col_bit_identical_across_thread_counts() {
    let mut rng = SeededRng::new(13);
    let geom = Conv2dGeometry::new(3, 27, 27, 3, 3, 1, Padding::Same).unwrap();
    let img = rng.uniform_tensor(geom.input_shape(), -1.0, 1.0);
    let oracle = with_threads(1, || bits(&im2col(&img, &geom).unwrap()));
    for threads in 1..=8 {
        let got = with_threads(threads, || bits(&im2col(&img, &geom).unwrap()));
        assert_eq!(got, oracle, "im2col diverged at {threads} threads");
    }
}
