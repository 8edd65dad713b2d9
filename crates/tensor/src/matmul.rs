//! Matrix products.
//!
//! [`gemm`] is a register-tiled kernel: the output is cut into
//! [`BLOCK`]-row bands (the unit of parallelism), each band into
//! [`TILE_COLS`]-column panels of `B`, and each panel is swept by
//! [`TILE_ROWS`]-row tiles whose `TILE_ROWS × TILE_COLS` partial sums
//! stay in registers over the whole inner dimension and are stored
//! once. Every output element is still the plain left-to-right sum
//! `((0 + a₀·b₀) + a₁·b₁) + …` with a separate multiply and add, so
//! the result equals the naive triple loop bit for bit.

use crate::{Result, Shape, Tensor, TensorError};

/// Rows per output band: the parallel chunk size. A multiple of
/// [`TILE_ROWS`], so a row belongs to the same tile whether its band is
/// walked by the sequential loop or handed to a pool worker.
const BLOCK: usize = 32;

/// Rows of `A` sharing one register tile.
const TILE_ROWS: usize = 4;
const _: () = assert!(BLOCK.is_multiple_of(TILE_ROWS));

/// Columns of `B` in one panel (two SSE vectors per tile row).
const TILE_COLS: usize = 8;

/// Minimum multiply-accumulate count before a kernel fans out across
/// the pool; below this, dispatch overhead dwarfs the work. The gate
/// depends only on problem size (never on thread count), so which path
/// runs is itself deterministic.
const PAR_MIN_FLOPS: usize = 1 << 15;

/// Row-chunk size for the parallel matrix-vector product.
const MATVEC_CHUNK: usize = 64;

/// One `R × C` output tile: `out[r][c] = Σₖ a[r][k] · b[k][c]`, `k`
/// ascending from `+0.0`, multiply and add kept separate.
///
/// `a` starts at the tile's first row (row stride `ka`), `b` at its
/// first column (row stride `n`), `out` at its first element (row
/// stride `n`). A step whose `R` left-hand entries are all zero is
/// skipped: each product would be `±0`, and adding `±0` to a sum that
/// started at `+0.0` (and therefore is never `−0.0`) leaves it as it
/// was — for finite `b`; see [`gemm`] for the non-finite case.
fn tile<const R: usize, const C: usize>(
    a: &[f32],
    ka: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * ka..(r + 1) * ka]);
    let mut acc = [[0.0f32; C]; R];
    for k in 0..ka {
        let a_k: [f32; R] = std::array::from_fn(|r| a_rows[r][k]);
        if a_k.iter().all(|&x| x == 0.0) {
            continue;
        }
        let b_k = &b[k * n..k * n + C];
        for (sums, &x) in acc.iter_mut().zip(&a_k) {
            for (s, &y) in sums.iter_mut().zip(b_k) {
                *s += x * y;
            }
        }
    }
    for (r, sums) in acc.iter().enumerate() {
        out[r * n..r * n + C].copy_from_slice(sums);
    }
}

/// Sweeps one `C`-column panel of `B` down a band of `A`: whole
/// [`TILE_ROWS`]-row tiles, then the ragged rows one at a time.
fn panel<const C: usize>(a: &[f32], ka: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let rows = a.len() / ka;
    let whole = rows - rows % TILE_ROWS;
    for i in (0..whole).step_by(TILE_ROWS) {
        tile::<TILE_ROWS, C>(&a[i * ka..], ka, b, n, &mut out[i * n..]);
    }
    for i in whole..rows {
        tile::<1, C>(&a[i * ka..], ka, b, n, &mut out[i * n..]);
    }
}

/// General matrix-matrix product `C = A · B` for rank-2 tensors.
///
/// A register-tiled kernel: 4-row × 8-column blocks of `C` are summed in
/// registers over the whole inner dimension and stored once. Every
/// output element accumulates its products in ascending `k` from `+0.0`
/// with a separate multiply and add, so the result is bit-identical to
/// the naive triple loop and independent of the worker-thread count.
///
/// Zero entries of `A` are skipped a tile at a time: step `k` is dropped
/// where the four rows sharing a tile are all zero (a ragged last row is
/// a tile of its own). For finite `B` that changes no bit. A non-finite
/// `B[k][j]` makes `C[i][j]` NaN whenever any row of `i`'s tile has a
/// non-zero `A[·][k]`, even where `A[i][k]` itself is zero (`0 · ∞`),
/// and is passed over only where the whole tile is zero at `k`.
///
/// # Errors
///
/// * [`TensorError::RankMismatch`] when either operand is not rank 2.
/// * [`TensorError::MatmulDimensions`] when the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use rapidnn_tensor::{gemm, Shape, Tensor};
///
/// let a = Tensor::from_vec(Shape::matrix(1, 2), vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(Shape::matrix(2, 1), vec![3.0, 4.0])?;
/// assert_eq!(gemm(&a, &b)?.as_slice(), &[11.0]);
/// # Ok::<(), rapidnn_tensor::TensorError>(())
/// ```
pub fn gemm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: b.shape().rank(),
        });
    }
    let (m, ka) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (kb, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if ka != kb {
        return Err(TensorError::MatmulDimensions {
            left: (m, ka),
            right: (kb, n),
        });
    }

    let lhs = a.as_slice();
    let rhs = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    if n == 0 || ka == 0 {
        return Tensor::from_vec(Shape::matrix(m, n), out);
    }

    // One chunk = one BLOCK-row band of the output. An element's sum
    // runs over the full `k` range inside one tile and bands never share
    // output rows, so the result is bit-identical no matter how chunks
    // are scheduled. Panels outer, row tiles inner: a panel of `B` is
    // reused by every tile of the band while it is hot.
    let band = |ib: usize, rows: &mut [f32]| {
        let a_band = &lhs[ib * ka..ib * ka + rows.len() / n * ka];
        let whole = n - n % TILE_COLS;
        for jb in (0..whole).step_by(TILE_COLS) {
            panel::<TILE_COLS>(a_band, ka, &rhs[jb..], n, &mut rows[jb..]);
        }
        for jb in whole..n {
            panel::<1>(a_band, ka, &rhs[jb..], n, &mut rows[jb..]);
        }
    };
    let chunk = BLOCK * n;
    if m > BLOCK && m.saturating_mul(ka).saturating_mul(n) >= PAR_MIN_FLOPS {
        rapidnn_pool::for_chunks_mut(&mut out, chunk, |_, start, rows| band(start / n, rows));
    } else {
        for (ci, rows) in out.chunks_mut(chunk).enumerate() {
            band(ci * BLOCK, rows);
        }
    }
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix-vector product `y = A · x`.
///
/// # Errors
///
/// * [`TensorError::RankMismatch`] when `a` is not rank 2 or `x` not rank 1.
/// * [`TensorError::MatmulDimensions`] when `A`'s column count differs from
///   `x`'s length.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: a.shape().rank(),
        });
    }
    if x.shape().rank() != 1 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: x.shape().rank(),
        });
    }
    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    if k != x.len() {
        return Err(TensorError::MatmulDimensions {
            left: (m, k),
            right: (x.len(), 1),
        });
    }
    let lhs = a.as_slice();
    let v = x.as_slice();
    let mut out = vec![0.0f32; m];
    // Each output element is one independent dot product, so row chunks
    // are bit-identical to the sequential loop by construction.
    let rows = |start: usize, chunk_out: &mut [f32]| {
        for (off, o) in chunk_out.iter_mut().enumerate() {
            let i = start + off;
            let row = &lhs[i * k..(i + 1) * k];
            *o = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
        }
    };
    if m > MATVEC_CHUNK && m.saturating_mul(k) >= PAR_MIN_FLOPS {
        rapidnn_pool::for_chunks_mut(&mut out, MATVEC_CHUNK, |_, start, chunk| {
            rows(start, chunk);
        });
    } else {
        rows(0, &mut out);
    }
    Tensor::from_vec(Shape::vector(m), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[1];
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
            }
        }
        Tensor::from_vec(Shape::matrix(m, n), out).unwrap()
    }

    /// The kernel [`gemm`] ran before the register tile: a cache-blocked
    /// i-k-j axpy that stores every partial sum and skips `a == 0.0` per
    /// element. Kept as the bit-level oracle.
    fn axpy_oracle(a: &Tensor, b: &Tensor) -> Vec<f32> {
        const BLOCK: usize = 32;
        let (m, ka) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[1];
        let (lhs, rhs) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; m * n];
        for ib in (0..m).step_by(BLOCK) {
            for kb_start in (0..ka).step_by(BLOCK) {
                for jb in (0..n).step_by(BLOCK) {
                    let k_end = (kb_start + BLOCK).min(ka);
                    let j_end = (jb + BLOCK).min(n);
                    for i in ib..(ib + BLOCK).min(m) {
                        for k in kb_start..k_end {
                            let aik = lhs[i * ka + k];
                            if aik == 0.0 {
                                continue;
                            }
                            let row = &rhs[k * n + jb..k * n + j_end];
                            let dst = &mut out[i * n + jb..i * n + j_end];
                            for (d, &r) in dst.iter_mut().zip(row) {
                                *d += aik * r;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn assert_bits_match_oracle(a: &Tensor, b: &Tensor, what: &str) {
        let fast = gemm(a, b).unwrap();
        let slow = axpy_oracle(a, b);
        for (at, (x, y)) in fast.as_slice().iter().zip(&slow).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {at}: {x} vs {y}");
        }
    }

    /// Every tile shape — whole 4 × 8 tiles, ragged rows, ragged columns,
    /// both — and both sides of the parallel gate, dense and sparse.
    #[test]
    fn gemm_is_bit_identical_to_the_axpy_kernel() {
        use crate::SeededRng;
        let mut rng = SeededRng::new(23);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (33, 34, 35),
            (64, 1, 17),
            (32, 784, 32),
            (32, 32, 784),
            (6, 27, 1024),
        ] {
            let b = rng.uniform_tensor(Shape::matrix(k, n), -1.0, 1.0);
            let dense = rng.uniform_tensor(Shape::matrix(m, k), -1.0, 1.0);
            assert_bits_match_oracle(&dense, &b, &format!("dense {m}x{k}x{n}"));

            // A ReLU output: more than half the entries are exactly zero.
            let mut relu = rng.uniform_tensor(Shape::matrix(m, k), -1.5, 1.0);
            relu.as_mut_slice().iter_mut().for_each(|x| *x = x.max(0.0));
            let zeros = relu.as_slice().iter().filter(|&&x| x == 0.0).count();
            assert!(m * k < 16 || 2 * zeros >= m * k, "{zeros} of {}", m * k);
            assert_bits_match_oracle(&relu, &b, &format!("relu {m}x{k}x{n}"));
        }
    }

    /// Whole 4-row groups that are zero at a step (the skipped case),
    /// groups that are zero in some rows only, and negative zeros on both
    /// sides, whose products are `-0.0` and must not surface in a sum.
    #[test]
    fn gemm_zero_groups_and_negative_zeros_match_the_axpy_kernel() {
        use crate::SeededRng;
        let mut rng = SeededRng::new(29);
        let (m, k, n) = (11, 13, 19);
        let mut a = rng.uniform_tensor(Shape::matrix(m, k), -1.0, 1.0);
        let mut b = rng.uniform_tensor(Shape::matrix(k, n), -1.0, 1.0);
        for (at, x) in a.as_mut_slice().iter_mut().enumerate() {
            let (i, p) = (at / k, at % k);
            match (i / 4 + p) % 4 {
                0 => *x = 0.0,                // the whole group of four rows
                1 if i % 2 == 0 => *x = -0.0, // part of a group
                2 if i % 4 == 3 => *x = 0.0,
                _ => {}
            }
        }
        for x in b.as_mut_slice().iter_mut().step_by(7) {
            *x = -0.0;
        }
        assert_bits_match_oracle(&a, &b, "zero groups");

        // All of A zero or negative zero: every sum stays +0.0.
        let a = Tensor::from_vec(
            Shape::matrix(m, k),
            (0..m * k)
                .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                .collect(),
        )
        .unwrap();
        assert_bits_match_oracle(&a, &b, "all zero");
        let c = gemm(&a, &b).unwrap();
        assert!(c.as_slice().iter().all(|x| x.to_bits() == 0));
    }

    /// The one place the tile departs from the per-element skip: a zero
    /// in `A` against a non-finite entry of `B`. The old kernel never
    /// formed `0 · ∞`; the tile forms it unless all four rows of the tile
    /// are zero at that step.
    #[test]
    fn gemm_zero_times_non_finite_is_nan_unless_the_whole_tile_is_zero() {
        // Rows 0..4 share a tile; row 4 is a ragged tile of its own.
        // Step k = 1 meets B's infinity.
        let mut a = Tensor::ones(Shape::matrix(5, 2));
        let mut b = Tensor::ones(Shape::matrix(2, 1));
        b.as_mut_slice()[1] = f32::INFINITY;
        a.set(&[0, 1], 0.0).unwrap();
        a.set(&[4, 1], 0.0).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert!(c.as_slice()[0].is_nan(), "0 · ∞ beside non-zero rows");
        assert_eq!(c.as_slice()[1], f32::INFINITY);
        assert_eq!(c.as_slice()[4], 1.0, "a one-row tile skips its own zero");
        assert_eq!(axpy_oracle(&a, &b)[0], 1.0, "the old kernel skipped it");

        for i in 0..4 {
            a.set(&[i, 1], 0.0).unwrap();
        }
        assert_eq!(gemm(&a, &b).unwrap().as_slice(), &[1.0; 5]);
    }

    #[test]
    fn gemm_matches_naive_on_odd_sizes() {
        use crate::SeededRng;
        let mut rng = SeededRng::new(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (33, 34, 35), (64, 1, 17)] {
            let a = rng.uniform_tensor(Shape::matrix(m, k), -1.0, 1.0);
            let b = rng.uniform_tensor(Shape::matrix(k, n), -1.0, 1.0);
            let fast = gemm(&a, &b).unwrap();
            let slow = naive(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(4, 2));
        assert!(matches!(
            gemm(&a, &b),
            Err(TensorError::MatmulDimensions { .. })
        ));
        let v = Tensor::zeros(Shape::vector(3));
        assert!(matches!(
            gemm(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            gemm(&a, &v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_gemm() {
        use crate::SeededRng;
        let mut rng = SeededRng::new(3);
        let a = rng.uniform_tensor(Shape::matrix(5, 7), -1.0, 1.0);
        let x = rng.uniform_tensor(Shape::vector(7), -1.0, 1.0);
        let xm = x.reshape(Shape::matrix(7, 1)).unwrap();
        let via_gemm = gemm(&a, &xm).unwrap();
        let direct = matvec(&a, &x).unwrap();
        for (p, q) in direct.as_slice().iter().zip(via_gemm.as_slice()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn matvec_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let x = Tensor::zeros(Shape::vector(4));
        assert!(matvec(&a, &x).is_err());
        let m = Tensor::zeros(Shape::matrix(3, 1));
        assert!(matvec(&a, &m).is_err());
    }

    #[test]
    fn identity_round_trip() {
        let mut eye = Tensor::zeros(Shape::matrix(4, 4));
        for i in 0..4 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        let x = Tensor::from_vec(Shape::matrix(4, 2), (0..8).map(|i| i as f32).collect()).unwrap();
        assert_eq!(gemm(&eye, &x).unwrap(), x);
    }
}
