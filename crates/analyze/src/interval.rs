//! The interval abstract domain.
//!
//! Every value flowing through a compiled RAPIDNN program is drawn
//! from a finite set — codebook centroids, products of a weight-book
//! entry and an input-book entry, LUT outputs — so a closed interval
//! `[lo, hi]` is an exact-enough abstraction: the hull of a finite set, widened by a *proven* `f32`
//! rounding slack ([`f32_sum_slack`]) exactly where accumulation order
//! could nudge a concrete sum past the real hull. Bounds are kept in
//! `f64` so interval arithmetic itself never loses to rounding.

/// Closed interval `[lo, hi]` with `lo <= hi`, both finite.
///
/// Construction from data with NaN/Inf entries is refused
/// ([`Interval::of_slice`] returns `None`); the checker reports those
/// entries as [`NonFinite`](crate::DiagCode::NonFinite) errors before
/// interval propagation would consume them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Degenerate interval holding a single value.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The interval `[0, 0]`.
    pub fn zero() -> Self {
        Interval::point(0.0)
    }

    /// Hull of a slice; `None` when the slice is empty or any entry is
    /// non-finite.
    pub fn of_slice(values: &[f32]) -> Option<Self> {
        let mut it = values.iter();
        let first = f64::from(*it.next()?);
        if !first.is_finite() {
            return None;
        }
        let mut iv = Interval::point(first);
        for &v in it {
            let v = f64::from(v);
            if !v.is_finite() {
                return None;
            }
            iv.lo = iv.lo.min(v);
            iv.hi = iv.hi.max(v);
        }
        Some(iv)
    }

    /// Smallest interval containing both operands.
    #[must_use]
    pub fn hull(self, other: Interval) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Image under `max(0, x)` (the ReLU comparator).
    #[must_use]
    pub fn relu(self) -> Self {
        Interval {
            lo: self.lo.max(0.0),
            hi: self.hi.max(0.0),
        }
    }

    /// Largest absolute value in the interval.
    pub fn magnitude(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Interval widened by an explicit non-negative `margin` on both
    /// sides, used before reachability queries.
    ///
    /// The margin is not a heuristic: callers pass
    /// [`f32_sum_slack`] (or a composition of such slacks), a proven
    /// bound on how far a concrete `f32` evaluation can land from the
    /// real-valued quantity this interval hulls. With that bound the
    /// widened interval *contains every concrete runtime value*, so any
    /// codebook entry whose nearest-selection region lies wholly
    /// outside it is dead for every execution — liveness findings are
    /// sound enough to license deletion, not merely advisory. The
    /// exactness argument is pinned by the exhaustive-enumeration test
    /// in `checker.rs` (`reach_contains_every_concrete_f32_sum`).
    #[must_use]
    pub fn widened_by(self, margin: f64) -> Self {
        debug_assert!(margin >= 0.0 && margin.is_finite());
        Interval {
            lo: self.lo - margin,
            hi: self.hi + margin,
        }
    }
}

/// Proven bound on `|fl(Σ x_i) − Σ x_i|` for a left-to-right `f32`
/// summation of `terms` values whose absolute sum is at most `mag`.
///
/// The standard forward error bound for recursive summation is
/// `γ_n · Σ|x_i|` with `γ_n = n·u / (1 − n·u)` and `u = 2⁻²⁴` the
/// `f32` unit roundoff. We use `n · f32::EPSILON · mag` instead:
/// `f32::EPSILON = 2u`, so the result is at least twice `γ_n` whenever
/// `n·u ≤ 1/2` — the slack absorbs both the first-order bound and the
/// `f64` rounding of the interval arithmetic that produced `mag`
/// (whose own relative error is `2⁻²⁹` times smaller). The absolute
/// `f32::MIN_POSITIVE` term covers subnormal rounding, where relative
/// bounds do not apply (each subnormal rounding errs by at most
/// `2⁻¹⁴⁹`, so the normal-range floor dominates any realistic `n`).
pub fn f32_sum_slack(terms: usize, mag: f64) -> f64 {
    terms as f64 * f64::from(f32::EPSILON) * mag + f64::from(f32::MIN_POSITIVE)
}

/// Interval sum (exact for independent operands, an over-approx of
/// the true range otherwise — always sound).
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_hull_and_rejection() {
        let iv = Interval::of_slice(&[0.5, -1.25, 2.0]).unwrap();
        assert_eq!(iv, Interval { lo: -1.25, hi: 2.0 });
        assert!(Interval::of_slice(&[]).is_none());
        assert!(Interval::of_slice(&[1.0, f32::NAN]).is_none());
        assert!(Interval::of_slice(&[f32::INFINITY]).is_none());
    }

    #[test]
    fn arithmetic() {
        let a = Interval { lo: -1.0, hi: 2.0 };
        let b = Interval { lo: 0.5, hi: 0.5 };
        assert_eq!(a + b, Interval { lo: -0.5, hi: 2.5 });
        assert_eq!(a.hull(b), Interval { lo: -1.0, hi: 2.0 });
        assert_eq!(a.relu(), Interval { lo: 0.0, hi: 2.0 });
        assert_eq!(a.magnitude(), 2.0);
        assert!(a.contains(0.0));
        assert!(!a.contains(2.1));
        let w = a.widened_by(0.25);
        assert_eq!(
            w,
            Interval {
                lo: -1.25,
                hi: 2.25
            }
        );
    }

    /// `f32_sum_slack` really bounds the summation error: for every
    /// ordering of a stress set of magnitudes, `|fl(Σ) − Σ_f64|` stays
    /// under the slack computed from the term count and the magnitude
    /// sum.
    #[test]
    fn sum_slack_bounds_concrete_f32_summation() {
        let sets: &[&[f32]] = &[
            &[1.0e7, 1.0, -1.0e7, 3.5, 0.25, -2.0, 1.0e6, -999_983.0],
            &[0.1; 64],
            &[-3.25e-3, 7.5e4, 1.0e-8, -7.5e4, 2.0, 11.0, -13.5, 0.75],
        ];
        for xs in sets {
            let mag: f64 = xs.iter().map(|&x| f64::from(x).abs()).sum();
            let exact: f64 = xs.iter().map(|&x| f64::from(x)).sum();
            let slack = f32_sum_slack(xs.len(), mag);
            // Forward, reverse, and pairwise-rotated orders.
            for rot in 0..xs.len() {
                let mut fwd = 0.0f32;
                let mut rev = 0.0f32;
                for k in 0..xs.len() {
                    fwd += xs[(k + rot) % xs.len()];
                    rev += xs[(xs.len() - 1 - k + rot) % xs.len()];
                }
                assert!((f64::from(fwd) - exact).abs() <= slack);
                assert!((f64::from(rev) - exact).abs() <= slack);
            }
        }
        // The subnormal floor keeps the slack positive at zero magnitude.
        assert!(f32_sum_slack(0, 0.0) > 0.0);
    }
}
