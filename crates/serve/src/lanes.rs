//! The 8-lane `i16 × i16 → i32` multiply-accumulate step of the integer
//! Madd tile kernel, behind a safe [`Acc`].
//!
//! One [`Acc`] is four `i32` lanes; [`Acc::madd`] adds the pairwise
//! products `a[2j]·b[2j] + a[2j+1]·b[2j+1]` into lane `j` and
//! [`Acc::sum`] folds the lanes once, at the end of a dot product. All
//! lane arithmetic wraps: the quant plan keeps every true sum inside
//! `2^30`, so a licensed op never wraps, and the tile kernel re-checks
//! that in `i64` under `debug_assertions`.
//!
//! On `x86_64` the body is SSE2 (`pmaddwd`/`paddd`), which is part of
//! that architecture's baseline: no runtime detection. Everywhere else
//! the [`portable`] body runs; it is compiled on every target and unit
//! tested lane for lane against the SSE2 one.
//!
//! The one module in the crate allowed to use `unsafe`; the crate root
//! is `#![deny(unsafe_code)]`.
#![allow(unsafe_code)]

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use portable::Acc;
#[cfg(target_arch = "x86_64")]
pub(crate) use sse2::Acc;

// Off x86_64 this is the kernel; on x86_64 only the tests use it.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
mod portable {
    /// Four wrapping `i32` lanes.
    #[derive(Clone, Copy)]
    pub(crate) struct Acc(pub(super) [i32; 4]);

    impl Acc {
        pub(crate) fn zero() -> Acc {
            Acc([0; 4])
        }

        #[inline(always)]
        pub(crate) fn madd(&mut self, a: &[i16; 8], b: &[i16; 8]) {
            for (j, lane) in self.0.iter_mut().enumerate() {
                let lo = i32::from(a[2 * j]) * i32::from(b[2 * j]);
                let hi = i32::from(a[2 * j + 1]) * i32::from(b[2 * j + 1]);
                *lane = lane.wrapping_add(lo.wrapping_add(hi));
            }
        }

        #[inline(always)]
        pub(crate) fn sum(self) -> i32 {
            self.0.iter().fold(0i32, |s, &l| s.wrapping_add(l))
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_madd_epi16,
        _mm_setzero_si128, _mm_shuffle_epi32,
    };

    /// Four wrapping `i32` lanes in one SSE register.
    #[derive(Clone, Copy)]
    pub(crate) struct Acc(__m128i);

    impl Acc {
        pub(crate) fn zero() -> Acc {
            // SAFETY: SSE2 is architecturally part of x86_64, so every
            // CPU this `cfg` compiles for executes the instruction.
            Acc(unsafe { _mm_setzero_si128() })
        }

        #[inline(always)]
        pub(crate) fn madd(&mut self, a: &[i16; 8], b: &[i16; 8]) {
            // SAFETY: SSE2 is baseline on x86_64 (see `zero`). Each
            // pointer comes from a reference to 16 readable bytes, and
            // `loadu` has no alignment requirement.
            self.0 = unsafe {
                let a = _mm_loadu_si128(a.as_ptr().cast());
                let b = _mm_loadu_si128(b.as_ptr().cast());
                _mm_add_epi32(self.0, _mm_madd_epi16(a, b))
            };
        }

        #[inline(always)]
        pub(crate) fn sum(self) -> i32 {
            // SAFETY: SSE2 is baseline on x86_64 (see `zero`); these
            // are register-only operations.
            unsafe {
                // Fold the upper half onto the lower, then lane 1 onto 0.
                let s = _mm_add_epi32(self.0, _mm_shuffle_epi32::<0b00_00_11_10>(self.0));
                _mm_cvtsi128_si32(_mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s)))
            }
        }

        #[cfg(test)]
        pub(super) fn lanes(self) -> [i32; 4] {
            let mut out = [0i32; 4];
            // SAFETY: SSE2 is baseline on x86_64 (see `zero`); `out` is
            // 16 writable bytes and `storeu` needs no alignment.
            unsafe { std::arch::x86_64::_mm_storeu_si128(out.as_mut_ptr().cast(), self.0) };
            out
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::portable;
    use super::sse2::Acc;
    use rapidnn_prop::{check, SeededRng};

    /// Runs both bodies over the same vector pairs and compares the
    /// lanes after every step, then the folded sum.
    fn assert_same(pairs: &[([i16; 8], [i16; 8])]) {
        let (mut fast, mut plain) = (Acc::zero(), portable::Acc::zero());
        for (a, b) in pairs {
            fast.madd(a, b);
            plain.madd(a, b);
            assert_eq!(fast.lanes(), plain.0, "a={a:?} b={b:?}");
        }
        assert_eq!(fast.sum(), plain.sum());
    }

    #[test]
    fn portable_matches_sse2_on_random_vectors() {
        check(64, |rng: &mut SeededRng| {
            let mut draw = || -> [i16; 8] {
                std::array::from_fn(|_| (rng.index(1 << 16) as i32 - (1 << 15)) as i16)
            };
            let pairs: Vec<_> = (0..32).map(|_| (draw(), draw())).collect();
            assert_same(&pairs);
        });
    }

    #[test]
    fn portable_matches_sse2_on_extremes() {
        let ext = [i16::MIN, i16::MAX, -1, 0, 1];
        // Every extreme against every extreme in every lane pair,
        // including the one wrapping case of `pmaddwd` itself:
        // MIN·MIN + MIN·MIN = 2^31.
        for &x in &ext {
            for &y in &ext {
                for &z in &ext {
                    let a = [x, y, z, x, y, z, x, y];
                    let b = [x, x, y, y, z, z, x, z];
                    assert_same(&[(a, b), (b, a), (a, a), (b, b)]);
                }
            }
        }
        // Accumulator wrap: 2^31 added repeatedly walks the lanes
        // through i32::MIN and back.
        assert_same(&[([i16::MIN; 8], [i16::MIN; 8]); 5]);
        assert_same(&[([i16::MAX; 8], [i16::MAX; 8]); 9]);
    }
}
