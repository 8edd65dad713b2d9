//! The 16-lane `i16 × i16 → i32` multiply-accumulate step of the integer
//! Madd tile kernel, and the executor's entry into a lane body.
//!
//! An [`Acc`] is eight `i32` lanes: [`Acc::madd`] adds the pairwise
//! products `a[2j]·b[2j] + a[2j+1]·b[2j+1]` into lane `j`, [`Acc::sum`]
//! folds the lanes once, at the end of a dot product. All lane arithmetic
//! wraps: the quant plan keeps every true sum inside `2^30`, so a
//! licensed op never wraps, and the tile kernel re-checks that in `i64`
//! under `debug_assertions`.
//!
//! Two bodies: `Avx2` (`vpmaddwd`/`vpaddd`) on `x86_64`, and `Portable`,
//! compiled everywhere and tested lane for lane against the AVX2 one.
//! Each op kind's kernel is a [`LaneWork`], generic over the body and
//! entered through [`Detect`], the crate's one CPU feature check, which
//! picks it: the executor enters once per encode and once per op. On an
//! AVX2 CPU each work type is one `#[target_feature(enable = "avx2")]`
//! function of its own — the encoder, the `f32` multiply, the Madd tile,
//! the step ops — so an edit to one kernel leaves the others' code as it
//! is; the frames enable no FMA, so `f32` results keep their bits.
//! Any other CPU runs the portable body, with the same bits.
//!
//! The one module in the crate allowed to use `unsafe`; the crate root
//! is `#![deny(unsafe_code)]`. `Avx2` is named only behind the check.
#![allow(unsafe_code)]

/// Eight wrapping `i32` multiply-accumulate lanes.
pub(crate) trait Acc: Copy {
    fn zero() -> Self;
    /// Adds `a[2j]·b[2j] + a[2j+1]·b[2j+1]` into lane `j`.
    fn madd(&mut self, a: &[i16; 16], b: &[i16; 16]);
    fn sum(self) -> i32;
}

/// One op kind's kernel, generic over the lane body [`Detect`] picks. Its
/// `run` and the kernels it calls are `#[inline(always)]`, so that they
/// compile inside the work's own AVX2 function, not called from it.
pub(crate) trait LaneWork {
    type Out;
    fn run<A: Acc>(self) -> Self::Out;
}

/// How the executor reaches a lane body: [`Detect`] when it serves;
/// tests also run ops and whole batches on [`Portable`].
pub(crate) trait Body {
    fn run<W: LaneWork>(work: W) -> W::Out;
}

/// The fastest lane body this CPU executes: the crate's one feature check.
pub(crate) struct Detect;

impl Body for Detect {
    fn run<W: LaneWork>(work: W) -> W::Out {
        #[cfg(target_arch = "x86_64")]
        if avx2_detected() {
            // SAFETY: the CPU executes AVX2.
            return unsafe { avx2::enter(work) };
        }
        work.run::<Portable>()
    }
}

#[cfg(test)]
impl Body for Portable {
    fn run<W: LaneWork>(work: W) -> W::Out {
        work.run::<Portable>()
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[derive(Clone, Copy)]
pub(crate) struct Portable([i32; 8]);

impl Acc for Portable {
    #[inline(always)]
    fn zero() -> Self {
        Portable([0; 8])
    }

    #[inline(always)]
    fn madd(&mut self, a: &[i16; 16], b: &[i16; 16]) {
        for (j, lane) in self.0.iter_mut().enumerate() {
            let lo = i32::from(a[2 * j]) * i32::from(b[2 * j]);
            let hi = i32::from(a[2 * j + 1]) * i32::from(b[2 * j + 1]);
            *lane = lane.wrapping_add(lo.wrapping_add(hi));
        }
    }

    #[inline(always)]
    fn sum(self) -> i32 {
        self.0.iter().fold(0i32, |s, &l| s.wrapping_add(l))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Acc, LaneWork};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_shuffle_epi32,
    };

    /// Eight lanes in one AVX2 register. Every `unsafe` below rests on
    /// this type being named only in [`enter`] and in tests that check
    /// for AVX2 first: a value of it exists only on a CPU with AVX2.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(pub(super) __m256i);

    /// Runs `work` on the AVX2 body: one AVX2 function per work type,
    /// compiling what it inlines for AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn enter<W: LaneWork>(work: W) -> W::Out {
        work.run::<Avx2>()
    }

    impl Acc for Avx2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: the CPU executes AVX2 (see `Avx2`).
            Avx2(unsafe { _mm256_setzero_si256() })
        }

        #[inline(always)]
        fn madd(&mut self, a: &[i16; 16], b: &[i16; 16]) {
            // SAFETY: as in `zero`. Each pointer comes from a reference
            // to 32 readable bytes, and `loadu` needs no alignment.
            self.0 = unsafe {
                let a = _mm256_loadu_si256(a.as_ptr().cast());
                let b = _mm256_loadu_si256(b.as_ptr().cast());
                _mm256_add_epi32(self.0, _mm256_madd_epi16(a, b))
            };
        }

        #[inline(always)]
        fn sum(self) -> i32 {
            // SAFETY: as in `zero`; register-only operations. Folds the
            // upper 128 bits onto the lower, then halves, then lane 1.
            unsafe {
                let v = self.0;
                let s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
                let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_11_10>(s));
                _mm_cvtsi128_si32(_mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s)))
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::avx2::Avx2;
    use super::{avx2_detected, Acc, Portable};
    use rapidnn_prop::{check, SeededRng};

    /// Runs both bodies over the same vector pairs and compares the
    /// lanes after every step, then the folded sum. On a CPU without
    /// AVX2 it says so and checks nothing.
    fn assert_same(pairs: &[([i16; 16], [i16; 16])]) {
        if !avx2_detected() {
            eprintln!("skipped: this CPU does not execute AVX2");
            return;
        }
        let (mut fast, mut plain) = (Avx2::zero(), Portable::zero());
        for (a, b) in pairs {
            fast.madd(a, b);
            plain.madd(a, b);
            let mut lanes = [0i32; 8];
            // SAFETY: AVX2 was detected; `lanes` is 32 writable bytes
            // and `storeu` needs no alignment.
            unsafe { std::arch::x86_64::_mm256_storeu_si256(lanes.as_mut_ptr().cast(), fast.0) };
            assert_eq!(lanes, plain.0, "a={a:?} b={b:?}");
        }
        assert_eq!(fast.sum(), plain.sum());
    }

    #[test]
    fn portable_matches_avx2_on_random_vectors() {
        check(64, |rng: &mut SeededRng| {
            let mut draw = || -> [i16; 16] {
                std::array::from_fn(|_| (rng.index(1 << 16) as i32 - (1 << 15)) as i16)
            };
            let pairs: Vec<_> = (0..32).map(|_| (draw(), draw())).collect();
            assert_same(&pairs);
        });
    }

    #[test]
    fn portable_matches_avx2_on_extremes() {
        let ext = [i16::MIN, i16::MAX, -1, 0, 1];
        // Every extreme against every extreme in every lane pair,
        // including the one wrapping case of `vpmaddwd` itself:
        // MIN·MIN + MIN·MIN = 2^31.
        for &x in &ext {
            for &y in &ext {
                for &z in &ext {
                    let a = [x, y, z, x, y, z, x, y, z, z, y, x, x, z, y, x];
                    let b = [x, x, y, y, z, z, x, z, y, x, z, z, x, y, y, z];
                    assert_same(&[(a, b), (b, a), (a, a), (b, b)]);
                }
            }
        }
        // Accumulator wrap: 2^31 added repeatedly walks the lanes
        // through i32::MIN and back.
        assert_same(&[([i16::MIN; 16], [i16::MIN; 16]); 5]);
        assert_same(&[([i16::MAX; 16], [i16::MAX; 16]); 9]);
    }
}
