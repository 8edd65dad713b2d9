use crate::{Shape, Tensor};

/// Weight-initialisation schemes supported by [`SeededRng::init_tensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Initializer {
    /// Uniform Xavier/Glorot initialisation: `U(-l, l)` with
    /// `l = sqrt(6 / (fan_in + fan_out))`. Suited to sigmoid/tanh layers.
    XavierUniform,
    /// Gaussian He initialisation: `N(0, sqrt(2 / fan_in))`. Suited to ReLU
    /// layers.
    HeNormal,
    /// All zeros (used for biases).
    Zeros,
}

/// Deterministic random source shared across the workspace.
///
/// Every stochastic component (weight init, dataset synthesis, sampling,
/// Monte-Carlo variation) takes a `SeededRng` so experiments replay
/// bit-identically.
///
/// The generator is a self-contained xoshiro256++ (Blackman & Vigna)
/// seeded through SplitMix64 — no external crates, so offline builds work
/// and the stream is stable across platforms and toolchains.
///
/// # Examples
///
/// ```
/// use rapidnn_tensor::{SeededRng, Shape};
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(
///     a.uniform_tensor(Shape::vector(4), 0.0, 1.0),
///     b.uniform_tensor(Shape::vector(4), 0.0, 1.0),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
}

/// Values per wave of [`SeededRng::fill_normal`]: bounds its buffer of
/// raw draws at 256 KB however long the fill. (An unbounded buffer read
/// faster on the benchmark's set-up and higher on its peak RSS; waves of
/// 8 192 paid a pool dispatch per 8 192 values and read slower.)
const NORMAL_WAVE: usize = 32_768;

/// Values per pool task of a [`SeededRng::fill_normal`] wave. Fixed, so
/// which values share a task never depends on the thread count.
const NORMAL_CHUNK: usize = 4_096;

/// `[0, 1)` fraction of a 24-bit draw.
fn fraction_of(draw: u32) -> f32 {
    draw as f32 * (1.0 / 16_777_216.0)
}

/// Uniform sample in `[low, high)` from a 24-bit draw.
fn uniform_of(draw: u32, low: f32, high: f32) -> f32 {
    let v = low + (high - low) * fraction_of(draw);
    // Guard against the upper bound under f32 rounding.
    if v >= high && low < high {
        low
    } else {
        v
    }
}

/// Box–Muller: the standard-normal value of two 24-bit draws, the
/// first setting the radius and the second the angle.
fn box_muller(radius: u32, angle: u32) -> f32 {
    let u1 = uniform_of(radius, f32::EPSILON, 1.0).max(f32::EPSILON);
    let u2 = uniform_of(angle, 0.0, 1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// SplitMix64 step: expands a 64-bit seed into well-mixed state words.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SeededRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; useful for splitting one
    /// experiment seed into per-component streams.
    pub fn fork(&mut self) -> Self {
        SeededRng::new(self.next_u64())
    }

    /// The top 24 bits of the next output: the entropy of one fraction.
    fn draw(&mut self) -> u32 {
        (self.next_u64() >> 40) as u32
    }

    /// Uniform fraction in `[0, 1)` with 24 bits of mantissa entropy.
    fn fraction(&mut self) -> f32 {
        fraction_of(self.draw())
    }

    /// Uniform sample in `[low, high)`.
    pub fn uniform(&mut self, low: f32, high: f32) -> f32 {
        uniform_of(self.draw(), low, high)
    }

    /// Standard-normal sample via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        let radius = self.draw();
        box_muller(radius, self.draw())
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal()
    }

    /// Fills `out` with what `out.len()` calls of
    /// [`normal_with`](Self::normal_with) would return, in order, and
    /// leaves the generator where those calls would.
    ///
    /// The stream is inherently sequential but Box–Muller is not: each
    /// wave of up to 32 768 values draws its raw fractions in order into
    /// one reused buffer, then runs the transform on the workspace pool
    /// in fixed 4 096-value chunks. Every value is a pure function of its
    /// own two draws, so the output is the same for any thread count.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std_dev: f32) {
        let mut draws: Vec<[u32; 2]> = Vec::with_capacity(out.len().min(NORMAL_WAVE));
        for wave in out.chunks_mut(NORMAL_WAVE) {
            draws.clear();
            draws.extend((0..wave.len()).map(|_| {
                let radius = self.draw();
                [radius, self.draw()]
            }));
            rapidnn_pool::for_chunks_mut(wave, NORMAL_CHUNK, |_, start, chunk| {
                for (v, &[radius, angle]) in chunk.iter_mut().zip(&draws[start..]) {
                    *v = mean + std_dev * box_muller(radius, angle);
                }
            });
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        // Lemire's multiply-shift range reduction (bias is negligible for
        // the bounds used here and the stream stays platform-stable).
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.fraction() < p
    }

    /// Tensor of uniform samples in `[low, high)`.
    pub fn uniform_tensor(&mut self, shape: Shape, low: f32, high: f32) -> Tensor {
        let volume = shape.volume();
        let data = (0..volume).map(|_| self.uniform(low, high)).collect();
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }

    /// Tensor of normal samples.
    pub fn normal_tensor(&mut self, shape: Shape, mean: f32, std_dev: f32) -> Tensor {
        let mut data = vec![0.0; shape.volume()];
        self.fill_normal(&mut data, mean, std_dev);
        Tensor::from_vec(shape, data).expect("volume matches by construction")
    }

    /// Tensor initialised with the given scheme.
    ///
    /// `fan_in`/`fan_out` are the layer fan counts used by Xavier/He.
    pub fn init_tensor(
        &mut self,
        shape: Shape,
        init: Initializer,
        fan_in: usize,
        fan_out: usize,
    ) -> Tensor {
        match init {
            Initializer::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                self.uniform_tensor(shape, -limit, limit)
            }
            Initializer::HeNormal => {
                let std_dev = (2.0 / fan_in.max(1) as f32).sqrt();
                self.normal_tensor(shape, 0.0, std_dev)
            }
            Initializer::Zeros => Tensor::zeros(shape),
        }
    }

    /// Chooses `count` distinct indices from `[0, bound)` (reservoir
    /// sampling). When `count >= bound`, returns all indices in order.
    pub fn sample_indices(&mut self, bound: usize, count: usize) -> Vec<usize> {
        if count >= bound {
            return (0..bound).collect();
        }
        let mut reservoir: Vec<usize> = (0..count).collect();
        for i in count..bound {
            let j = self.index(i + 1);
            if j < count {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(1);
        for _ in 0..16 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let va: Vec<f32> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SeededRng::new(7);
        for _ in 0..10_000 {
            let v = rng.uniform(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&v), "{v}");
        }
    }

    #[test]
    fn index_covers_all_values() {
        let mut rng = SeededRng::new(13);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = SeededRng::new(99);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    /// A fill is the loop of `normal_with` it replaces, bit for bit, and
    /// leaves the stream where that loop would: around the chunk and
    /// wave edges, past two waves, at one, two and four threads.
    #[test]
    fn fill_normal_is_a_loop_of_normal_with() {
        let lens = [
            0,
            1,
            NORMAL_CHUNK - 1,
            NORMAL_CHUNK,
            NORMAL_CHUNK + 1,
            NORMAL_WAVE - 1,
            NORMAL_WAVE,
            NORMAL_WAVE + 1,
            70_000,
        ];
        for threads in [1, 2, 4] {
            for (i, &n) in lens.iter().enumerate() {
                let (mean, std_dev) = (0.25 * i as f32, 1.0 + i as f32);
                let mut looped = SeededRng::new(n as u64);
                let expected: Vec<u32> = (0..n)
                    .map(|_| looped.normal_with(mean, std_dev).to_bits())
                    .collect();
                let mut filled = SeededRng::new(n as u64);
                let mut out = vec![0.0f32; n];
                rapidnn_pool::with_threads(threads, || filled.fill_normal(&mut out, mean, std_dev));
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert!(got == expected, "n = {n} at {threads} threads");
                assert_eq!(filled.next_u64(), looped.next_u64(), "n = {n}");
            }
        }
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = SeededRng::new(5);
        let t = rng.init_tensor(Shape::matrix(10, 10), Initializer::XavierUniform, 10, 10);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn zeros_initializer_is_zero() {
        let mut rng = SeededRng::new(5);
        let t = rng.init_tensor(Shape::vector(8), Initializer::Zeros, 1, 1);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = SeededRng::new(11);
        let picks = rng.sample_indices(100, 20);
        assert_eq!(picks.len(), 20);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(picks.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_saturates() {
        let mut rng = SeededRng::new(11);
        assert_eq!(rng.sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::new(4);
        let mut items: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SeededRng::new(8);
        let mut child = parent.fork();
        // The child stream must be deterministic given the parent seed.
        let mut parent2 = SeededRng::new(8);
        let mut child2 = parent2.fork();
        assert_eq!(child.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
    }
}
