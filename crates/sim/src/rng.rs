//! Seedable, splittable random number generation.
//!
//! Every stochastic component in the reproduction (dataset synthesis, mixing
//! schedules, failure injection, latency jitter) draws from a [`SimRng`] so
//! that a single `u64` seed makes an entire experiment bit-reproducible.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, implemented
//! locally so the stream is stable regardless of `rand` version bumps. It
//! implements [`rand::TryRng`] infallibly (and therefore `rand::Rng`), so
//! the full `rand::RngExt` extension API is available on it.

use std::convert::Infallible;

use rand::TryRng;

/// Advances a SplitMix64 state and returns the next output.
///
/// Used both for seeding xoshiro and for [`SimRng::split`].
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// # Examples
///
/// ```
/// use msd_sim::SimRng;
/// use rand::RngExt;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.random_range(0..1000), b.random_range(0..1000));
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Returns the raw generator state (for checkpointing).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Restores a generator from [`SimRng::state`] output.
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// Derives an independent child generator for a named subcomponent.
    ///
    /// Splitting (rather than sharing a generator) keeps components'
    /// random streams independent of each other's draw counts, so adding a
    /// draw in one module does not perturb another module's stream.
    pub fn split(&mut self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::seed(self.next() ^ h)
    }

    /// Returns the next value in the stream.
    #[inline]
    pub fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits of the output, scaled to [0, 1).
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Returns a uniform integer in `[0, n)`; `n` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "SimRng::index called with n = 0");
        // Lemire-style widening reduction is unnecessary here; modulo bias is
        // negligible for n << 2^64 and determinism matters more than speed.
        (self.next() % n as u64) as usize
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal draw via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Log-normal draw parameterized by the underlying normal's `mu`/`sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal_with(mu, sigma).exp()
    }

    /// Exponential draw with the given rate `lambda`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        -self.f64().max(1e-300).ln() / lambda
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// Returns `None` if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        self.weighted_index_by(weights.len(), |i| weights[i])
    }

    /// [`SimRng::weighted_index`] over the weights `weight(0..len)`, for
    /// callers whose weights sit inside other data: no slice of them is
    /// collected. Consumes the same draw and picks the same index as the
    /// slice form over the same weights.
    pub fn weighted_index_by(
        &mut self,
        len: usize,
        weight: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        let total: f64 = (0..len).map(&weight).filter(|w| *w > 0.0).sum();
        self.weighted_index_of(total, len, weight)
    }

    /// [`SimRng::weighted_index_by`] with `total`, the positive weights
    /// summed in index order, already known (a caller drawing many times
    /// keeps it between draws): the same draw and the same index.
    pub fn weighted_index_of(
        &mut self,
        total: f64,
        len: usize,
        weight: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        if !(total > 0.0) {
            return None;
        }
        let mut x = self.f64() * total;
        for i in 0..len {
            let w = weight(i);
            if w <= 0.0 {
                continue;
            }
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        (0..len).rev().find(|&i| weight(i) > 0.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

impl TryRng for SimRng {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = SimRng::seed(8);
        assert_ne!(a.next(), c.next());
    }

    #[test]
    fn split_streams_are_independent() {
        let mut root = SimRng::seed(1);
        let mut x = root.split("loader");
        let mut y = root.split("planner");
        let xs: Vec<u64> = (0..8).map(|_| x.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| y.next()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed(3);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut r = SimRng::seed(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::seed(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::seed(9);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio = {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut r = SimRng::seed(10);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn weighted_index_by_draws_as_the_slice_form() {
        // A zero is skipped; a NaN is left out of the total but, once
        // reached, poisons the walk into the last-positive fallback.
        let weights = [0.5, 0.0, 2.0, f64::NAN, 1.0, 0.25];
        let (mut by_slice, mut by_index) = (SimRng::seed(31), SimRng::seed(31));
        let draws: Vec<usize> = (0..24)
            .map(|_| by_slice.weighted_index(&weights).unwrap())
            .collect();
        let indexed: Vec<usize> = (0..24)
            .map(|_| {
                by_index
                    .weighted_index_by(weights.len(), |i| weights[i])
                    .unwrap()
            })
            .collect();
        assert_eq!(indexed, draws);
        assert_eq!(
            draws,
            [0, 5, 5, 5, 5, 2, 2, 5, 2, 5, 0, 2, 5, 5, 5, 2, 5, 2, 5, 5, 2, 5, 0, 5]
        );
        assert_eq!(by_index.f64(), by_slice.f64(), "same draws consumed");
        assert_eq!(by_index.weighted_index_by(2, |_| 0.0), None);
        assert_eq!(by_index.weighted_index_by(0, |_| 1.0), None);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed(13);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        use rand::Rng;
        let mut r = SimRng::seed(17);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::seed(21);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }
}
