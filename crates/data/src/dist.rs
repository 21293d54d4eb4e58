//! Length distributions for synthetic token/patch counts.
//!
//! Fig 2 of the paper shows heavily skewed length distributions: in
//! `coyo700m`, 98.23% of text sequences are ≤ 64 tokens while the top 1.62%
//! carry 9.3% of all tokens. [`LengthDist`] expresses such shapes as
//! composable samplers.

use msd_sim::SimRng;

/// A distribution over positive lengths.
#[derive(Debug, Clone)]
pub enum LengthDist {
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Log-normal with the underlying normal's mean and std.
    LogNormal {
        /// Mean of `ln(X)`.
        mu: f64,
        /// Std of `ln(X)`.
        sigma: f64,
    },
    /// Pareto (power-law tail) with scale `x_min` and shape `alpha`.
    Pareto {
        /// Minimum value (scale).
        x_min: f64,
        /// Tail exponent (smaller = heavier tail).
        alpha: f64,
    },
    /// Zipf over ranks `1..=n` with exponent `s`, scaled by `unit`.
    Zipf {
        /// Number of ranks.
        n: u32,
        /// Exponent.
        s: f64,
        /// Multiplier applied to the sampled rank.
        unit: f64,
    },
    /// Weighted mixture of sub-distributions.
    Mixture(Vec<(f64, LengthDist)>),
    /// Clamp an inner distribution into `[lo, hi]`.
    Clamped {
        /// Inner distribution.
        inner: Box<LengthDist>,
        /// Inclusive lower clamp.
        lo: f64,
        /// Inclusive upper clamp.
        hi: f64,
    },
}

impl LengthDist {
    /// Draws one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            LengthDist::Constant(v) => *v,
            LengthDist::Uniform { lo, hi } => rng.f64_range(*lo, *hi),
            LengthDist::LogNormal { mu, sigma } => rng.lognormal(*mu, *sigma),
            LengthDist::Pareto { x_min, alpha } => {
                let u = (1.0 - rng.f64()).max(1e-12);
                x_min / u.powf(1.0 / alpha)
            }
            LengthDist::Zipf { n, s, unit } => {
                // Inverse-CDF sampling over the (small) rank table.
                let norm: f64 = (1..=*n).map(|k| 1.0 / (k as f64).powf(*s)).sum();
                let mut target = rng.f64() * norm;
                for k in 1..=*n {
                    let p = 1.0 / (k as f64).powf(*s);
                    if target < p {
                        return k as f64 * unit;
                    }
                    target -= p;
                }
                f64::from(*n) * unit
            }
            LengthDist::Mixture(parts) => {
                match rng.weighted_index_by(parts.len(), |i| parts[i].0) {
                    Some(i) => parts[i].1.sample(rng),
                    None => 0.0,
                }
            }
            LengthDist::Clamped { inner, lo, hi } => inner.sample(rng).clamp(*lo, *hi),
        }
    }

    /// Draws one value rounded to a positive integer (minimum 1).
    pub fn sample_len(&self, rng: &mut SimRng) -> u32 {
        self.sample(rng).round().max(1.0).min(u32::MAX as f64) as u32
    }

    /// Convenience: log-normal parameterized by its *median* and the
    /// multiplicative spread `sigma` (std of the log).
    pub fn lognormal_median(median: f64, sigma: f64) -> LengthDist {
        LengthDist::LogNormal {
            mu: median.max(1e-9).ln(),
            sigma,
        }
    }

    /// Clamps this distribution into `[lo, hi]`.
    pub fn clamped(self, lo: f64, hi: f64) -> LengthDist {
        LengthDist::Clamped {
            inner: Box::new(self),
            lo,
            hi,
        }
    }

    /// Empirical mean over `n` draws (test/report helper).
    pub fn empirical_mean(&self, rng: &mut SimRng, n: usize) -> f64 {
        (0..n).map(|_| self.sample(rng)).sum::<f64>() / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed(0xDA7A)
    }

    #[test]
    fn constant_and_uniform() {
        let mut r = rng();
        assert_eq!(LengthDist::Constant(5.0).sample(&mut r), 5.0);
        for _ in 0..1000 {
            let v = LengthDist::Uniform { lo: 2.0, hi: 4.0 }.sample(&mut r);
            assert!((2.0..4.0).contains(&v));
        }
    }

    #[test]
    fn lognormal_median_matches() {
        let mut r = rng();
        let d = LengthDist::lognormal_median(100.0, 0.8);
        let mut samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.05, "median = {median}");
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut r = rng();
        let d = LengthDist::Pareto {
            x_min: 10.0,
            alpha: 1.2,
        };
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|s| *s >= 10.0));
        // Top 1% should carry a disproportionate share of the mass.
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total: f64 = sorted.iter().sum();
        let top: f64 = sorted[n * 99 / 100..].iter().sum();
        assert!(top / total > 0.15, "top share = {}", top / total);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut r = rng();
        let d = LengthDist::Zipf {
            n: 10,
            s: 1.5,
            unit: 1.0,
        };
        let mut counts = [0u32; 11];
        for _ in 0..20_000 {
            counts[d.sample(&mut r) as usize] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[5]);
    }

    #[test]
    fn mixture_respects_weights() {
        let mut r = rng();
        let d = LengthDist::Mixture(vec![
            (0.9, LengthDist::Constant(1.0)),
            (0.1, LengthDist::Constant(100.0)),
        ]);
        let n = 50_000;
        let big = (0..n).filter(|_| d.sample(&mut r) > 50.0).count();
        let share = big as f64 / n as f64;
        assert!((share - 0.1).abs() < 0.01, "share = {share}");
    }

    #[test]
    fn clamped_respects_bounds() {
        let mut r = rng();
        let d = LengthDist::lognormal_median(1000.0, 2.0).clamped(16.0, 4096.0);
        for _ in 0..5000 {
            let v = d.sample(&mut r);
            assert!((16.0..=4096.0).contains(&v));
        }
    }

    #[test]
    fn sample_len_is_positive_integer() {
        let mut r = rng();
        let d = LengthDist::Constant(0.2);
        assert_eq!(d.sample_len(&mut r), 1);
        let d = LengthDist::Constant(7.6);
        assert_eq!(d.sample_len(&mut r), 8);
    }

    #[test]
    fn empty_mixture_degenerates_to_zero() {
        let mut r = rng();
        assert_eq!(LengthDist::Mixture(vec![]).sample(&mut r), 0.0);
    }
}
