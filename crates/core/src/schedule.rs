//! Data-mixture schedules for the `mix(schedule)` primitive.
//!
//! A schedule yields per-source sampling weights for each training step.
//! The paper's motivating policies are all representable: fixed mixtures,
//! staged training, sequence-length-style warmups, curriculum learning
//! (easy→hard interpolation), and loss-adaptive mixing that reweights
//! sources by observed training signal.

/// A per-step source-weight schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum MixSchedule {
    /// Fixed weights for the whole run.
    Static(Vec<f64>),
    /// Piecewise-constant: `(from_step, weights)` entries; the entry with
    /// the largest `from_step <= step` applies.
    Staged(Vec<(u64, Vec<f64>)>),
    /// Linear interpolation from `from` to `to` over `steps` steps —
    /// curriculum learning's easy→hard ramp is exactly this.
    Warmup {
        /// Weights at step 0.
        from: Vec<f64>,
        /// Weights at and after `steps`.
        to: Vec<f64>,
        /// Ramp length in steps.
        steps: u64,
    },
    /// Loss-adaptive: `base[i] · exp(sensitivity · loss[i])`, renormalized.
    /// Sources with higher recent loss are sampled more.
    LossAdaptive {
        /// Baseline weights.
        base: Vec<f64>,
        /// Exponential sensitivity to loss.
        sensitivity: f64,
        /// Most recent per-source losses (updated via `observe_loss`).
        losses: Vec<f64>,
    },
}

impl MixSchedule {
    /// Uniform static schedule over `n` sources.
    pub fn uniform(n: usize) -> Self {
        MixSchedule::Static(vec![1.0; n])
    }

    /// Number of sources this schedule covers.
    pub fn source_count(&self) -> usize {
        match self {
            MixSchedule::Static(w) => w.len(),
            MixSchedule::Staged(stages) => stages.first().map(|(_, w)| w.len()).unwrap_or(0),
            MixSchedule::Warmup { from, .. } => from.len(),
            MixSchedule::LossAdaptive { base, .. } => base.len(),
        }
    }

    /// Normalized weights at `step`. Always sums to 1 unless all-zero.
    pub fn weights(&self, step: u64) -> Vec<f64> {
        let raw = match self {
            MixSchedule::Static(w) => w.clone(),
            MixSchedule::Staged(stages) => {
                let mut current: Option<&Vec<f64>> = None;
                for (from, w) in stages {
                    if *from <= step {
                        current = Some(w);
                    }
                }
                current
                    .cloned()
                    .unwrap_or_else(|| stages.first().map(|(_, w)| w.clone()).unwrap_or_default())
            }
            MixSchedule::Warmup { from, to, steps } => {
                let t = if *steps == 0 {
                    1.0
                } else {
                    (step as f64 / *steps as f64).min(1.0)
                };
                from.iter().zip(to).map(|(f, g)| f + (g - f) * t).collect()
            }
            MixSchedule::LossAdaptive {
                base,
                sensitivity,
                losses,
            } => base
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let loss = losses.get(i).copied().unwrap_or(0.0);
                    b * (sensitivity * loss).exp()
                })
                .collect(),
        };
        normalize(raw)
    }

    /// Feeds fresh per-source losses into a loss-adaptive schedule
    /// (no-op for other variants).
    pub fn observe_loss(&mut self, new_losses: &[f64]) {
        if let MixSchedule::LossAdaptive { losses, .. } = self {
            losses.clear();
            losses.extend_from_slice(new_losses);
        }
    }
}

fn normalize(mut w: Vec<f64>) -> Vec<f64> {
    for x in &mut w {
        if !x.is_finite() || *x < 0.0 {
            *x = 0.0;
        }
    }
    let total: f64 = w.iter().sum();
    if total > 0.0 {
        for x in &mut w {
            *x /= total;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_normalized(w: &[f64]) {
        let sum: f64 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        assert!(w.iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn static_weights_normalize() {
        let s = MixSchedule::Static(vec![2.0, 6.0]);
        let w = s.weights(0);
        assert_normalized(&w);
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert_eq!(s.weights(1_000_000), w);
    }

    #[test]
    fn staged_switches_at_thresholds() {
        let s = MixSchedule::Staged(vec![
            (0, vec![1.0, 0.0]),
            (100, vec![0.5, 0.5]),
            (200, vec![0.0, 1.0]),
        ]);
        assert_eq!(s.weights(0), vec![1.0, 0.0]);
        assert_eq!(s.weights(99), vec![1.0, 0.0]);
        assert_eq!(s.weights(100), vec![0.5, 0.5]);
        assert_eq!(s.weights(500), vec![0.0, 1.0]);
    }

    #[test]
    fn warmup_interpolates_linearly() {
        let s = MixSchedule::Warmup {
            from: vec![1.0, 0.0],
            to: vec![0.0, 1.0],
            steps: 10,
        };
        assert_eq!(s.weights(0), vec![1.0, 0.0]);
        let mid = s.weights(5);
        assert!((mid[0] - 0.5).abs() < 1e-12);
        assert_eq!(s.weights(10), vec![0.0, 1.0]);
        assert_eq!(s.weights(20), vec![0.0, 1.0]);
    }

    #[test]
    fn curriculum_ramps_hard_fraction_monotonically() {
        // "Easier" source 0 fades out as "harder" source 1 ramps in.
        let s = MixSchedule::Warmup {
            from: vec![0.9, 0.1],
            to: vec![0.3, 0.7],
            steps: 1000,
        };
        let mut prev = 0.0;
        for step in (0..=1000).step_by(100) {
            let w = s.weights(step);
            assert_normalized(&w);
            assert!(w[1] >= prev);
            prev = w[1];
        }
    }

    #[test]
    fn loss_adaptive_prefers_lossy_sources() {
        let mut s = MixSchedule::LossAdaptive {
            base: vec![1.0, 1.0],
            sensitivity: 1.0,
            losses: vec![0.0, 0.0],
        };
        let w0 = s.weights(0);
        assert!((w0[0] - 0.5).abs() < 1e-12);
        s.observe_loss(&[2.0, 4.0]);
        let w1 = s.weights(1);
        assert!(w1[1] > w1[0]);
        assert_normalized(&w1);
    }

    #[test]
    fn degenerate_weights_handled() {
        let s = MixSchedule::Static(vec![0.0, 0.0]);
        assert_eq!(s.weights(0), vec![0.0, 0.0]);
        let s = MixSchedule::Static(vec![-1.0, f64::NAN, 3.0]);
        let w = s.weights(0);
        assert_eq!(w[0], 0.0);
        assert_eq!(w[1], 0.0);
        assert!((w[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_zero_steps_jumps_to_target() {
        let s = MixSchedule::Warmup {
            from: vec![1.0, 0.0],
            to: vec![0.0, 1.0],
            steps: 0,
        };
        assert_eq!(s.weights(0), vec![0.0, 1.0]);
    }

    #[test]
    fn source_counts() {
        assert_eq!(MixSchedule::uniform(5).source_count(), 5);
        assert_eq!(
            MixSchedule::Staged(vec![(0, vec![1.0; 3])]).source_count(),
            3
        );
    }
}
