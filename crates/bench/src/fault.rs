//! The fault-tolerance cost model (Fig 16): what a recovery latency costs
//! a training run. The runtime side, restarting a loader from its
//! checkpoint and replaying the plans since, is `msd_core::fault`.

/// Effective-training-time-ratio (ETTR) model: the fraction of wall-clock
/// time spent making progress given `failures` events with the given
/// per-event recovery latency, over a horizon.
pub fn ettr(horizon_secs: f64, failures: u32, recovery_secs: f64) -> f64 {
    if horizon_secs <= 0.0 {
        return 0.0;
    }
    let lost = f64::from(failures) * recovery_secs;
    ((horizon_secs - lost) / horizon_secs).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ettr_model() {
        assert!((ettr(1000.0, 0, 60.0) - 1.0).abs() < 1e-12);
        let with_failures = ettr(1000.0, 3, 60.0);
        assert!((with_failures - 0.82).abs() < 1e-12);
        assert_eq!(ettr(10.0, 100, 60.0), 0.0);
        assert_eq!(ettr(0.0, 0, 0.0), 0.0);
    }
}
