//! The benchmark's own arithmetic: quantiles, equal-work segments and the
//! barrier-time merge of the two client timelines.

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// order statistics (the "type 7" rule). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The step ranges of `segments` equal-work segments over the measured
/// steps `[warmup, warmup + measured)`: segment `k` covers steps
/// `bounds[k]..bounds[k + 1]`. Any remainder is spread one step at a time
/// over the first segments, so sizes differ by at most one.
pub fn segment_bounds(warmup: u64, measured: u64, segments: u64) -> Vec<u64> {
    let segments = segments.clamp(1, measured.max(1));
    let (base, extra) = (measured / segments, measured % segments);
    let mut bounds = Vec::with_capacity(segments as usize + 1);
    let mut at = warmup;
    bounds.push(at);
    for k in 0..segments {
        at += base + u64::from(k < extra);
        bounds.push(at);
    }
    bounds
}

/// Barrier time of each step: the instant the later of the clients had it.
/// `timelines[c][s]` is when client `c` received step `s`; the result is as
/// long as the shortest timeline (steps some client never got have none).
pub fn barrier_times(timelines: &[Vec<u64>]) -> Vec<u64> {
    let steps = timelines.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|s| timelines.iter().map(|t| t[s]).max().unwrap_or(0))
        .collect()
}

/// Which client's receipt was the barrier of each step (ties: the first).
pub fn barrier_owner(timelines: &[Vec<u64>]) -> Vec<usize> {
    let steps = timelines.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|s| {
            (0..timelines.len())
                .rev()
                .max_by_key(|&c| timelines[c][s])
                .unwrap_or(0)
        })
        .collect()
}

/// Per-segment rates (`work[k]` units over the segment's duration in
/// seconds). `barrier` holds barrier times in ns by step; a segment runs
/// from the barrier of the step before its first to that of its last.
pub fn segment_rates(barrier: &[u64], bounds: &[u64], work: &[f64]) -> Vec<f64> {
    bounds
        .windows(2)
        .zip(work)
        .filter_map(|(w, units)| {
            let start = *barrier.get(w[0].checked_sub(1)? as usize)?;
            let end = *barrier.get(w[1].checked_sub(1)? as usize)?;
            let secs = end.saturating_sub(start) as f64 / 1e9;
            (secs > 0.0).then(|| units / secs)
        })
        .collect()
}

/// Gaps between consecutive entries, in milliseconds.
pub fn gaps_ms(times_ns: &[u64]) -> Vec<f64> {
    times_ns
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]) as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        // Even length interpolates between the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Out-of-range q clamps instead of indexing out of bounds.
        assert_eq!(quantile(&v, 1.5), 5.0);
    }

    #[test]
    fn segments_split_the_measured_steps_evenly() {
        assert_eq!(segment_bounds(10, 8, 4), vec![10, 12, 14, 16, 18]);
        // Remainder goes to the first segments; the last bound is exact.
        assert_eq!(segment_bounds(0, 10, 4), vec![0, 3, 6, 8, 10]);
        // Never more segments than steps.
        assert_eq!(segment_bounds(5, 2, 40), vec![5, 6, 7]);
        let b = segment_bounds(100, 1200, 40);
        assert_eq!(b.len(), 41);
        assert!(b.windows(2).all(|w| w[1] - w[0] == 30));
        assert_eq!(*b.last().unwrap(), 1300);
    }

    #[test]
    fn barrier_is_the_later_client_per_step() {
        let a = vec![10, 20, 35, 40];
        let b = vec![12, 18, 30, 50, 60];
        assert_eq!(barrier_times(&[a.clone(), b.clone()]), vec![12, 20, 35, 50]);
        assert_eq!(barrier_owner(&[a.clone(), b.clone()]), vec![1, 0, 0, 1]);
        assert_eq!(barrier_owner(&[vec![5], vec![5]]), vec![0]);
        assert!(barrier_times(&[a, Vec::new()]).is_empty());
    }

    #[test]
    fn segment_rate_runs_from_the_previous_barrier() {
        // One warm-up step, then four measured steps 1 s apart, two segments.
        let barrier: Vec<u64> = (0..5u64).map(|s| (s + 1) * 1_000_000_000).collect();
        let bounds = segment_bounds(1, 4, 2);
        let rates = segment_rates(&barrier, &bounds, &[200.0, 100.0]);
        assert_eq!(rates, vec![100.0, 50.0]);
        // A segment whose steps were not all delivered yields no rate.
        assert_eq!(
            segment_rates(&barrier[..4], &bounds, &[200.0, 100.0]).len(),
            1
        );
        assert_eq!(gaps_ms(&[0, 2_000_000, 5_000_000]), vec![2.0, 3.0]);
    }
}
