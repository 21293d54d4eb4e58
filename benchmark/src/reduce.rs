//! Reduces the two client logs of a session to the end-to-end metrics and
//! the `client.*` views of the same timings. Runs after the session ended.

use crate::report::Values;
use crate::session::{ClientLog, SessionResult};
use crate::stats::{
    barrier_owner, barrier_times, gaps_ms, quantile, segment_bounds, segment_rates,
};
use crate::workload::SEGMENTS;

const MIB: f64 = (1u64 << 20) as f64;

/// The session as a synchronous trainer saw it.
pub struct Window {
    /// Barrier time of every step both clients received, ns.
    pub barrier: Vec<u64>,
    /// Which client's receipt was the barrier.
    owner: Vec<usize>,
    /// Index of the last warm-up step (window start edge).
    pub start: usize,
    /// Index of the last step both clients received (window end edge).
    pub end: usize,
    /// Distinct samples delivered in steps `start+1..=end`, both clients.
    pub samples: u64,
    /// Sample rates of the equal-work segments, 1/s (complete ones only).
    pub segment_rates: Vec<f64>,
}

fn samples_in(logs: &[ClientLog], steps: std::ops::Range<usize>) -> u64 {
    logs.iter()
        .map(|l| {
            let upto = |i: usize| {
                if i == 0 {
                    0
                } else {
                    u64::from(l.id_ends[i - 1])
                }
            };
            upto(steps.end.min(l.id_ends.len())) - upto(steps.start.min(l.id_ends.len()))
        })
        .sum()
}

impl Window {
    /// The measured window of `result`, or `None` when the warm-up itself
    /// did not complete (nothing to measure; the run has failed anyway).
    pub fn of(result: &SessionResult) -> Option<Window> {
        let timelines: Vec<Vec<u64>> = result
            .logs
            .iter()
            .map(|l| l.stamps.iter().map(|s| s.t_ns).collect())
            .collect();
        let barrier = barrier_times(&timelines);
        let start = (result.warmup as usize).checked_sub(1)?;
        let end = barrier.len().checked_sub(1)?;
        if end <= start {
            return None;
        }
        let bounds = segment_bounds(result.warmup, result.measured, SEGMENTS);
        let work: Vec<f64> = bounds
            .windows(2)
            .map(|w| samples_in(&result.logs, w[0] as usize..w[1] as usize) as f64)
            .collect();
        Some(Window {
            segment_rates: segment_rates(&barrier, &bounds, &work),
            owner: barrier_owner(&timelines),
            samples: samples_in(&result.logs, start + 1..end + 1),
            barrier,
            start,
            end,
        })
    }

    /// Length of the measured window, seconds.
    pub fn seconds(&self) -> f64 {
        (self.barrier[self.end] - self.barrier[self.start]) as f64 / 1e9
    }
}

/// The eight end-to-end metrics of an untraced session.
pub fn end_to_end(result: &SessionResult) -> Values {
    let mut v = Values::default();
    let Some(w) = Window::of(result) else {
        return v;
    };
    let logs = &result.logs;
    let samples = w.samples as f64;
    // Counter readings at the two edges, each by the client whose receipt
    // *was* the barrier.
    let (a, b) = (
        logs[w.owner[w.start]].stamps[w.start],
        logs[w.owner[w.end]].stamps[w.end],
    );
    let live: Vec<f64> = (w.start + 1..=w.end)
        .map(|s| {
            let at_barrier = logs[w.owner[s]].stamps[s].alloc.live;
            at_barrier.saturating_sub(result.bench_owned_bytes) as f64 / MIB
        })
        .collect();

    // Process CPU at the two edges; absent when a client never got there.
    let cpu_at = |edge: usize, step: usize| {
        let mark = logs[w.owner[step]].cpu_marks.get(edge);
        mark.copied().unwrap_or(f64::NAN)
    };

    // The rate is the sustained one (interference only ever lengthens a
    // segment, so the mean is the worst estimator and the upper quartile
    // repeats); the gap tail and the CPU cost cover every measured step, so
    // work that hits only part of the run still shows in them.
    let gaps = gaps_ms(&w.barrier[w.start..=w.end]);
    v.set("setup_s", w.barrier[w.start] as f64 / 1e9);
    v.set("samples_per_s", quantile(&w.segment_rates, 0.75));
    v.set("step_gap_p90_ms", quantile(&gaps, 0.9));
    v.set(
        "cpu_us_per_sample",
        (cpu_at(1, w.end) - cpu_at(0, w.start)) * 1e6 / samples,
    );
    v.set(
        "allocs_per_sample",
        (b.alloc.calls - a.alloc.calls) as f64 / samples,
    );
    v.set(
        "alloc_bytes_per_sample",
        (b.alloc.bytes - a.alloc.bytes) as f64 / samples,
    );
    v.set("wire_bytes_per_sample", (b.wire - a.wire) as f64 / samples);
    v.set("heap_p50_mb", quantile(&live, 0.5));
    v
}

/// The `client.*` views of a traced session's timings: tails, the plain
/// whole-window mean, the clients' skew, and the run's own noise.
pub fn client_views(result: &SessionResult, v: &mut Values) {
    let Some(w) = Window::of(result) else {
        return;
    };
    let measured = w.start + 1..=w.end;
    let waits: Vec<f64> = result
        .logs
        .iter()
        .flat_map(|l| {
            measured.clone().filter_map(|s| {
                let waited = l.stamps.get(s)?.t_ns.checked_sub(*l.next_started.get(s)?)?;
                Some(waited as f64 / 1e6)
            })
        })
        .collect();
    let gaps = gaps_ms(&w.barrier[w.start..=w.end]);
    let skews: Vec<f64> = measured
        .clone()
        .map(|s| {
            let times = result.logs.iter().map(|l| l.stamps[s].t_ns);
            let (lo, hi) = times.fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
            (hi - lo) as f64 / 1e6
        })
        .collect();
    let rates = &w.segment_rates;
    v.set("client.next_wait_ms_p50", quantile(&waits, 0.5));
    v.set("client.next_wait_ms_p99", quantile(&waits, 0.99));
    v.set("client.step_gap_p50_ms", quantile(&gaps, 0.5));
    v.set("client.step_gap_p99_ms", quantile(&gaps, 0.99));
    v.set("client.step_gap_max_ms", quantile(&gaps, 1.0));
    v.set("client.step_gap_samples", gaps.len() as f64);
    v.set("client.skew_ms_p50", quantile(&skews, 0.5));
    v.set("client.samples_per_s_mean", w.samples as f64 / w.seconds());
    v.set(
        "client.segment_rate_iqr_ratio",
        (quantile(rates, 0.75) - quantile(rates, 0.25)) / quantile(rates, 0.5),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocSnap;
    use crate::session::Stamp;

    /// Two clients, 2 warm-up + 80 measured steps 10 ms apart, client 1
    /// always 1 ms later; 3 samples per delivery; counters grow linearly;
    /// 8 ms of CPU per step. Steps in `slow` take three times the time and
    /// the CPU, as under interference.
    fn session_with(slow: std::ops::Range<u64>) -> SessionResult {
        let logs = (0..2u64)
            .map(|c| {
                let mut log = ClientLog::default();
                let (mut now, mut cpu) = (0u64, 1.0);
                for s in 0..82u64 {
                    let factor = if slow.contains(&s) { 3 } else { 1 };
                    now += 10_000_000 * factor;
                    cpu += 0.008 * factor as f64;
                    let t_ns = now + c * 1_000_000;
                    log.stamps.push(Stamp {
                        t_ns,
                        alloc: AllocSnap {
                            calls: s * 12,
                            bytes: s * 600,
                            live: (1 << 20) + 5 * (1 << 20),
                        },
                        wire: s * 60,
                    });
                    log.steps.push(s);
                    log.ids.extend([0, 1, 2].map(|k| (c << 40) | (3 * s + k)));
                    log.id_ends.push(log.ids.len() as u32);
                    log.next_started.push(t_ns - 4_000_000);
                    if s == 1 || s == 81 {
                        log.cpu_marks.push(cpu); // The two window edges.
                    }
                }
                log
            })
            .collect();
        SessionResult {
            logs,
            served: 82,
            warmup: 2,
            measured: 80,
            bench_owned_bytes: 1 << 20,
        }
    }

    fn session() -> SessionResult {
        session_with(0..0)
    }

    /// A quarter of the run three times slower: the sustained rate stays,
    /// the whole-window readings (CPU cost, gap tail, mean rate) show it.
    #[test]
    fn a_slow_stretch_shows_in_the_whole_window_metrics() {
        let (calm, hit) = (end_to_end(&session()), end_to_end(&session_with(30..50)));
        let ratio = |name: &str| hit.get(name).unwrap() / calm.get(name).unwrap();
        assert!((ratio("samples_per_s") - 1.0).abs() < 1e-6);
        assert!((ratio("cpu_us_per_sample") - 1.5).abs() < 1e-6);
        assert!((ratio("step_gap_p90_ms") - 3.0).abs() < 1e-6);
        let mut views = Values::default();
        client_views(&session_with(30..50), &mut views);
        assert!(views.get("client.samples_per_s_mean").unwrap() < 0.7 * 600.0);
    }

    #[test]
    fn end_to_end_metrics_of_a_synthetic_session() {
        let v = end_to_end(&session());
        let near = |name: &str, want: f64| {
            let got = v.get(name).unwrap();
            assert!(
                (got - want).abs() < 1e-6 * want.abs().max(1.0),
                "{name}: {got} vs {want}"
            );
        };
        // Barrier = client 1: last warm-up step (index 1) lands at 21 ms.
        near("setup_s", 0.021);
        // 6 samples per 10 ms step.
        near("samples_per_s", 600.0);
        near("step_gap_p90_ms", 10.0);
        // 6 samples and 8 ms of CPU per step.
        near("cpu_us_per_sample", 0.008e6 / 6.0);
        let samples = 480.0; // 80 steps × 6 samples.
        near("allocs_per_sample", 80.0 * 12.0 / samples);
        near("alloc_bytes_per_sample", 80.0 * 600.0 / samples);
        near("wire_bytes_per_sample", 80.0 * 60.0 / samples);
        // Live heap minus the benchmark's own logs.
        near("heap_p50_mb", 5.0);
    }

    #[test]
    fn client_views_report_waits_gaps_and_skew() {
        let mut v = Values::default();
        client_views(&session(), &mut v);
        assert_eq!(v.get("client.step_gap_samples"), Some(80.0));
        assert_eq!(v.get("client.next_wait_ms_p50"), Some(4.0));
        assert_eq!(v.get("client.skew_ms_p50"), Some(1.0));
        assert_eq!(v.get("client.step_gap_max_ms"), Some(10.0));
        assert!((v.get("client.samples_per_s_mean").unwrap() - 600.0).abs() < 1e-6);
        assert!(v.get("client.segment_rate_iqr_ratio").unwrap().abs() < 1e-9);
    }

    #[test]
    fn a_session_that_never_left_warm_up_has_no_window() {
        let mut s = session();
        for l in &mut s.logs {
            l.stamps.truncate(2);
        }
        assert!(Window::of(&s).is_none());
        assert!(end_to_end(&s).get("samples_per_s").is_none());
    }
}
