//! Lock-light runtime metrics: the pipeline's observability plane.
//!
//! Every perf claim this reproduction makes should be checkable from a
//! running deployment, not re-derived from ad-hoc prints. This module
//! provides the primitives — relaxed [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket power-of-two [`Histogram`]s — plus one process-wide
//! registry covering the serve path's stages:
//!
//! - per-stage latencies ([`Stage`]: decode, construct, encode, send,
//!   pump), recorded where the work happens (storage / synthetic
//!   decode, constructor actors, batch serialization, the transport
//!   send threads, the data server's `Ready` hand-off);
//! - buffer-pool traffic (hit/miss/steal/resize counters and allocated
//!   vs recycled byte totals, fed by [`crate::pool`]);
//! - queue-depth gauges sampled by `ThreadedPipeline::stats()`.
//!
//! Everything is a plain atomic: recording is wait-free and costs a few
//! nanoseconds, so the instrumentation can stay on permanently — the
//! MegaScale "always-on diagnostics" stance. [`snapshot`] folds the
//! registry (and the global pool's counters) into a [`MetricsSnapshot`],
//! which rides along on `RuntimeStats`; `benchmark/`'s traced session
//! reads it (with the pool counters) for its per-layer metrics. Deltas
//! between two snapshots isolate one workload's traffic.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter (relaxed atomics; per-call cost is one
/// uncontended fetch-add).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-written-value gauge (queue depths, occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count of a [`Histogram`]: bucket `i` holds values in
/// `[2^i, 2^(i+1))` (bucket 0 additionally holds 0), so 40 buckets span
/// 1 ns to ~18 minutes — every latency the pipeline can produce.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket power-of-two histogram. Recording is one atomic add
/// into the value's bucket; percentiles are estimated from bucket lower
/// bounds at snapshot time (≤2× error by construction, which is exactly
/// the resolution a regression gate needs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        // `[AtomicU64::new(0); N]` needs Copy; build by hand.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds by convention for latencies).
    pub fn record(&self, value: u64) {
        let bucket = (64 - u64::leading_zeros(value.max(1)) - 1) as usize;
        let bucket = bucket.min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`]: bucket counts plus totals, with percentile
/// estimation.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Events per power-of-two bucket (`buckets[i]` counts values in
    /// `[2^i, 2^(i+1))`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total events recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` in `[0, 1]` (lower bound of the
    /// bucket containing the q-th event; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The delta distribution since an earlier snapshot of the same
    /// histogram (isolates one workload's recordings).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(earlier.buckets.iter()))
        {
            *slot = now.saturating_sub(*then);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

/// The serve path's instrumented stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Producing one sample's bytes (storage row decode or synthesis).
    Decode = 0,
    /// Microbatch assembly on a constructor actor.
    Construct = 1,
    /// Batch wire serialization (`SharedBatch` memoized encode).
    Encode = 2,
    /// Transport send-path work (frame encode + socket/link hand-off).
    Send = 3,
    /// One data-server `Ready` hand-off: sending the batch a constructor
    /// pushed, plus issuing the client's next pull. `benchmark/` reports
    /// it as `server.pump_p50_us` / `server.pump_p99_us`, which is why
    /// the stage keeps this name.
    Pump = 4,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Decode,
        Stage::Construct,
        Stage::Encode,
        Stage::Send,
        Stage::Pump,
    ];

    /// Stable label (snapshot maps and bench JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Construct => "construct",
            Stage::Encode => "encode",
            Stage::Send => "send",
            Stage::Pump => "pump",
        }
    }
}

/// The process-wide metric registry.
struct Registry {
    stages: [Histogram; 5],
    planner_mailbox_depth: Gauge,
    constructor_mailbox_depth: Gauge,
    loader_buffered: Gauge,
    sessions_evicted: Counter,
    dials_rejected: Counter,
    redial_backoffs: Counter,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        stages: [
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
        ],
        planner_mailbox_depth: Gauge::new(),
        constructor_mailbox_depth: Gauge::new(),
        loader_buffered: Gauge::new(),
        sessions_evicted: Counter::new(),
        dials_rejected: Counter::new(),
        redial_backoffs: Counter::new(),
    })
}

/// Records one stage latency into the global registry.
pub fn record_stage(stage: Stage, elapsed: std::time::Duration) {
    registry().stages[stage as usize].record(elapsed.as_nanos() as u64);
}

/// Updates the queue-depth gauges (sampled by
/// `ThreadedPipeline::stats()` so operator snapshots and the bench see
/// the same numbers).
pub fn set_queue_depths(planner_mailbox: u64, constructor_mailbox: u64, loader_buffered: u64) {
    let r = registry();
    r.planner_mailbox_depth.set(planner_mailbox);
    r.constructor_mailbox_depth.set(constructor_mailbox);
    r.loader_buffered.set(loader_buffered);
}

/// Counts one session eviction (a client's liveness lease expired and
/// the server released its frontier capability; see
/// `ServerConfig::lease`).
pub fn record_session_evicted() {
    registry().sessions_evicted.inc();
}

/// Counts one admission rejection (a dial refused with a wire `Reject`
/// frame; see `ServerConfig::max_sessions`).
pub fn record_dial_rejected() {
    registry().dials_rejected.inc();
}

/// Counts one client-side redial backoff sleep (exponential backoff
/// with jitter between reconnect attempts).
pub fn record_redial_backoff() {
    registry().redial_backoffs.inc();
}

/// One stage's latency summary inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSnapshot {
    /// The full delta-capable distribution.
    pub histogram: HistogramSnapshot,
    /// Estimated p50 latency in nanoseconds.
    pub p50_ns: u64,
    /// Estimated p90 latency in nanoseconds.
    pub p90_ns: u64,
    /// Estimated p99 latency in nanoseconds.
    pub p99_ns: u64,
}

impl StageSnapshot {
    fn from_histogram(histogram: HistogramSnapshot) -> Self {
        StageSnapshot {
            histogram,
            p50_ns: histogram.quantile(0.50),
            p90_ns: histogram.quantile(0.90),
            p99_ns: histogram.quantile(0.99),
        }
    }
}

/// Point-in-time view of the whole metrics plane: buffer-pool counters,
/// per-stage latency distributions, and queue-depth gauges. Carried on
/// `RuntimeStats` and serialized (field by field) into the bench JSON.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Global buffer-pool counters (see [`crate::pool::PoolCounters`]).
    pub pool: crate::pool::PoolCounters,
    /// Per-stage latency summaries, indexed like [`Stage::ALL`].
    pub stages: Vec<(&'static str, StageSnapshot)>,
    /// Planner actor mailbox depth at the last `stats()` sample.
    pub planner_mailbox_depth: u64,
    /// Deepest constructor mailbox at the last `stats()` sample.
    pub constructor_mailbox_depth: u64,
    /// Total loader-buffered samples at the last `stats()` sample.
    pub loader_buffered: u64,
    /// Sessions evicted after lease expiry, since process start.
    pub sessions_evicted: u64,
    /// Dials refused with a wire `Reject`, since process start.
    pub dials_rejected: u64,
    /// Client redial backoff sleeps, since process start.
    pub redial_backoffs: u64,
}

impl MetricsSnapshot {
    /// The summary for one stage.
    pub fn stage(&self, stage: Stage) -> StageSnapshot {
        self.stages
            .iter()
            .find(|(label, _)| *label == stage.label())
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

/// Snapshots the global registry plus the global buffer pool.
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    MetricsSnapshot {
        pool: crate::pool::global().counters(),
        stages: Stage::ALL
            .iter()
            .map(|&s| {
                (
                    s.label(),
                    StageSnapshot::from_histogram(r.stages[s as usize].snapshot()),
                )
            })
            .collect(),
        planner_mailbox_depth: r.planner_mailbox_depth.get(),
        constructor_mailbox_depth: r.constructor_mailbox_depth.get(),
        loader_buffered: r.loader_buffered.get(),
        sessions_evicted: r.sessions_evicted.get(),
        dials_rejected: r.dials_rejected.get(),
        redial_backoffs: r.redial_backoffs.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_recorded_values() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000); // bucket 9 (512..1024): lower bound 512.
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 19: lower bound 524288.
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile(0.5), 512);
        assert_eq!(s.quantile(0.99), 1 << 19);
        assert!(s.mean() > 90_000.0 && s.mean() < 120_000.0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_deltas_isolate_a_window() {
        let h = Histogram::new();
        h.record(100);
        let before = h.snapshot();
        h.record(100);
        h.record(200);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 300);
    }

    #[test]
    fn global_stage_recording_shows_up_in_snapshots() {
        let before = snapshot();
        record_stage(Stage::Construct, std::time::Duration::from_micros(5));
        let after = snapshot();
        let delta = after
            .stage(Stage::Construct)
            .histogram
            .since(&before.stage(Stage::Construct).histogram);
        assert_eq!(delta.count, 1);
        assert_eq!(Stage::Send.label(), "send");
    }

    #[test]
    fn robustness_counters_are_monotone_and_snapshotted() {
        let before = snapshot();
        record_session_evicted();
        record_dial_rejected();
        record_dial_rejected();
        record_redial_backoff();
        let after = snapshot();
        assert_eq!(after.sessions_evicted - before.sessions_evicted, 1);
        assert_eq!(after.dials_rejected - before.dials_rejected, 2);
        assert_eq!(after.redial_backoffs - before.redial_backoffs, 1);
    }

    #[test]
    fn gauges_overwrite() {
        set_queue_depths(3, 7, 11);
        let s = snapshot();
        assert_eq!(
            (
                s.planner_mailbox_depth,
                s.constructor_mailbox_depth,
                s.loader_buffered
            ),
            (3, 7, 11)
        );
    }
}
