//! The metric tables — name, unit, direction, bound, where a layer metric
//! applies — and the output formats. `BENCHMARK.json` is generated from
//! these tables (`--manifest`), and a unit test keeps the file in step.

use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: what a trainer (or its operator) sees.
pub struct EndToEnd {
    /// Name in every output.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The eight end-to-end metrics, identical on every workload. Each bound is
/// the largest of the issue's starting value, twice the largest A/A
/// set-median difference and twice the widest ten-seed quartile spread,
/// rounded up to 0.05 and capped at the 0.25 the contract allows; README.md
/// ("A/A results") has the measurements. The counts keep 0.02; the heap
/// median needs 0.15 (`image_tcp` settles on levels 4 MiB apart); the clock
/// and CPU metrics reach the cap, because this box's speed moves by more
/// than a tenth within minutes and no estimator inside one run sees that.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "samples_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "step_gap_p90_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_us_per_sample", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "allocs_per_sample", unit: "count", better: "lower", bound: 0.02 },
    EndToEnd { name: "alloc_bytes_per_sample", unit: "B", better: "lower", bound: 0.02 },
    EndToEnd { name: "wire_bytes_per_sample", unit: "B", better: "lower", bound: 0.02 },
    EndToEnd { name: "heap_p50_mb", unit: "MiB", better: "lower", bound: 0.15 },
];

/// A per-layer metric (traced run; informational, no bound).
pub struct Layer {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Value printed in the result JSON for a per-layer metric that does not
/// exist on the workload (the layer is not on its path): the contract
/// wants every key present and numeric, and no real reading is negative.
/// The per-metric lines say `absent` instead.
pub const ABSENT: f64 = -1.0;

/// The per-layer metrics, by layer. README.md says which end-to-end metric
/// each should move and on which workload, and which exist only where
/// their layer is on the workload's path (`codec.*`, `tcp.*`: `image_tcp`;
/// `net.*`, `server.*`, `reader.*`: not `image_local`).
pub const PER_LAYER: [Layer; 74] = [
    layer("loader.refill_us_per_sample", "us", "lower"),
    layer("loader.pop_us_per_sample", "us", "lower"),
    layer("loader.allocs_per_sample", "count", "lower"),
    layer("loader.alloc_bytes_per_sample", "B", "lower"),
    layer("loader.buffered_samples_p50", "count", "lower"),
    layer("loader.mem_bytes_total", "B", "lower"),
    layer("planner.gather_us_per_step", "us", "lower"),
    layer("planner.synthesize_us_per_step", "us", "lower"),
    layer("planner.balance_us_per_step", "us", "lower"),
    layer("planner.bucket_imbalance", "ratio", "lower"),
    layer("constructor.padding_share", "ratio", "lower"),
    layer("constructor.assemble_us_per_sample", "us", "lower"),
    layer("constructor.alloc_bytes_per_sample", "B", "lower"),
    layer("constructor.ready_steps_max", "count", "lower"),
    layer("codec.encode_ns_per_kib", "ns", "lower"),
    layer("codec.decode_ns_per_kib", "ns", "lower"),
    layer("codec.allocs_per_batch", "count", "lower"),
    layer("codec.batch_overhead_ratio", "ratio", "lower"),
    layer("codec.ctrl_frame_ns", "ns", "lower"),
    layer("pool.hit_rate", "ratio", "higher"),
    layer("pool.leases_per_sample", "count", "lower"),
    layer("pool.misses_per_1k_samples", "count", "lower"),
    layer("pool.idle_buffers", "count", "lower"),
    layer("net.batch_frames_per_step", "count", "lower"),
    layer("net.ack_frames_per_step", "count", "lower"),
    layer("net.credit_frames_per_step", "count", "lower"),
    layer("net.frontier_frames_per_step", "count", "lower"),
    layer("net.ctrl_bytes_per_step", "B", "lower"),
    layer("net.resent_batches", "count", "lower"),
    layer("net.send_us_p50", "us", "lower"),
    layer("net.send_us_per_mib", "us", "lower"),
    layer("net.recv_wait_share", "ratio", "lower"),
    layer("tcp.pair_rtt_us_p50", "us", "lower"),
    layer("tcp.pair_mib_per_s", "MiB/s", "higher"),
    layer("tcp.threads_per_conn", "count", "lower"),
    layer("server.pump_p50_us", "us", "lower"),
    layer("server.pump_p99_us", "us", "lower"),
    layer("server.frames_rx_per_step", "count", "lower"),
    layer("server.batches_tx_per_step", "count", "lower"),
    layer("server.retained_bytes_max", "B", "lower"),
    layer("server.unacked_max", "count", "lower"),
    layer("frontier.lag_steps_p50", "steps", "lower"),
    layer("frontier.lag_steps_max", "steps", "lower"),
    layer("reader.threads", "count", "lower"),
    layer("runtime.step_us_p50", "us", "lower"),
    layer("inline.step_us_p50", "us", "lower"),
    layer("runtime.driver_overhead_us_per_step", "us", "lower"),
    layer("runtime.threads_peak", "count", "lower"),
    layer("runtime.vol_ctx_switches_per_step", "count", "lower"),
    layer("runtime.mailbox_depth_max", "count", "lower"),
    layer("runtime.rss_peak_mb", "MiB", "lower"),
    layer("runtime.stats_call_us", "us", "lower"),
    layer("actor.ask_roundtrip_us_p50", "us", "lower"),
    layer("actor.tell_ns", "ns", "lower"),
    layer("frontier.fold_ns_per_advance_2", "ns", "lower"),
    layer("frontier.fold_ns_per_advance_128", "ns", "lower"),
    layer("gcs.plan_log_entries_max", "count", "lower"),
    layer("gcs.state_bytes_max", "B", "lower"),
    layer("client.next_wait_ms_p50", "ms", "lower"),
    layer("client.next_wait_ms_p99", "ms", "lower"),
    layer("client.step_gap_p50_ms", "ms", "lower"),
    layer("client.step_gap_p99_ms", "ms", "lower"),
    layer("client.step_gap_max_ms", "ms", "lower"),
    layer("client.step_gap_samples", "count", "higher"),
    layer("client.skew_ms_p50", "ms", "lower"),
    layer("client.samples_per_s_mean", "1/s", "higher"),
    layer("client.segment_rate_iqr_ratio", "ratio", "lower"),
    layer("inline.samples_per_s", "1/s", "higher"),
    layer("inline.self_time_coverage", "ratio", "higher"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("trace.spans", "count", "higher"),
    layer("box.cores", "count", "higher"),
    layer("box.other_cpu_share", "ratio", "lower"),
    layer("box.steal_share", "ratio", "lower"),
];

/// Measured values by metric name; a name that was never set is absent.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`. A non-finite value (an empty window) is
    /// dropped, so the metric reads as absent rather than as a number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.0.push((name, value));
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Outcome counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Deliveries attempted (steps × clients).
    pub attempted: u64,
    /// Deliveries failed.
    pub failed: u64,
}

/// Prints one line per metric — `<workload> <metric> <value> <unit>` —
/// then the outcome line, then the result JSON as the last line.
/// `metrics` is `(name, unit)` in table order.
pub fn print_run(
    workload: &str,
    metrics: &[(&'static str, &'static str)],
    values: &Values,
    outcome: Outcome,
) {
    let correct = outcome.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in metrics.iter().enumerate() {
        match values.get(name) {
            Some(v) => println!("{workload} {name} {v} {unit}"),
            None => println!("{workload} {name} absent {unit}"),
        }
        let v = values.get(name).unwrap_or(ABSENT);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!(
        "{workload} attempted={} failed={} correct={correct}",
        outcome.attempted, outcome.failed
    );
    println!("{json}");
}

/// The text of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                legal(n, "_.-", 64) && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(legal(u, "_/%.-", 16), "{u}");
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        let setup = END_TO_END[0].bound;
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `run.sh --manifest`");
    }

    #[test]
    fn absent_and_non_finite_values_read_as_absent() {
        let mut v = Values::default();
        v.set("a", 1.5);
        v.set("b", f64::NAN);
        v.set("c", f64::INFINITY);
        assert_eq!(v.get("a"), Some(1.5));
        assert_eq!((v.get("b"), v.get("c"), v.get("d")), (None, None, None));
    }
}
