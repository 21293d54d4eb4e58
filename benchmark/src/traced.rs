//! The traced run (`--trace 1`): per-layer metrics from three sources, all
//! outside the program —
//!
//! (a) the inline replica, a span around each call into a layer;
//! (b) a live traced session: metered transport, a span per client
//!     `next()`, the status poller;
//! (c) micro loops over public functions with fixed inputs.
//!
//! Its sessions are a quarter as long as the untraced run's, so that the
//! untraced twin, the traced session, the replica and the micro loops
//! together fit one run's time. The numbers locate costs; they carry no
//! bound and are never compared within a tenth.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::inline::Replica;
use crate::micro;
use crate::procfs;
use crate::reduce::{self, Window};
use crate::report::{Outcome, Values, PER_LAYER};
use crate::session::{self, SessionResult};
use crate::stats::quantile;
use crate::trace::{
    chrome_trace_json, frame_spans, histogram_quantile_us, poll_max, poll_p50, self_time_by_name,
    FrameEvent, Kind, LiveTrace, Recorder, Span, ROOT,
};
use crate::workload::{self, Path};
use crate::Args;

/// Session length of a traced run relative to an untraced one.
const TRACE_DIVISOR: u64 = 4;
/// Untimed replica steps before the traced ones (pools and buffers warm).
const REPLICA_WARMUP: u64 = 16;
/// Most traced replica steps (bounds the trace file).
const REPLICA_MAX_STEPS: u64 = 400;
/// Wall-time budget of the traced replica steps.
const REPLICA_BUDGET: Duration = Duration::from_millis(2500);
/// Wall-time budget of the `ThreadedPipeline::step` loop.
const STEP_LOOP_BUDGET: Duration = Duration::from_millis(1500);
const MIB: f64 = (1u64 << 20) as f64;

/// `samples_per_s` of an untraced run of the same seed and step counts, in
/// a fresh child process of this same binary — the denominator of
/// `trace.overhead_ratio`. `None` if the child fails.
fn untraced_twin(args: &Args, divisor: u64) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--divisor", &divisor.to_string()])
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().last()?;
    let key = "\"samples_per_s\": {\"value\": ";
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One span per client `next()` call, from the client logs.
fn client_spans(result: &SessionResult) -> Vec<Span> {
    let mut spans = Vec::new();
    for (c, log) in result.logs.iter().enumerate() {
        for (i, stamp) in log.stamps.iter().enumerate() {
            spans.push(Span {
                name: "client.next",
                start_ns: log.next_started.get(i).copied().unwrap_or(stamp.t_ns),
                end_ns: stamp.t_ns,
                parent: ROOT,
                step: i as u64,
                track: c as u32,
            });
        }
    }
    spans
}

/// Source (b): what the metered transport and the poller saw.
fn live_metrics(
    live: &LiveTrace,
    events: &[FrameEvent],
    result: &SessionResult,
    path: Path,
    v: &mut Values,
) {
    let Some(w) = Window::of(result) else {
        return;
    };
    let steps = (w.end - w.start) as f64;
    let samples = w.samples as f64;
    let (t0, t1) = (w.barrier[w.start], w.barrier[w.end]);
    let [first, last] = live.edges;

    if path != Path::Local {
        let inside: Vec<_> = events
            .iter()
            .filter(|e| (t0..=t1).contains(&e.start_ns))
            .collect();
        let sent = |kind: Kind| {
            inside
                .iter()
                .filter(|e| e.send && e.kind == Some(kind))
                .count()
        };
        v.set(
            "net.batch_frames_per_step",
            sent(Kind::Batch) as f64 / steps,
        );
        v.set("net.ack_frames_per_step", sent(Kind::Ack) as f64 / steps);
        v.set(
            "net.credit_frames_per_step",
            sent(Kind::Credit) as f64 / steps,
        );
        v.set(
            "net.frontier_frames_per_step",
            sent(Kind::Frontier) as f64 / steps,
        );
        let ctrl = inside
            .iter()
            .filter(|e| e.send && e.kind != Some(Kind::Batch));
        v.set(
            "net.ctrl_bytes_per_step",
            ctrl.map(|e| e.bytes).sum::<u64>() as f64 / steps,
        );
        v.set(
            "net.resent_batches",
            events.iter().filter(|e| e.resent).count() as f64,
        );
        let batch_sends: Vec<_> = inside
            .iter()
            .filter(|e| e.send && e.kind == Some(Kind::Batch))
            .collect();
        let send_us: Vec<f64> = batch_sends
            .iter()
            .map(|e| (e.end_ns - e.start_ns) as f64 / 1e3)
            .collect();
        let sent_mib = batch_sends.iter().map(|e| e.bytes).sum::<u64>() as f64 / MIB;
        v.set("net.send_us_p50", quantile(&send_us, 0.5));
        v.set(
            "net.send_us_per_mib",
            send_us.iter().sum::<f64>() / sent_mib,
        );
        let waited: u64 = inside
            .iter()
            .filter(|e| !e.send && e.client_side)
            .map(|e| e.end_ns.min(t1) - e.start_ns)
            .sum();
        let clients = result.logs.len() as f64;
        v.set(
            "net.recv_wait_share",
            waited as f64 / (clients * (t1 - t0) as f64),
        );

        v.set(
            "server.pump_p50_us",
            histogram_quantile_us(&last.pump, &first.pump, 0.5),
        );
        v.set(
            "server.pump_p99_us",
            histogram_quantile_us(&last.pump, &first.pump, 0.99),
        );
        v.set(
            "server.frames_rx_per_step",
            (last.frames_rx - first.frames_rx) as f64 / steps,
        );
        v.set(
            "server.batches_tx_per_step",
            (last.batches_tx - first.batches_tx) as f64 / steps,
        );
        v.set(
            "server.retained_bytes_max",
            poll_max(&live.polls, |p| p.retained_bytes),
        );
        v.set("server.unacked_max", poll_max(&live.polls, |p| p.unacked));
        if let Some(threads) = live.reader_threads {
            v.set("reader.threads", threads as f64);
        }
    }

    let pool = last.pool.since(&first.pool);
    v.set("pool.hit_rate", pool.hit_rate());
    v.set("pool.leases_per_sample", pool.leases as f64 / samples);
    v.set(
        "pool.misses_per_1k_samples",
        pool.misses as f64 * 1e3 / samples,
    );
    if let Some(p) = live.polls.last() {
        v.set("pool.idle_buffers", p.pool_idle as f64);
    }
    v.set(
        "loader.buffered_samples_p50",
        poll_p50(&live.polls, |p| p.buffered),
    );
    v.set(
        "constructor.ready_steps_max",
        poll_max(&live.polls, |p| p.ready_steps),
    );
    v.set(
        "frontier.lag_steps_p50",
        poll_p50(&live.polls, |p| p.frontier_lag),
    );
    v.set(
        "frontier.lag_steps_max",
        poll_max(&live.polls, |p| p.frontier_lag),
    );
    v.set("runtime.threads_peak", poll_max(&live.polls, |p| p.threads));
    v.set(
        "runtime.vol_ctx_switches_per_step",
        last.ctx_switches.saturating_sub(first.ctx_switches) as f64 / steps,
    );
    v.set(
        "runtime.mailbox_depth_max",
        poll_max(&live.polls, |p| p.mailbox_depth),
    );
    if !live.polls.is_empty() {
        let stats_us: Vec<f64> = live.polls.iter().map(|p| p.stats_call_us).collect();
        v.set("runtime.stats_call_us", quantile(&stats_us, 0.5));
    }
    v.set(
        "gcs.plan_log_entries_max",
        poll_max(&live.polls, |p| p.plan_log_entries),
    );
    v.set(
        "gcs.state_bytes_max",
        poll_max(&live.polls, |p| p.gcs_state_bytes),
    );

    let (busy, steal, total) = (
        last.machine_cpu.0 - first.machine_cpu.0,
        last.machine_cpu.1 - first.machine_cpu.1,
        last.machine_cpu.2 - first.machine_cpu.2,
    );
    let ours = last.process_cpu_s - first.process_cpu_s;
    v.set(
        "box.other_cpu_share",
        ((busy - steal - ours) / total).max(0.0),
    );
    v.set("box.steal_share", steal / total);
}

/// Source (a): the inline replica, traced. Returns its spans.
fn replica_metrics(args: &Args, origin: Instant, v: &mut Values) -> Vec<Span> {
    let w = &args.workload;
    let mut replica = Replica::new(workload::generate(w, args.seed), w.refill_target);
    replica.serialize = w.path == Path::Tcp;
    let mut off = Recorder::off();
    for step in 0..REPLICA_WARMUP {
        std::hint::black_box(replica.step(&mut off, step));
    }
    replica.totals = Default::default(); // Count the traced steps only.
    let mut rec = Recorder::new(origin, 20);
    let started = Instant::now();
    for step in 0..REPLICA_MAX_STEPS {
        std::hint::black_box(replica.step(&mut rec, REPLICA_WARMUP + step));
        if started.elapsed() > REPLICA_BUDGET {
            break;
        }
    }
    let t = &replica.totals;
    let own = self_time_by_name(rec.spans());
    let us = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e3;
    let (steps, samples) = (t.steps as f64, t.samples as f64);

    v.set("loader.refill_us_per_sample", us("loader.refill") / samples);
    v.set("loader.pop_us_per_sample", us("loader.pop") / samples);
    v.set(
        "loader.allocs_per_sample",
        t.loader_allocs.calls as f64 / samples,
    );
    v.set(
        "loader.alloc_bytes_per_sample",
        t.loader_allocs.bytes as f64 / samples,
    );
    v.set("loader.mem_bytes_total", t.loader_mem_bytes as f64);
    v.set("planner.gather_us_per_step", us("planner.gather") / steps);
    v.set(
        "planner.synthesize_us_per_step",
        us("planner.synthesize") / steps,
    );
    v.set(
        "planner.balance_us_per_step",
        t.balance_ns as f64 / 1e3 / steps,
    );
    v.set("planner.bucket_imbalance", t.bucket_imbalance_sum / steps);
    v.set(
        "constructor.padding_share",
        1.0 - t.packed_tokens as f64 / t.packed_capacity as f64,
    );
    v.set(
        "constructor.assemble_us_per_sample",
        us("constructor.assemble") / samples,
    );
    v.set(
        "constructor.alloc_bytes_per_sample",
        t.constructor_allocs.bytes as f64 / samples,
    );
    if replica.serialize {
        let kib = t.encoded_bytes as f64 / 1024.0;
        v.set("codec.encode_ns_per_kib", us("codec.encode") * 1e3 / kib);
        v.set("codec.decode_ns_per_kib", us("codec.decode") * 1e3 / kib);
        v.set(
            "codec.allocs_per_batch",
            t.codec_allocs.calls as f64 / t.batches as f64,
        );
        v.set(
            "codec.batch_overhead_ratio",
            t.encoded_bytes as f64 / t.payload_bytes as f64,
        );
    }
    v.set("inline.step_us_p50", quantile(&t.step_us, 0.5));
    v.set(
        "inline.samples_per_s",
        samples / (t.step_us.iter().sum::<f64>() / 1e6),
    );
    // Wall time of the traced steps against what the per-call spans
    // explain: everything but the step spans' own remainder (map inserts,
    // bookkeeping) and the gaps between steps.
    let mut roots = rec.spans().iter().filter(|s| s.parent == ROOT);
    let (first, last) = (roots.clone().next(), roots.next_back());
    if let (Some(first), Some(last)) = (first, last) {
        let wall = (last.end_ns - first.start_ns) as f64 / 1e3;
        let explained: f64 = own
            .iter()
            .filter(|(n, _)| **n != "inline.step")
            .map(|(n, _)| us(n))
            .sum();
        v.set("inline.self_time_coverage", explained / wall);
    }
    rec.spans().to_vec()
}

/// Source (c): the micro loops.
fn micro_metrics(args: &Args, v: &mut Values) {
    let w = &args.workload;
    let (ask_us, tell_ns) = micro::actor_costs();
    v.set("actor.ask_roundtrip_us_p50", ask_us);
    v.set("actor.tell_ns", tell_ns);
    v.set("frontier.fold_ns_per_advance_2", micro::frontier_fold_ns(2));
    v.set(
        "frontier.fold_ns_per_advance_128",
        micro::frontier_fold_ns(128),
    );
    if w.path == Path::Tcp {
        v.set("codec.ctrl_frame_ns", micro::ctrl_frame_ns());
        let mut replica = Replica::new(workload::generate(w, args.seed), w.refill_target);
        let batch = replica.step(&mut Recorder::off(), 0).swap_remove(0);
        let tcp = micro::tcp_costs(std::sync::Arc::new(batch));
        v.set("tcp.pair_rtt_us_p50", tcp.rtt_us_p50);
        v.set("tcp.pair_mib_per_s", tcp.mib_per_s);
        v.set("tcp.threads_per_conn", tcp.threads_per_conn);
    }
    let step_us = micro::runtime_step_us_p50(
        workload::generate(w, args.seed),
        w.refill_target,
        STEP_LOOP_BUDGET,
    );
    v.set("runtime.step_us_p50", step_us);
    // An overhead only where the hand-offs cost more than running the
    // loaders on two cores saves; otherwise absent, not a negative cost.
    if let Some(inline_us) = v.get("inline.step_us_p50").filter(|i| *i <= step_us) {
        v.set("runtime.driver_overhead_us_per_step", step_us - inline_us);
    }
}

/// Runs the traced run of `args.workload` and prints every per-layer metric.
pub fn run(args: &Args, origin: Instant) -> Outcome {
    let w = &args.workload;
    let divisor = args.divisor * TRACE_DIVISOR;
    let (warmup, measured) = w.steps(divisor);
    let untraced_rate = untraced_twin(args, divisor);

    let mut live = LiveTrace::new(origin, warmup);
    let inputs = workload::generate(w, args.seed);
    let mut result = session::run(w, inputs, warmup, measured, origin, Some(&mut live));
    let rss_peak_mb = procfs::rss_peak_mb(); // Before the replica adds its own.
    let verdict = crate::judge(args, &mut result);

    let mut v = Values::default();
    reduce::client_views(&result, &mut v);
    let events = live.meter().take_events();
    live_metrics(&live, &events, &result, w.path, &mut v);
    v.set("runtime.rss_peak_mb", rss_peak_mb);
    let traced_rate = reduce::end_to_end(&result).get("samples_per_s");
    if let (Some(traced), Some(untraced)) = (traced_rate, untraced_rate) {
        v.set("trace.overhead_ratio", traced / untraced);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    v.set("box.cores", cores as f64);

    let replica_spans = replica_metrics(args, origin, &mut v);
    micro_metrics(args, &mut v);

    let (json, spans) = chrome_trace_json(&[
        &replica_spans,
        &client_spans(&result),
        &frame_spans(&events),
    ]);
    v.set("trace.spans", spans as f64);
    let file = format!("{}/{}-seed{}.trace.json", args.trace_dir, w.name, args.seed);
    let written =
        std::fs::create_dir_all(&args.trace_dir).and_then(|()| std::fs::write(&file, json));
    match written {
        Ok(()) => println!("{} trace {file}", w.name),
        Err(e) => eprintln!("{} trace not written to {file}: {e}", w.name),
    }

    let metrics: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let outcome = Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
    };
    crate::report::print_run(w.name, &metrics, &v, outcome);
    outcome
}
