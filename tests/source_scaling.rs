//! A live fig 20: what one served step allocates as the number of sources
//! grows, on the real threaded runtime.
//!
//! Each run serves a `text_only` catalog of 128, 512 or 2,048 sources (one
//! loader each) through `serve_distributed` over in-process loopback to
//! two clients, at a fixed 1,024 samples per step and a refill target of
//! 32 per loader. Every thread's allocator calls and requested bytes are
//! counted between two deliveries of client 0, after a warm-up; the run
//! prints calls and bytes per step and per drawn sample, the messages
//! each loader group handled per served step over the whole session, and
//! the process's threads
//! (`cargo test --test source_scaling -- --nocapture`).
//!
//! The gates: from 512 to 2,048 sources, calls per step grow at most
//! 1.25×. A step's payload is the same 1,024 samples at every width, so
//! what grows with the sources is the control path: the gather, the
//! plan's directives, the checkpoints. At 128 sources (the benchmark's
//! `manysrc` shape) a step requests at most 3,000 B per drawn sample:
//! the driver carries each bucket's samples in plan order without a
//! per-step map, and the planner's nodes name the gathered metadata rows
//! instead of copying them. And at every width a loader group handles at
//! most 3.05 messages per served step: a refill, a summary and a pop,
//! which also checkpoints the group's loaders, plus the session's one
//! extra refill.
//!
//! This binary holds this one test, so no other test allocates while it
//! counts every thread.

#[path = "harness/counting.rs"]
mod counting;
mod harness;

use std::sync::Arc;

use megascale_data::core::system::net::{LoopbackTransport, Transport};
use megascale_data::data::catalog::text_only;
use megascale_data::sim::SimRng;

/// Samples the planner draws per step, at every width.
const DRAWN: usize = 1024;
/// Deliveries client 0 takes before counting starts.
const WARMUP: u64 = 4;
/// Deliveries counted.
const MEASURED: u64 = 16;

/// Threads of this process.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Bytes a 128-source step may request per drawn sample.
const MANYSRC_BYTES_PER_SAMPLE: f64 = 3000.0;
/// Messages a loader group may handle per served step.
const GROUP_MESSAGES_PER_STEP: f64 = 3.05;

/// `(allocator calls per step, bytes per step, threads, messages each
/// loader group handled per served step)` of a live session over
/// `sources` text sources.
fn cost_per_step(sources: u32) -> (f64, f64, usize, f64) {
    let catalog = text_only(&mut SimRng::seed(17), sources);
    let mut pipeline = harness::pipeline_over(&catalog, DRAWN, 5);
    let opts = harness::opts(2, WARMUP + MEASURED + 2);
    let transport: Arc<dyn Transport> = Arc::new(LoopbackTransport);
    let (session, handle) = pipeline.serve_distributed(opts, transport, &harness::placements(2));
    let ((calls, bytes), threads) = std::thread::scope(|s| {
        let counter = s.spawn(|| {
            let mut client = handle.connect(0);
            let mut marks = Vec::with_capacity(2);
            let mut threads = 0;
            for delivery in 1..=WARMUP + MEASURED {
                client.next().expect("client 0 stream ended early");
                if delivery == WARMUP {
                    threads = os_threads();
                }
                if delivery == WARMUP || delivery == WARMUP + MEASURED {
                    marks.push((counting::process_calls(), counting::process_bytes()));
                }
            }
            while client.next().is_some() {}
            ((marks[1].0 - marks[0].0, marks[1].1 - marks[0].1), threads)
        });
        s.spawn(|| {
            let mut client = handle.connect(1);
            while client.next().is_some() {}
        });
        counter.join().expect("client 0 thread")
    });
    let served = session.join();
    drop(handle);
    let mut groups = pipeline.loaders();
    groups.sort_by(|a, b| a.name().cmp(b.name()));
    groups.dedup_by(|a, b| a.name() == b.name());
    let messages: u64 = groups.iter().map(|group| group.processed()).sum();
    pipeline.shutdown();
    let per_step = |count: u64| count as f64 / MEASURED as f64;
    let group_messages = messages as f64 / (groups.len() as u64 * served) as f64;
    (per_step(calls), per_step(bytes), threads, group_messages)
}

#[test]
fn per_step_allocator_calls_barely_grow_with_sources() {
    counting::count_every_thread();
    println!("live serve, {DRAWN} samples per step, refill target 32, 2 loopback clients:");
    println!(
        "sources  calls/step  calls/sample  bytes/step  bytes/sample  threads  group msgs/step"
    );
    let mut per_step = Vec::new();
    for sources in [128u32, 512, 2048] {
        let (calls, bytes, threads, group_messages) = cost_per_step(sources);
        println!(
            "{sources:>7}  {calls:>10.0}  {:>12.3}  {bytes:>10.0}  {:>12.0}  {threads:>7}  \
             {group_messages:>15.3}",
            calls / DRAWN as f64,
            bytes / DRAWN as f64
        );
        assert!(
            group_messages <= GROUP_MESSAGES_PER_STEP,
            "at {sources} sources a loader group handled {group_messages:.3} messages \
             per served step (gate {GROUP_MESSAGES_PER_STEP})"
        );
        per_step.push((calls, bytes));
    }
    let manysrc = per_step[0].1 / DRAWN as f64;
    assert!(
        manysrc <= MANYSRC_BYTES_PER_SAMPLE,
        "a 128-source step requested {manysrc:.0} B per drawn sample \
         (gate {MANYSRC_BYTES_PER_SAMPLE:.0})"
    );
    let growth = per_step[2].0 / per_step[1].0;
    assert!(
        growth <= 1.25,
        "allocator calls per step grew {growth:.2}x from 512 to 2,048 sources \
         ({:.0} -> {:.0})",
        per_step[1].0,
        per_step[2].0
    );
}
