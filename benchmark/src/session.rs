//! One live session of a workload on the real threaded runtime: build the
//! pipeline, serve, run the two closed-loop clients, tear down.
//!
//! The untraced session starts no thread but the two clients. Each client
//! stamps the clock and reads the allocator and wire counters when
//! `next()` returns, into vectors sized before the session starts;
//! everything is reduced after it ends. A traced session additionally
//! records a span per `next()`, installs the metered transport and runs
//! the status poller (see `trace.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use msd_core::constructor::ConstructedBatch;
use msd_core::system::net::{LoopbackTransport, Transport};
use msd_core::system::runtime::{ServeClient, ServeOptions, ServeSession, ThreadedPipeline};
use msd_core::system::server::{RemoteClient, RemotePlacement};
use msd_core::system::tcp::TcpTransport;

use crate::alloc;
use crate::oracle::digest_batch;
use crate::procfs;
use crate::report::RUN_SECONDS;
use crate::trace::{LiveTrace, MeteredTransport, DONE};
use crate::wire::CountingTransport;
use crate::workload::{Inputs, Path, Workload, CLIENTS, DIGEST_STEPS};

/// What a client notes the moment `next()` hands it a batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamp {
    /// Nanoseconds since process start.
    pub t_ns: u64,
    /// Allocator counters at that instant.
    pub alloc: alloc::AllocSnap,
    /// Encoded bytes sent over the transport so far (remote paths), or
    /// payload bytes handed to clients so far (local path).
    pub wire: u64,
}

/// Everything one client saw, in arrival order.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One stamp per delivery.
    pub stamps: Vec<Stamp>,
    /// Step ordinal of each delivery as the program reported it.
    pub steps: Vec<u64>,
    /// DP bucket of each delivered batch.
    pub buckets: Vec<u32>,
    /// Sample ids of all deliveries, concatenated; `id_ends[i]` closes
    /// delivery `i`'s run.
    pub ids: Vec<u64>,
    /// End offsets into `ids`, one per delivery.
    pub id_ends: Vec<u32>,
    /// Content digest of each of the first [`DIGEST_STEPS`] deliveries.
    pub digests: Vec<u64>,
    /// Process CPU seconds (`/proc/self/stat`) read on receiving the last
    /// warm-up step and the last measured step: the window's two edges.
    pub cpu_marks: Vec<f64>,
    /// Traced sessions only: when each `next()` call started, ns.
    pub next_started: Vec<u64>,
    /// The hard deadline passed before the stream ended.
    pub timed_out: bool,
}

impl ClientLog {
    /// Logs sized for `steps` deliveries of at most `samples_per_step`
    /// samples (a bucket gets about half a step, never more than all of
    /// it), so that no vector grows while the session runs.
    fn with_capacity(steps: usize, samples_per_step: usize, traced: bool) -> Self {
        ClientLog {
            stamps: Vec::with_capacity(steps),
            steps: Vec::with_capacity(steps),
            buckets: Vec::with_capacity(steps),
            ids: Vec::with_capacity(steps * samples_per_step),
            id_ends: Vec::with_capacity(steps),
            digests: Vec::with_capacity(DIGEST_STEPS as usize),
            cpu_marks: Vec::with_capacity(2),
            next_started: Vec::with_capacity(if traced { steps + 1 } else { 0 }),
            timed_out: false,
        }
    }

    /// Sample ids of delivery `i`.
    pub fn ids_of(&self, i: usize) -> &[u64] {
        let start = if i == 0 {
            0
        } else {
            self.id_ends[i - 1] as usize
        };
        &self.ids[start..self.id_ends[i] as usize]
    }
}

/// A pulling client of either serving path.
enum Client {
    Local(ServeClient),
    Remote(RemoteClient),
}

impl Client {
    fn next(&mut self) -> Option<(u64, Arc<ConstructedBatch>)> {
        match self {
            Client::Local(c) => c.next(),
            Client::Remote(c) => c.next(),
        }
    }
}

/// Nanoseconds since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// What the two client loops share.
struct LoopCtx {
    origin: Instant,
    warmup: u64,
    measured: u64,
    /// Hard timeout, ns since `origin`: four times the nominal session.
    deadline_ns: u64,
    wire: Arc<AtomicU64>,
    /// Deliveries completed per client: the traced poller's clock.
    progress: Vec<AtomicU64>,
}

/// The closed loop of one client: pull, check, stamp, pull again.
/// `TRACED` adds the per-call span start and the progress beacon; the
/// untraced instantiation contains neither.
fn client_loop<const TRACED: bool>(
    index: usize,
    mut client: Client,
    mut log: ClientLog,
    ctx: &LoopCtx,
) -> ClientLog {
    let local = matches!(client, Client::Local(_));
    let total = ctx.warmup + ctx.measured;
    for delivery in 0..total {
        if TRACED {
            log.next_started.push(ns_since(ctx.origin));
        }
        let Some((step, batch)) = client.next() else {
            break; // Stream ended early: the missing steps count as failed.
        };
        // Check the batch: ids, payload bytes, and (warm-up only) content.
        let mut bytes = 0u64;
        for mb in &batch.microbatches {
            for (id, payload) in &mb.payloads {
                log.ids.push(*id);
                bytes += payload.len() as u64;
            }
        }
        if delivery < DIGEST_STEPS {
            log.digests.push(digest_batch(step, &batch));
        }
        log.steps.push(step);
        log.buckets.push(batch.bucket);
        log.id_ends.push(log.ids.len() as u32);
        drop(batch);
        if local {
            ctx.wire.fetch_add(bytes, Ordering::Relaxed);
        }
        let stamp = Stamp {
            t_ns: ns_since(ctx.origin),
            alloc: alloc::snapshot(),
            wire: ctx.wire.load(Ordering::Relaxed),
        };
        log.stamps.push(stamp);
        if delivery + 1 == ctx.warmup || delivery + 1 == total {
            log.cpu_marks.push(procfs::process_cpu_s());
        }
        if TRACED {
            ctx.progress[index].store(delivery + 1, Ordering::Relaxed);
        }
        if stamp.t_ns > ctx.deadline_ns && delivery + 1 < total {
            log.timed_out = true;
            break;
        }
    }
    if TRACED {
        log.next_started.push(ns_since(ctx.origin));
        ctx.progress[index].store(DONE, Ordering::Relaxed);
    }
    // One more pull: the stream is exhausted, so a remote client runs its
    // close handshake here, after the last stamp and outside every window.
    if !log.timed_out {
        let _ = client.next();
    }
    log
}

/// What a finished session hands back.
pub struct SessionResult {
    /// Per-client logs, index = client id.
    pub logs: Vec<ClientLog>,
    /// Steps the driver broadcast.
    pub served: u64,
    /// Warm-up steps asked for.
    pub warmup: u64,
    /// Measured steps asked for.
    pub measured: u64,
    /// Bytes of the benchmark's own pre-sized logs, live for the whole
    /// session: subtracted from every live-heap reading.
    pub bench_owned_bytes: u64,
}

/// Runs one session of `workload` for `warmup + measured` steps. `origin`
/// is process start; `trace` turns the traced additions on.
pub fn run(
    workload: &Workload,
    inputs: Inputs,
    warmup: u64,
    measured: u64,
    origin: Instant,
    mut trace: Option<&mut LiveTrace>,
) -> SessionResult {
    let total = warmup + measured;
    let traced = trace.is_some();
    // The logs are sized before anything else runs, so the live-heap
    // difference around them is exactly the benchmark's own bytes.
    let live_before = alloc::snapshot().live;
    let logs: Vec<ClientLog> = (0..CLIENTS)
        .map(|_| ClientLog::with_capacity(total as usize, workload.samples_per_step, traced))
        .collect();
    let bench_owned_bytes = alloc::snapshot().live.wrapping_sub(live_before);

    let mut pipeline = ThreadedPipeline::new(
        inputs.sources,
        inputs.planner,
        inputs.constructors,
        inputs.pipeline_seed,
    );
    let opts = ServeOptions {
        clients: CLIENTS,
        steps: total,
        refill_target: workload.refill_target,
        queue_depth: 4,
        prefetch: true,
        control_interval: 0,
        ..ServeOptions::default()
    };

    let (session, clients, handle, wire): (ServeSession, Vec<Client>, _, _) = match workload.path {
        Path::Local => {
            let mut session = pipeline.serve(opts);
            let clients = session.take_clients();
            let clients = clients.into_iter().map(Client::Local).collect();
            // No wire: the counter holds payload bytes handed to clients.
            (session, clients, None, Arc::new(AtomicU64::new(0)))
        }
        Path::Loopback | Path::Tcp => {
            let inner: Arc<dyn Transport> = if workload.path == Path::Tcp {
                Arc::new(TcpTransport::new().expect("bind a localhost listener"))
            } else {
                Arc::new(LoopbackTransport)
            };
            let counting = CountingTransport::new(inner);
            let wire = counting.counter();
            let transport: Arc<dyn Transport> = match trace.as_deref_mut() {
                Some(t) => Arc::new(MeteredTransport::new(Arc::new(counting), t.meter())),
                None => Arc::new(counting),
            };
            let placements: Vec<RemotePlacement> = (0..CLIENTS)
                .map(|c| RemotePlacement { client: c, rank: c })
                .collect();
            let (session, handle) = pipeline.serve_distributed(opts, transport, &placements);
            // Each client dials its own connection on its first `next()`.
            let clients = (0..CLIENTS).map(|c| Client::Remote(handle.connect(c)));
            (session, clients.collect(), Some(handle), wire)
        }
    };

    // Nominal length: this session's share of a full run's steps, which
    // are sized for `RUN_SECONDS` after about three seconds of warm-up.
    let share = total as f64 / (workload.warmup_steps + workload.measured_steps) as f64;
    let nominal_s = (share * (RUN_SECONDS + 3) as f64).max(5.0);
    let ctx = LoopCtx {
        origin,
        warmup,
        measured,
        deadline_ns: ns_since(origin) + (4.0 * nominal_s * 1e9) as u64,
        wire,
        progress: (0..CLIENTS).map(|_| AtomicU64::new(0)).collect(),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let ctx = &ctx;
        let workers: Vec<_> = clients
            .into_iter()
            .zip(logs)
            .enumerate()
            .map(|(index, (client, log))| {
                std::thread::Builder::new()
                    .name("bench/client".into())
                    .spawn_scoped(s, move || {
                        if traced {
                            client_loop::<true>(index, client, log, ctx)
                        } else {
                            client_loop::<false>(index, client, log, ctx)
                        }
                    })
                    .expect("spawn client thread")
            })
            .collect();
        // Traced only: this thread becomes the status poller. Untraced, it
        // parks in `join` and the two clients are the only benchmark threads.
        if let Some(trace) = trace {
            trace.poll_until_done(&pipeline, handle.as_ref(), &session, &ctx.progress, total);
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });

    if logs.iter().any(|l| l.timed_out) {
        session.stop(); // Do not wait out the driver's drain for a dead stream.
    }
    let served = session.join();
    drop(handle);
    pipeline.shutdown();
    SessionResult {
        logs,
        served,
        warmup,
        measured,
        bench_owned_bytes,
    }
}
