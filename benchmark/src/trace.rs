//! Everything that exists only in a traced run (`--trace 1`): spans and
//! their self time, the Chrome-trace writer, the metered transport and the
//! status poller. All of it lives in the benchmark: the calls into each
//! layer's public functions are timed from outside the program.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use msd_actor::Gcs;
use msd_core::metrics::{self, HistogramSnapshot, Stage};
use msd_core::pool::{self, PoolCounters};
use msd_core::system::net::{
    FrameRx, FrameTx, FrameWaker, NetError, Transport, TryRecv, WireConn, WireFrame,
};
use msd_core::system::runtime::{ServeSession, ThreadedPipeline};
use msd_core::system::server::DataServerHandle;

use crate::procfs;
use crate::session::ns_since;
use crate::stats::quantile;
use crate::wire::{batch_head_len, frame_len};

/// "No parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;
/// Steps between two status polls.
const POLL_EVERY: u64 = 50;

/// One timed call: name, interval, the span that caused it, the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `loader.refill`.
    pub name: &'static str,
    /// Start, ns since process start.
    pub start_ns: u64,
    /// End, ns since process start.
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Step the work belongs to: the identifier spans of one step share.
    pub step: u64,
    /// Track the span is drawn on in the trace viewer.
    pub track: u32,
}

/// In-memory span store for one thread of execution. Parents come from a
/// stack of open spans, so nesting follows the call structure.
pub struct Recorder {
    origin: Instant,
    track: u32,
    /// `None`: switched off, `span` only runs its closure.
    spans: Option<Vec<Span>>,
    open: Vec<u32>,
}

impl Recorder {
    /// An empty recorder stamping against `origin` on `track`.
    pub fn new(origin: Instant, track: u32) -> Self {
        Recorder {
            origin,
            track,
            spans: Some(Vec::new()),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: for callers that want the timed
    /// code path without its spans.
    pub fn off() -> Self {
        Recorder {
            origin: Instant::now(),
            track: 0,
            spans: None,
            open: Vec::new(),
        }
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, step: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let Some(spans) = self.spans.as_mut() else {
            return f(self);
        };
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns: ns_since(self.origin),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            step,
            track: self.track,
        });
        self.open.push(id as u32);
        let out = f(self);
        self.open.pop();
        let end_ns = ns_since(self.origin);
        if let Some(spans) = self.spans.as_mut() {
            spans[id].end_ns = end_ns;
        }
        out
    }

    /// Makes room for `more` spans now, so that recording them allocates
    /// nothing inside an interval whose allocations are being attributed.
    pub fn reserve(&mut self, more: usize) {
        if let Some(spans) = self.spans.as_mut() {
            spans.reserve(more);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other or
/// stick out of the parent; the union of their intervals, clipped to the
/// parent, is what counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids.iter() {
                let start = (*start).max(reach);
                let end = (*end).min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time by span name, ns.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut by_name = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Renders span groups as Chrome-trace JSON ("X" complete events, µs);
/// returns the text and the number of events. Write it to a file and open
/// that in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(groups: &[&[Span]]) -> (String, usize) {
    let mut out = String::from("[\n");
    let mut count = 0usize;
    for (pid, spans) in groups.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if count > 0 {
                out.push_str(",\n");
            }
            let _ =
                write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"step\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                pid,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.step,
                i,
                if s.parent == ROOT { -1 } else { i64::from(s.parent) },
            );
            count += 1;
        }
    }
    out.push_str("\n]\n");
    (out, count)
}

// ---------------------------------------------------------------------
// Metered transport: counts and times frames by kind, traced runs only.

/// Frame kinds the meter tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A serve step's batch (server → client).
    Batch,
    /// Per-batch receipt.
    Ack,
    /// Flow-control grant.
    Credit,
    /// Cumulative consumed-frontier announcement.
    Frontier,
    /// Hello, Subscribe, Close, Reject: session set-up and teardown.
    Session,
}

impl Kind {
    fn of(frame: &WireFrame) -> Kind {
        match frame {
            WireFrame::Batch { .. } => Kind::Batch,
            WireFrame::Ack { .. } => Kind::Ack,
            WireFrame::Credit { .. } => Kind::Credit,
            WireFrame::Frontier { .. } => Kind::Frontier,
            _ => Kind::Session,
        }
    }

    fn span_name(self, send: bool) -> &'static str {
        match (self, send) {
            (Kind::Batch, true) => "net.send.batch",
            (Kind::Ack, true) => "net.send.ack",
            (Kind::Credit, true) => "net.send.credit",
            (Kind::Frontier, true) => "net.send.frontier",
            (Kind::Session, true) => "net.send.session",
            (Kind::Batch, false) => "net.recv.batch",
            (Kind::Ack, false) => "net.recv.ack",
            (Kind::Credit, false) => "net.recv.credit",
            (Kind::Frontier, false) => "net.recv.frontier",
            (Kind::Session, false) => "net.recv.session",
        }
    }
}

/// One `FrameTx::send` or blocking `FrameRx::recv` call.
#[derive(Debug, Clone, Copy)]
pub struct FrameEvent {
    /// Frame kind (`None`: a `recv` that timed out or found the peer gone).
    pub kind: Option<Kind>,
    /// `send` (true) or `recv` (false).
    pub send: bool,
    /// The endpoint belongs to the client side of its connection.
    pub client_side: bool,
    /// Call start, ns since process start.
    pub start_ns: u64,
    /// Call end, ns since process start.
    pub end_ns: u64,
    /// Encoded frame bytes (0 for an empty `recv`).
    pub bytes: u64,
    /// Serve step of a batch or ack frame, else 0.
    pub step: u64,
    /// A batch frame at or below the highest step already sent to its client.
    pub resent: bool,
}

/// The shared event log of a [`MeteredTransport`].
pub struct Meter {
    origin: Instant,
    events: Mutex<Vec<FrameEvent>>,
    /// Highest batch step sent so far, per client id (resend detection).
    high: Mutex<HashMap<u32, u64>>,
}

impl Meter {
    fn record(&self, event: FrameEvent) {
        self.events.lock().expect("meter lock").push(event);
    }

    /// Takes the events logged so far (call once the session has ended).
    pub fn take_events(&self) -> Vec<FrameEvent> {
        std::mem::take(&mut *self.events.lock().expect("meter lock"))
    }
}

/// A [`Transport`] wrapper that logs every send and every receive.
pub struct MeteredTransport {
    inner: Arc<dyn Transport>,
    meter: Arc<Meter>,
}

impl MeteredTransport {
    /// Wraps `inner`, logging into `meter`.
    pub fn new(inner: Arc<dyn Transport>, meter: Arc<Meter>) -> Self {
        MeteredTransport { inner, meter }
    }

    fn wrap(&self, conn: WireConn, client_side: bool) -> WireConn {
        let end = MeteredEnd {
            meter: Arc::clone(&self.meter),
            client_side,
            serializes: self.inner.serializes(),
            batch_head_len: batch_head_len(),
        };
        WireConn {
            tx: Box::new(MeteredTx(conn.tx, end.clone())),
            rx: Box::new(MeteredRx(conn.rx, end)),
        }
    }
}

impl Transport for MeteredTransport {
    fn pair(&self) -> (WireConn, WireConn) {
        let (client, server) = self.inner.pair();
        (self.wrap(client, true), self.wrap(server, false))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn serializes(&self) -> bool {
        self.inner.serializes()
    }
}

#[derive(Clone)]
struct MeteredEnd {
    meter: Arc<Meter>,
    client_side: bool,
    serializes: bool,
    batch_head_len: usize,
}

impl MeteredEnd {
    fn event(&self, frame: Option<&WireFrame>, send: bool, start_ns: u64) -> FrameEvent {
        let step = match frame {
            Some(WireFrame::Batch { step, .. } | WireFrame::Ack { step, .. }) => *step,
            _ => 0,
        };
        let mut resent = false;
        if let (true, Some(WireFrame::Batch { client, step, .. })) = (send, frame) {
            let mut high = self.meter.high.lock().expect("meter lock");
            match high.get_mut(client) {
                Some(h) if *step <= *h => resent = true,
                Some(h) => *h = *step,
                None => {
                    high.insert(*client, *step);
                }
            }
        }
        FrameEvent {
            kind: frame.map(Kind::of),
            send,
            client_side: self.client_side,
            start_ns,
            end_ns: ns_since(self.meter.origin),
            bytes: frame.map_or(0, |f| {
                frame_len(f, self.serializes, self.batch_head_len) as u64
            }),
            step,
            resent,
        }
    }
}

struct MeteredTx(Box<dyn FrameTx>, MeteredEnd);

impl FrameTx for MeteredTx {
    fn send(&self, frame: WireFrame) -> Result<(), NetError> {
        // Size and classify before the frame moves into the inner send;
        // the timed interval is the inner send alone.
        let mut event = self.1.event(Some(&frame), true, 0);
        event.start_ns = ns_since(self.1.meter.origin);
        let sent = self.0.send(frame);
        event.end_ns = ns_since(self.1.meter.origin);
        self.1.meter.record(event);
        sent
    }
}

struct MeteredRx(Box<dyn FrameRx>, MeteredEnd);

impl FrameRx for MeteredRx {
    fn recv(&mut self, timeout: Duration) -> Result<WireFrame, NetError> {
        let start_ns = ns_since(self.1.meter.origin);
        let got = self.0.recv(timeout);
        let event = self.1.event(got.as_ref().ok(), false, start_ns);
        self.1.meter.record(event);
        got
    }

    fn try_recv(&mut self) -> TryRecv {
        let start_ns = ns_since(self.1.meter.origin);
        let got = self.0.try_recv();
        if let TryRecv::Frame(frame) = &got {
            let event = self.1.event(Some(frame), false, start_ns);
            self.1.meter.record(event);
        }
        got
    }

    fn set_waker(&mut self, waker: FrameWaker) {
        self.0.set_waker(waker);
    }
}

// ---------------------------------------------------------------------
// The status poller: asks the running system what it holds, every
// POLL_EVERY steps, through its public status surfaces only.

/// Cumulative counters read at both edges of the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edge {
    /// Global buffer-pool counters.
    pub pool: PoolCounters,
    /// Pump-tick latency histogram.
    pub pump: HistogramSnapshot,
    /// Frames the server received over all sessions.
    pub frames_rx: u64,
    /// Batch frames the server sent.
    pub batches_tx: u64,
    /// Voluntary context switches, all live threads.
    pub ctx_switches: u64,
    /// This process's CPU seconds.
    pub process_cpu_s: f64,
    /// Machine `(busy, steal, total)` CPU seconds.
    pub machine_cpu: (f64, f64, f64),
}

/// What the poller saw at one poll.
#[derive(Debug, Clone, Copy, Default)]
pub struct Poll {
    /// Samples buffered over all loaders.
    pub buffered: u64,
    /// Deepest mailbox among loaders, planner and constructors.
    pub mailbox_depth: u64,
    /// Most steps queued on one constructor.
    pub ready_steps: u64,
    /// Server-wide retained retransmit bytes.
    pub retained_bytes: u64,
    /// Most unacknowledged batches held for one client.
    pub unacked: u64,
    /// Steps between the fastest client's cursor and the folded frontier.
    pub frontier_lag: u64,
    /// Plan-log entries in the GCS.
    pub plan_log_entries: u64,
    /// Bytes of every GCS state blob the benchmark can name.
    pub gcs_state_bytes: u64,
    /// Threads alive.
    pub threads: u64,
    /// Idle buffers held by the pool.
    pub pool_idle: u64,
    /// How long `ThreadedPipeline::stats()` took, µs.
    pub stats_call_us: f64,
}

/// Trace state of one live session.
pub struct LiveTrace {
    meter: Arc<Meter>,
    warmup: u64,
    /// Window-edge counter readings: `[start, end]` of the measured steps.
    pub edges: [Edge; 2],
    /// One entry per poll inside the measured window.
    pub polls: Vec<Poll>,
    /// Reader threads of the data server (remote paths).
    pub reader_threads: Option<u64>,
    /// Lowest plan-log step still present (the prober's cursor).
    plan_floor: u64,
    plan_head: u64,
}

/// A client that left its loop stores this in its progress beacon.
pub const DONE: u64 = u64::MAX;

impl LiveTrace {
    /// Trace state for a session with `warmup` warm-up steps.
    pub fn new(origin: Instant, warmup: u64) -> Self {
        LiveTrace {
            meter: Arc::new(Meter {
                origin,
                events: Mutex::new(Vec::new()),
                high: Mutex::new(HashMap::new()),
            }),
            warmup,
            edges: [Edge::default(); 2],
            polls: Vec::new(),
            reader_threads: None,
            plan_floor: 0,
            plan_head: 0,
        }
    }

    /// The frame-event log shared with the metered transport.
    pub fn meter(&self) -> Arc<Meter> {
        Arc::clone(&self.meter)
    }

    fn edge(&self, handle: Option<&DataServerHandle>) -> Edge {
        let snapshot = metrics::snapshot();
        let status = handle
            .and_then(DataServerHandle::status)
            .unwrap_or_default();
        Edge {
            pool: pool::global().counters(),
            pump: snapshot.stage(Stage::Pump).histogram,
            frames_rx: status.frames_rx,
            batches_tx: status.batches_tx,
            ctx_switches: procfs::voluntary_ctx_switches(),
            process_cpu_s: procfs::process_cpu_s(),
            machine_cpu: procfs::machine_cpu(),
        }
    }

    /// Counts plan-log entries and sums the bytes of the state blobs the
    /// runtime documents (`plan/{step}`, `planner`, `planner/tree`,
    /// `frontier`, `controller`, `loader/{id}`). The store has no key
    /// listing, so the contiguous plan log is walked from a cursor.
    fn probe_gcs(&mut self, gcs: &Gcs, loaders: usize, head_hint: u64) -> (u64, u64) {
        let plan = |step: u64| gcs.get_state(&format!("plan/{step}"));
        while self.plan_floor < head_hint && plan(self.plan_floor).is_none() {
            self.plan_floor += 1;
        }
        self.plan_head = self.plan_head.max(self.plan_floor);
        while plan(self.plan_head).is_some() {
            self.plan_head += 1;
        }
        let mut bytes: usize = (self.plan_floor..self.plan_head)
            .filter_map(plan)
            .map(|cp| cp.data.len())
            .sum();
        let named = ["planner", "planner/tree", "frontier", "controller"];
        let loader_keys = (0..loaders).map(|i| format!("loader/{i}"));
        for key in named.iter().map(|k| k.to_string()).chain(loader_keys) {
            bytes += gcs.get_state(&key).map_or(0, |cp| cp.data.len());
        }
        (self.plan_head - self.plan_floor, bytes as u64)
    }

    fn poll(
        &mut self,
        pipeline: &ThreadedPipeline,
        handle: Option<&DataServerHandle>,
        session: &ServeSession,
        fastest: u64,
    ) -> Poll {
        let started = Instant::now();
        let stats = pipeline.stats();
        let stats_call_us = started.elapsed().as_secs_f64() * 1e6;
        let status = handle
            .and_then(DataServerHandle::status)
            .unwrap_or_default();
        let mailboxes = stats
            .loaders
            .iter()
            .map(|l| l.mailbox_depth)
            .chain(stats.constructors.iter().map(|c| c.mailbox_depth))
            .chain([stats.planner_mailbox_depth]);
        let (plan_log_entries, gcs_state_bytes) =
            self.probe_gcs(&pipeline.gcs, stats.loaders.len(), fastest);
        Poll {
            buffered: stats.total_buffered() as u64,
            mailbox_depth: mailboxes.max().unwrap_or(0) as u64,
            ready_steps: stats
                .constructors
                .iter()
                .map(|c| c.ready_steps.len())
                .max()
                .unwrap_or(0) as u64,
            retained_bytes: status.retained_bytes,
            unacked: status.clients.iter().map(|c| c.unacked).max().unwrap_or(0) as u64,
            frontier_lag: fastest.saturating_sub(session.frontier()),
            plan_log_entries,
            gcs_state_bytes,
            threads: procfs::threads(),
            pool_idle: pool::global().idle_buffers() as u64,
            stats_call_us,
        }
    }

    /// Runs the poller on the calling thread until both clients are done:
    /// reads the window-edge counters when the slower client crosses the
    /// warm-up and the end, and polls every [`POLL_EVERY`] steps between.
    pub fn poll_until_done(
        &mut self,
        pipeline: &ThreadedPipeline,
        handle: Option<&DataServerHandle>,
        session: &ServeSession,
        progress: &[AtomicU64],
        total: u64,
    ) {
        self.reader_threads = handle.map(|h| h.reader_threads() as u64);
        let mut next_poll = self.warmup + POLL_EVERY;
        let mut edges_read = 0;
        loop {
            let seen: Vec<u64> = progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
            let all_done = seen.iter().all(|p| *p == DONE);
            let at = |p: &u64| if *p == DONE { total } else { *p };
            let slowest = seen.iter().map(at).min().unwrap_or(total);
            let fastest = seen.iter().map(at).max().unwrap_or(total);
            if edges_read == 0 && slowest >= self.warmup {
                self.edges[0] = self.edge(handle);
                edges_read = 1;
            }
            if edges_read == 1 && (slowest >= total || all_done) {
                self.edges[1] = self.edge(handle);
                edges_read = 2;
            }
            if edges_read == 1 && slowest >= next_poll {
                let poll = self.poll(pipeline, handle, session, fastest);
                self.polls.push(poll);
                next_poll = slowest + POLL_EVERY;
            }
            if all_done {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Frame events as spans: client endpoints on track 10, server ones on 11.
pub fn frame_spans(events: &[FrameEvent]) -> Vec<Span> {
    events
        .iter()
        .filter_map(|e| {
            Some(Span {
                name: e.kind?.span_name(e.send),
                start_ns: e.start_ns,
                end_ns: e.end_ns,
                parent: ROOT,
                step: e.step,
                track: if e.client_side { 10 } else { 11 },
            })
        })
        .collect()
}

/// p50 of a metrics histogram delta, µs.
pub fn histogram_quantile_us(
    later: &HistogramSnapshot,
    earlier: &HistogramSnapshot,
    q: f64,
) -> f64 {
    later.since(earlier).quantile(q) as f64 / 1e3
}

/// Median of one field over the polls (NaN, so absent, without polls).
pub fn poll_p50(polls: &[Poll], field: impl Fn(&Poll) -> u64) -> f64 {
    if polls.is_empty() {
        return f64::NAN;
    }
    let values: Vec<f64> = polls.iter().map(|p| field(p) as f64).collect();
    quantile(&values, 0.5)
}

/// Maximum of one field over the polls (NaN, so absent, without polls).
pub fn poll_max(polls: &[Poll], field: impl Fn(&Poll) -> u64) -> f64 {
    polls.iter().map(field).max().map_or(f64::NAN, |m| m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            step: 0,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 has child 10..60, which has grandchild 20..30.
        let spans = [span(0, 100, ROOT), span(10, 60, 0), span(20, 30, 1)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        // Children 10..40 and 30..70 overlap (union 60); 90..120 sticks out
        // of the parent and is clipped to 90..100; 40..50 is inside the union.
        let spans = [
            span(0, 100, ROOT),
            span(30, 70, 0),
            span(10, 40, 0),
            span(90, 120, 0),
            span(40, 50, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // Children covering more than the parent leave zero, not underflow.
        let spans = [span(10, 20, ROOT), span(0, 50, 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.span("step", 7, |rec| {
            rec.span("loader.refill", 7, |_| ());
            rec.span("planner.synthesize", 7, |rec| {
                rec.span("planner.balance", 7, |_| ())
            });
        });
        let parents: Vec<u32> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![ROOT, 0, 0, 2]);
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.step == 7));
        let total: u64 = self_times(rec.spans()).iter().sum();
        assert_eq!(total, rec.spans()[0].end_ns - rec.spans()[0].start_ns);
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let spans = [span(1_000, 3_500, ROOT), span(1_500, 2_000, 0)];
        let (text, events) = chrome_trace_json(&[&spans]);
        assert_eq!(events, 2);
        assert!(text.starts_with("[\n") && text.ends_with("]\n"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(text.contains("\"parent\":-1") && text.contains("\"parent\":0"));
    }
}
