//! Transport abstraction for the distributed serving plane.
//!
//! The paper's dataloader is a disaggregated *service*: loader hosts
//! feed trainer ranks across a network, not across a function call. This
//! module is the seam between those two worlds — a [`Transport`] opens
//! bidirectional connections carrying [`WireFrame`]s of the MSDB wire
//! protocol (kinds 5–10 and 12 of [`crate::codec`]), and two
//! implementations bound the fidelity/cost trade:
//!
//! - [`LoopbackTransport`]: in-process channels moving frames by value.
//!   A [`WireFrame::Batch`] keeps its [`BatchPayload::Shared`] handle,
//!   so delivery is a refcount bump on the one constructed batch — the
//!   zero-copy contract of the data plane extends through the wire
//!   layer unchanged.
//! - [`SimTransport`]: every frame is *serialized* through the MSDB
//!   codec and pushed through a [`msd_sim::LossyLink`] — deterministic
//!   loss plus the alpha-beta latency of [`msd_sim::NetModel`] — before
//!   the receiver decodes it. This is the adversarial testbed: the
//!   reliability layer above (credit windows, acks, resume-from-cursor)
//!   must keep client streams gap-free and duplicate-free on it.
//!
//! Frames, not streams: each send is one self-delimiting MSDB frame, so
//! the sim transport can drop, delay, or (on decode failure) discard
//! messages independently — the failure units the protocol reasons
//! about.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use msd_sim::{LossyLink, NetModel};
use parking_lot::Mutex;

use crate::codec::{self, CodecError};
use crate::constructor::ConstructedBatch;

/// Errors surfaced by a transport endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The peer endpoint is gone (connection closed or dropped).
    Closed,
    /// No frame arrived within the timeout.
    Timeout,
    /// The byte stream is unrecoverably desynchronized (e.g. a corrupt
    /// length prefix on a stream transport). Unlike a corrupt frame
    /// *body* — which is self-delimiting and skipped like a lost
    /// datagram — a corrupt frame *boundary* poisons everything after
    /// it, so the connection must be torn down and redialed.
    Corrupt,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Corrupt => write!(f, "byte stream desynchronized"),
        }
    }
}

impl std::error::Error for NetError {}

/// A shared in-process batch plus its lazily memoized wire form: the
/// first wire send serializes, and window resends or bucket-mate
/// fan-out of the same batch reuse the cached bytes.
#[derive(Debug, Clone)]
pub struct SharedBatch {
    batch: Arc<ConstructedBatch>,
    wire: Arc<std::sync::OnceLock<Bytes>>,
}

impl SharedBatch {
    /// Wraps a constructed batch for wire delivery.
    pub fn new(batch: Arc<ConstructedBatch>) -> Self {
        SharedBatch {
            batch,
            wire: Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// The shared batch handle (a refcount bump).
    pub fn batch(&self) -> Arc<ConstructedBatch> {
        Arc::clone(&self.batch)
    }

    /// Forces the memoized wire encoding now, off the send path.
    /// Constructor actors call this (when the session's transport
    /// serializes) so a multi-megabyte batch is serialized on the
    /// construct thread — overlapped with loader fetches and client
    /// consumption — instead of stalling the serve loop's first send.
    pub fn warm(&self) {
        let _ = self.encoded();
    }

    /// The serialized wire form (the binary MSDB batch frame), computed
    /// once per batch. The encode scratch is leased from the global
    /// buffer pool and frozen in place: once the batch has been acked by
    /// every client and pruned from resend windows, the backing buffer's
    /// views all drop and the pool steals it back for a later batch.
    fn encoded(&self) -> Bytes {
        self.wire
            .get_or_init(|| {
                let start = std::time::Instant::now();
                let mut lease =
                    crate::pool::global().lease(codec::encoded_batch_len(self.batch.as_ref()));
                codec::encode_batch_into(self.batch.as_ref(), &mut lease);
                let bytes = lease.freeze();
                crate::metrics::record_stage(crate::metrics::Stage::Encode, start.elapsed());
                bytes
            })
            .clone()
    }

    /// Payload bytes the batch carries, from the microbatch byte
    /// counters — cheap, and crucially it never forces the wire
    /// encoding, so retransmit-buffer accounting works on loopback too.
    pub(crate) fn payload_len(&self) -> u64 {
        self.batch
            .microbatches
            .iter()
            .map(|mb| mb.payload_bytes)
            .sum()
    }

    /// Number of sample payloads the batch carries (for per-sample wire
    /// accounting).
    fn samples(&self) -> u64 {
        self.batch
            .microbatches
            .iter()
            .map(|mb| mb.payloads.len() as u64)
            .sum()
    }
}

impl PartialEq for SharedBatch {
    fn eq(&self, other: &Self) -> bool {
        self.batch == other.batch
    }
}

/// The batch payload of a [`WireFrame::Batch`].
///
/// On loopback the payload stays a shared handle end to end; over a real
/// (or simulated) network it is the serialized batch bytes. Receivers
/// call [`BatchPayload::batch`] and get a shared `Arc` either way.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchPayload {
    /// In-process delivery: the constructed batch handed over by
    /// refcount — its payload `Bytes` remain views of the loader
    /// buffers, never copies.
    Shared(SharedBatch),
    /// Network delivery: the batch serialized for the wire, parsed
    /// lazily on first use.
    Encoded(Bytes),
}

impl BatchPayload {
    /// Wraps a constructed batch as an in-process shared payload.
    pub fn shared(batch: Arc<ConstructedBatch>) -> Self {
        BatchPayload::Shared(SharedBatch::new(batch))
    }

    /// The carried batch, parsing encoded payloads on demand. Errors
    /// carry the frame length and offending byte offset (see
    /// [`CodecError::frame_len`] and [`CodecError::offset`]).
    pub fn batch(&self) -> Result<Arc<ConstructedBatch>, CodecError> {
        match self {
            BatchPayload::Shared(shared) => Ok(shared.batch()),
            BatchPayload::Encoded(bytes) => codec::decode_batch_shared(bytes).map(Arc::new),
        }
    }

    /// The wire form of the payload; shared batches serialize once and
    /// memoize.
    pub fn encoded(&self) -> Bytes {
        match self {
            BatchPayload::Shared(shared) => shared.encoded(),
            BatchPayload::Encoded(bytes) => bytes.clone(),
        }
    }
}

/// One message of the MSDB wire protocol between a trainer-rank client
/// and the loader-side [`crate::system::server::DataServer`].
///
/// The protocol is client-driven and window-based: a client introduces
/// itself (`Hello`), opens or resumes its stream (`Subscribe` carries
/// the resume cursor plus the initial credit window), and thereafter
/// every consumed batch is both acknowledged (`Ack`, trimming the
/// server's retransmit buffer) and paid for (`Credit`, sliding the
/// absolute send window forward). Loss of any frame degrades to a
/// client-side receive timeout, which re-`Subscribe`s from the cursor —
/// the server then resends exactly the unacknowledged window.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// Client introduction: who is dialing and which trainer rank it
    /// hosts (the server maps the rank onto a constructor bucket).
    Hello {
        /// Deployment-wide client id.
        client: u32,
        /// The trainer rank this client feeds.
        rank: u32,
    },
    /// Open or resume the client's batch stream.
    Subscribe {
        /// Deployment-wide client id.
        client: u32,
        /// First serve step the client still needs (its consumed
        /// cursor — resume is gap-free and duplicate-free by
        /// construction).
        from_step: u64,
        /// Credit window: the server may send steps
        /// `[from_step, from_step + credits)` before further `Credit`
        /// grants arrive.
        credits: u32,
    },
    /// One serve step's constructed batch (server → client).
    Batch {
        /// Destination client id.
        client: u32,
        /// Serve step ordinal.
        step: u64,
        /// The batch, shared on loopback, serialized on the wire.
        payload: BatchPayload,
    },
    /// Receipt for a delivered batch; trims the server's retransmit
    /// buffer.
    Ack {
        /// Acknowledging client id.
        client: u32,
        /// The received serve step.
        step: u64,
    },
    /// Flow-control grant: slide the client's send window forward by
    /// `grant` steps. Withholding credit is how a slow trainer rank
    /// backpressures the constructors instead of ballooning queues.
    Credit {
        /// Granting client id.
        client: u32,
        /// Additional steps the server may send.
        grant: u32,
    },
    /// Clean stream teardown (sent by a finishing or dropped client).
    Close {
        /// Departing client id.
        client: u32,
    },
    /// Admission refusal (server → client): the dial was understood but
    /// the server will not host the session right now. Unlike a silent
    /// drop, the client learns *why* and backs off before retrying
    /// instead of hammering a full server.
    Reject {
        /// Refused client id.
        client: u32,
        /// Why admission was refused.
        reason: RejectReason,
    },
    /// Consumed-frontier announcement (client → server): everything
    /// below `consumed` has been durably consumed by this client, so
    /// the server may release retained state for those steps. Cumulative
    /// (a later announcement subsumes an earlier one) and monotone on
    /// the server — a stale or reordered announcement can never rewind
    /// the capability. Unlike `Ack`, which receipts one step, this
    /// carries the client's whole progress in one frame, which is what
    /// the global frontier fold consumes.
    Frontier {
        /// Announcing client id.
        client: u32,
        /// First step the client may still need (exclusive upper bound
        /// of its consumed prefix).
        consumed: u64,
    },
}

/// Why a [`WireFrame::Reject`] refused a dial. Carried on the wire as a
/// single validated byte, so fuzzed frames with unknown codes fail to
/// decode instead of smuggling an unclassifiable refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// The server is at `ServerConfig::max_sessions` live sessions.
    SessionLimit = 0,
    /// The client's retransmit buffer would exceed its per-client byte
    /// cap (the client is consuming too far behind its window).
    RetransmitCap = 1,
}

impl RejectReason {
    /// The wire byte for this reason.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte back into a reason; unknown codes are a
    /// decode error, not a default.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RejectReason::SessionLimit),
            1 => Some(RejectReason::RetransmitCap),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::SessionLimit => write!(f, "session limit reached"),
            RejectReason::RetransmitCap => write!(f, "retransmit buffer over cap"),
        }
    }
}

impl WireFrame {
    /// The client id the frame concerns.
    pub fn client(&self) -> u32 {
        match self {
            WireFrame::Hello { client, .. }
            | WireFrame::Subscribe { client, .. }
            | WireFrame::Batch { client, .. }
            | WireFrame::Ack { client, .. }
            | WireFrame::Credit { client, .. }
            | WireFrame::Close { client }
            | WireFrame::Reject { client, .. }
            | WireFrame::Frontier { client, .. } => *client,
        }
    }
}

/// The sending half of a connection endpoint.
pub trait FrameTx: Send {
    /// Sends one frame. `Err(Closed)` means the peer hung up; a lossy
    /// transport dropping the frame is *not* an error — loss is
    /// invisible to the sender, exactly like a real datagram.
    fn send(&self, frame: WireFrame) -> Result<(), NetError>;
}

/// Readiness callback installed on a [`FrameRx`] via
/// [`FrameRx::set_waker`]. The transport fires it whenever a frame
/// becomes observable on the endpoint (and when the peer hangs up), so
/// a multiplexing reader — the server's sharded reader plane — can park
/// thousands of idle sessions without polling any of them.
pub type FrameWaker = Arc<dyn Fn() + Send + Sync>;

/// Outcome of a non-blocking [`FrameRx::try_recv`] poll.
pub enum TryRecv {
    /// A frame was ready.
    Frame(WireFrame),
    /// Nothing observable right now; the waker fires when that changes.
    Empty,
    /// A frame is in flight but its modeled delivery time lies in the
    /// future (sim transport latency). Poll again at the instant — no
    /// waker fires for it, because the sender already woke at enqueue.
    NotBefore(Instant),
    /// The peer endpoint is gone.
    Closed,
    /// The byte stream is unrecoverably desynchronized (see
    /// [`NetError::Corrupt`]).
    Corrupt,
}

/// The receiving half of a connection endpoint.
pub trait FrameRx: Send {
    /// Blocks up to `timeout` for the next frame.
    fn recv(&mut self, timeout: Duration) -> Result<WireFrame, NetError>;

    /// Non-blocking poll. The default maps a zero-timeout [`recv`],
    /// which is correct for any transport; channel-backed transports
    /// override it with a plain channel `try_recv`.
    ///
    /// [`recv`]: FrameRx::recv
    fn try_recv(&mut self) -> TryRecv {
        match self.recv(Duration::ZERO) {
            Ok(frame) => TryRecv::Frame(frame),
            Err(NetError::Timeout) => TryRecv::Empty,
            Err(NetError::Closed) => TryRecv::Closed,
            Err(NetError::Corrupt) => TryRecv::Corrupt,
        }
    }

    /// Installs a readiness waker (see [`FrameWaker`]). Implementations
    /// fire it once immediately so frames enqueued before registration
    /// are never silently parked. Endpoints that do not support waking
    /// ignore the call; such endpoints must then be drained by a
    /// blocking reader.
    fn set_waker(&mut self, _waker: FrameWaker) {}
}

/// The waker slot shared between a connection's sending and receiving
/// halves: the sender fires it on every delivery (and on drop, so
/// hang-ups wake parked readers too).
#[derive(Default)]
pub(crate) struct WakeSlot(Mutex<Option<FrameWaker>>);

impl WakeSlot {
    /// Fires the registered waker, if any.
    pub(crate) fn wake(&self) {
        let waker = self.0.lock().clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Registers the waker and fires it once to cover frames that
    /// arrived before registration.
    pub(crate) fn set(&self, waker: FrameWaker) {
        *self.0.lock() = Some(waker.clone());
        waker();
    }
}

/// A [`WakeSlot`] handle that fires once more when dropped — the
/// hang-up wake. Declare it *after* the channel sender inside a tx
/// struct: Rust drops fields in declaration order, so the sender is
/// already disconnected by the time this fires, and a parked reader
/// woken by it observes `Closed` instead of `Empty`. (Waking from a
/// manual `Drop` impl has the opposite order — the wake lands while
/// the sender still lives, the reader drains to `Empty`, parks again,
/// and the hang-up is lost forever.)
pub(crate) struct WakeOnDrop(pub(crate) Arc<WakeSlot>);

impl WakeOnDrop {
    /// Fires the registered waker, if any (delivery wake).
    pub(crate) fn wake(&self) {
        self.0.wake();
    }
}

impl Drop for WakeOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

/// One end of an established bidirectional connection.
pub struct WireConn {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
}

impl WireConn {
    /// Splits the endpoint into independently owned halves (the server
    /// actor keeps the sender; a reader thread drains the receiver).
    pub fn split(self) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        (self.tx, self.rx)
    }
}

/// A connection factory: the serving plane's pluggable data path.
pub trait Transport: Send + Sync {
    /// Opens one connection, returning the `(client, server)` endpoints.
    fn pair(&self) -> (WireConn, WireConn);

    /// Short transport label for logs and reports.
    fn name(&self) -> &'static str;

    /// Whether frames crossing this transport are serialized to wire
    /// bytes. Constructor actors use this to pre-encode batches at
    /// construct time (overlapping the encode with loader fetches)
    /// instead of paying for it lazily on the serve loop's first send.
    /// Loopback hands batches over by `Arc` and never serializes.
    fn serializes(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Loopback: in-process channels, zero-copy batch hand-off.

/// In-process transport: frames move by value over channels and batch
/// payloads stay `Arc`-shared. The upper bound on what any network
/// transport can deliver — and the deployment shape for trainer ranks
/// co-located with their loader host.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopbackTransport;

struct ChanTx {
    // Field order is load-bearing: `tx` must drop before `wake`, so the
    // hang-up wake fires on an already-disconnected channel.
    tx: Sender<WireFrame>,
    wake: WakeOnDrop,
}

impl FrameTx for ChanTx {
    fn send(&self, frame: WireFrame) -> Result<(), NetError> {
        let sent = self.tx.send(frame).map_err(|_| NetError::Closed);
        self.wake.wake();
        sent
    }
}

struct ChanRx {
    rx: Receiver<WireFrame>,
    wake: Arc<WakeSlot>,
}

impl FrameRx for ChanRx {
    fn recv(&mut self, timeout: Duration) -> Result<WireFrame, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Closed,
        })
    }

    fn try_recv(&mut self) -> TryRecv {
        match self.rx.try_recv() {
            Ok(frame) => TryRecv::Frame(frame),
            Err(TryRecvError::Empty) => TryRecv::Empty,
            Err(TryRecvError::Disconnected) => TryRecv::Closed,
        }
    }

    fn set_waker(&mut self, waker: FrameWaker) {
        self.wake.set(waker);
    }
}

/// One loopback lane: a frame channel plus the shared wake slot its
/// sender fires on every delivery.
fn loopback_lane() -> (ChanTx, ChanRx) {
    let (tx, rx) = unbounded();
    let wake = Arc::new(WakeSlot::default());
    (
        ChanTx {
            tx,
            wake: WakeOnDrop(Arc::clone(&wake)),
        },
        ChanRx { rx, wake },
    )
}

impl Transport for LoopbackTransport {
    fn pair(&self) -> (WireConn, WireConn) {
        let (to_server_tx, to_server_rx) = loopback_lane();
        let (to_client_tx, to_client_rx) = loopback_lane();
        (
            WireConn {
                tx: Box::new(to_server_tx),
                rx: Box::new(to_client_rx),
            },
            WireConn {
                tx: Box::new(to_client_tx),
                rx: Box::new(to_server_rx),
            },
        )
    }

    fn name(&self) -> &'static str {
        "loopback"
    }

    fn serializes(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Simulated network: serialized frames over a lossy, delayed link.

/// Aggregate traffic counters of a [`SimTransport`], summed over every
/// lane of every connection it opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimNetStats {
    /// Frames offered to the network.
    pub offered: u64,
    /// Frames the network dropped.
    pub dropped: u64,
    /// Serialized bytes of every delivered frame.
    pub delivered_bytes: u64,
    /// Serialized bytes of every delivered `Batch` frame.
    pub batch_wire_bytes: u64,
    /// Sample payloads carried by delivered `Batch` frames (resends
    /// count again — the metric tracks actual wire traffic).
    pub batch_samples: u64,
}

impl SimNetStats {
    /// Wire bytes spent per delivered sample payload — the encoding-
    /// efficiency headline (the binary batch frame pays ~1× the payload
    /// bytes).
    pub fn wire_bytes_per_sample(&self) -> f64 {
        if self.batch_samples == 0 {
            return 0.0;
        }
        self.batch_wire_bytes as f64 / self.batch_samples as f64
    }
}

/// A simulated network path: frames are MSDB-serialized, then pushed
/// through a per-lane [`LossyLink`] (deterministic loss, alpha-beta
/// latency) and decoded at the far end. Frames that fail to decode are
/// discarded like drops — corruption and loss are the same event to the
/// protocol above.
pub struct SimTransport {
    model: NetModel,
    loss: f64,
    seed: u64,
    next_lane: AtomicU64,
    stats: Arc<Mutex<SimNetStats>>,
}

impl SimTransport {
    /// Creates a transport with the given link model, per-frame loss
    /// probability, and RNG seed (lanes derive per-connection seeds, so
    /// a run is bit-reproducible).
    pub fn new(model: NetModel, loss: f64, seed: u64) -> Self {
        SimTransport {
            model,
            loss,
            seed,
            next_lane: AtomicU64::new(0),
            stats: Arc::new(Mutex::new(SimNetStats::default())),
        }
    }

    /// Traffic counters aggregated over all connections so far.
    pub fn stats(&self) -> SimNetStats {
        *self.stats.lock()
    }

    fn lane(&self, tx: Sender<SimPacket>, wake: Arc<WakeSlot>) -> SimTx {
        let lane = self.next_lane.fetch_add(1, Ordering::SeqCst);
        SimTx {
            link: Mutex::new(LossyLink::new(
                self.model.clone(),
                self.loss,
                self.seed ^ (lane << 32) ^ lane,
            )),
            tx,
            wake: WakeOnDrop(wake),
            stats: Arc::clone(&self.stats),
        }
    }
}

/// One simulated in-flight frame: its modeled delivery time plus the
/// scatter-gather wire parts from [`codec::encode_wire_frame_parts`] —
/// the sealed head, and for batch frames the payload [`Bytes`] handed
/// through by refcount. The simulated link charges for (and can drop)
/// the full serialized size, but never copies the payload: exactly the
/// scatter-gather send a real NIC path would do.
struct SimPacket {
    due: Instant,
    head: Vec<u8>,
    payload: Option<Bytes>,
}

struct SimTx {
    link: Mutex<LossyLink>,
    // Field order is load-bearing: `tx` must drop before `wake`, so the
    // hang-up wake fires on an already-disconnected channel.
    tx: Sender<SimPacket>,
    wake: WakeOnDrop,
    stats: Arc<Mutex<SimNetStats>>,
}

impl FrameTx for SimTx {
    fn send(&self, frame: WireFrame) -> Result<(), NetError> {
        let samples = match &frame {
            WireFrame::Batch {
                payload: BatchPayload::Shared(shared),
                ..
            } => Some(shared.samples()),
            WireFrame::Batch { .. } => Some(0),
            _ => None,
        };
        // Frame heads are small and constantly churning: lease from the
        // pool here, recycle on the receive side once decoded.
        let send_start = Instant::now();
        let mut head = crate::pool::global().lease_vec(codec::encoded_wire_frame_len(&frame));
        let payload = codec::encode_wire_frame_parts(&frame, &mut head);
        let wire_len = (head.len() + payload.as_ref().map_or(0, Bytes::len)) as u64;
        let admitted = self.link.lock().admit(wire_len);
        {
            let mut stats = self.stats.lock();
            stats.offered += 1;
            match admitted {
                Some(_) => {
                    stats.delivered_bytes += wire_len;
                    if let Some(samples) = samples {
                        stats.batch_wire_bytes += wire_len;
                        stats.batch_samples += samples;
                    }
                }
                None => stats.dropped += 1,
            }
        }
        let outcome = match admitted {
            // Dropped in flight: success from the sender's perspective
            // (and the head buffer goes straight back to the pool).
            None => {
                crate::pool::global().recycle_vec(head);
                Ok(())
            }
            Some(delay) => {
                let due = Instant::now() + Duration::from_nanos(delay.as_nanos());
                let sent = self
                    .tx
                    .send(SimPacket { due, head, payload })
                    .map_err(|_| NetError::Closed);
                // Wake at enqueue, not at `due`: a multiplexed reader
                // polling too early sees `NotBefore(due)` and re-polls
                // at the delivery instant on its own timer.
                self.wake.wake();
                sent
            }
        };
        crate::metrics::record_stage(crate::metrics::Stage::Send, send_start.elapsed());
        outcome
    }
}

struct SimRx {
    rx: Receiver<SimPacket>,
    /// A dequeued frame whose modeled delivery time lies beyond a past
    /// `recv` call's deadline — parked so the timeout contract holds
    /// without losing the frame.
    pending: Option<SimPacket>,
    wake: Arc<WakeSlot>,
}

impl FrameRx for SimRx {
    fn recv(&mut self, timeout: Duration) -> Result<WireFrame, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let packet = match self.pending.take() {
                Some(parked) => parked,
                None => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    self.rx.recv_timeout(remaining).map_err(|e| match e {
                        RecvTimeoutError::Timeout => NetError::Timeout,
                        RecvTimeoutError::Disconnected => NetError::Closed,
                    })?
                }
            };
            // Model the link latency: the frame is not observable before
            // its delivery time — but never wait past the caller's
            // deadline; park the frame for the next call instead. OS
            // sleep granularity (hrtimer slack) is ~50µs, far coarser
            // than wire-speed delivery times, so sub-resolution waits
            // spin instead of inflating every microsecond-scale frame
            // to a scheduler quantum.
            let now = Instant::now();
            if packet.due > now {
                if packet.due > deadline {
                    self.pending = Some(packet);
                    return Err(NetError::Timeout);
                }
                if packet.due - now > Duration::from_micros(200) {
                    std::thread::sleep(packet.due - now);
                }
                while Instant::now() < packet.due {
                    std::hint::spin_loop();
                }
            }
            let SimPacket { head, payload, .. } = packet;
            let decoded = codec::decode_wire_frame_split(&head, payload);
            // The head's bytes are fully consumed by the decode; the
            // buffer completes its pool round trip here.
            crate::pool::global().recycle_vec(head);
            match decoded {
                Ok(frame) => return Ok(frame),
                Err(_) => continue, // Corrupted in transit: same as lost.
            }
        }
    }

    fn try_recv(&mut self) -> TryRecv {
        loop {
            let packet = match self.pending.take() {
                Some(parked) => parked,
                None => match self.rx.try_recv() {
                    Ok(packet) => packet,
                    Err(TryRecvError::Empty) => return TryRecv::Empty,
                    Err(TryRecvError::Disconnected) => return TryRecv::Closed,
                },
            };
            // Model the link latency without blocking the multiplexed
            // reader: sub-resolution waits spin (like `recv`), anything
            // longer is handed back as a re-poll instant — the sender
            // already woke us at enqueue, so no further wake is coming
            // for this packet.
            let now = Instant::now();
            if packet.due > now {
                if packet.due - now > Duration::from_micros(200) {
                    let due = packet.due;
                    self.pending = Some(packet);
                    return TryRecv::NotBefore(due);
                }
                while Instant::now() < packet.due {
                    std::hint::spin_loop();
                }
            }
            let SimPacket { head, payload, .. } = packet;
            let decoded = codec::decode_wire_frame_split(&head, payload);
            crate::pool::global().recycle_vec(head);
            match decoded {
                Ok(frame) => return TryRecv::Frame(frame),
                Err(_) => continue, // Corrupted in transit: same as lost.
            }
        }
    }

    fn set_waker(&mut self, waker: FrameWaker) {
        self.wake.set(waker);
    }
}

impl Transport for SimTransport {
    fn pair(&self) -> (WireConn, WireConn) {
        let (to_server_tx, to_server_rx) = unbounded();
        let (to_client_tx, to_client_rx) = unbounded();
        let (server_wake, client_wake) =
            (Arc::new(WakeSlot::default()), Arc::new(WakeSlot::default()));
        (
            WireConn {
                tx: Box::new(self.lane(to_server_tx, Arc::clone(&server_wake))),
                rx: Box::new(SimRx {
                    rx: to_client_rx,
                    pending: None,
                    wake: client_wake.clone(),
                }),
            },
            WireConn {
                tx: Box::new(self.lane(to_client_tx, client_wake)),
                rx: Box::new(SimRx {
                    rx: to_server_rx,
                    pending: None,
                    wake: server_wake,
                }),
            },
        )
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(client: u32) -> WireFrame {
        WireFrame::Hello { client, rank: 7 }
    }

    #[test]
    fn loopback_delivers_frames_both_ways() {
        let t = LoopbackTransport;
        let (client, server) = t.pair();
        let (ctx, mut crx) = client.split();
        let (stx, mut srx) = server.split();
        ctx.send(hello(3)).unwrap();
        match srx.recv(Duration::from_secs(1)).unwrap() {
            WireFrame::Hello { client, rank } => {
                assert_eq!((client, rank), (3, 7));
            }
            other => panic!("unexpected frame: {other:?}"),
        }
        stx.send(WireFrame::Credit {
            client: 3,
            grant: 2,
        })
        .unwrap();
        assert!(matches!(
            crx.recv(Duration::from_secs(1)).unwrap(),
            WireFrame::Credit { grant: 2, .. }
        ));
    }

    #[test]
    fn loopback_batches_stay_shared() {
        let t = LoopbackTransport;
        let (client, server) = t.pair();
        let batch = Arc::new(ConstructedBatch {
            bucket: 1,
            microbatches: vec![],
            deliveries: vec![],
        });
        client
            .tx
            .send(WireFrame::Batch {
                client: 0,
                step: 0,
                payload: BatchPayload::shared(Arc::clone(&batch)),
            })
            .unwrap();
        let (_, mut srx) = server.split();
        let got = match srx.recv(Duration::from_secs(1)).unwrap() {
            WireFrame::Batch { payload, .. } => payload.batch().unwrap(),
            other => panic!("unexpected frame: {other:?}"),
        };
        assert!(Arc::ptr_eq(&got, &batch), "loopback copied the batch");
    }

    #[test]
    fn closed_peer_surfaces_on_both_halves() {
        let t = LoopbackTransport;
        let (client, server) = t.pair();
        drop(server);
        assert_eq!(client.tx.send(hello(0)), Err(NetError::Closed));
        let mut rx = client.rx;
        assert_eq!(rx.recv(Duration::from_millis(10)), Err(NetError::Closed));
    }

    #[test]
    fn sim_transport_serializes_and_drops_deterministically() {
        let t = SimTransport::new(NetModel::default(), 0.5, 11);
        let (client, server) = t.pair();
        let (_, mut srx) = server.split();
        let sent = 200u32;
        for i in 0..sent {
            client.tx.send(hello(i)).unwrap();
        }
        let mut got = 0u32;
        while let Ok(frame) = srx.recv(Duration::from_millis(100)) {
            assert!(matches!(frame, WireFrame::Hello { .. }));
            got += 1;
        }
        let stats = t.stats();
        assert_eq!(stats.offered, u64::from(sent));
        assert_eq!(u64::from(got), stats.offered - stats.dropped);
        assert!(stats.dropped > 30, "loss=0.5 dropped {}", stats.dropped);
        assert!(got > 30, "loss=0.5 delivered only {got}");
        // Identical seed → identical drop pattern.
        let t2 = SimTransport::new(NetModel::default(), 0.5, 11);
        let (client2, server2) = t2.pair();
        let (_, mut srx2) = server2.split();
        for i in 0..sent {
            client2.tx.send(hello(i)).unwrap();
        }
        let mut got2 = 0u32;
        while srx2.recv(Duration::from_millis(100)).is_ok() {
            got2 += 1;
        }
        assert_eq!(got, got2, "sim loss is not deterministic");
    }

    #[test]
    fn encoded_payload_decode_errors_carry_frame_context() {
        let batch = ConstructedBatch {
            bucket: 2,
            microbatches: vec![],
            deliveries: vec![],
        };
        let wire = codec::encode_batch(&batch);
        // Truncated mid-frame: the error names the frame length instead
        // of dropping all context.
        let cut = wire.len() - 3;
        let payload = BatchPayload::Encoded(Bytes::from(wire[..cut].to_vec()));
        let err = payload.batch().unwrap_err();
        assert_eq!(err.frame_len(), Some(cut));
        assert!(
            err.to_string().contains(&format!("{cut}-byte frame")),
            "frame length missing from: {err}"
        );
    }

    #[test]
    fn sim_transport_round_trips_batches_through_the_codec() {
        let t = SimTransport::new(NetModel::default(), 0.0, 3);
        let (client, server) = t.pair();
        let batch = Arc::new(ConstructedBatch {
            bucket: 9,
            microbatches: vec![],
            deliveries: vec![],
        });
        client
            .tx
            .send(WireFrame::Batch {
                client: 4,
                step: 17,
                payload: BatchPayload::shared(Arc::clone(&batch)),
            })
            .unwrap();
        let (_, mut srx) = server.split();
        match srx.recv(Duration::from_secs(1)).unwrap() {
            WireFrame::Batch {
                client,
                step,
                payload,
            } => {
                assert_eq!((client, step), (4, 17));
                // The wire hop serialized: the decoded batch is equal but
                // no longer the same allocation.
                let got = payload.batch().unwrap();
                assert_eq!(*got, *batch);
                assert!(!Arc::ptr_eq(&got, &batch));
                assert!(matches!(payload, BatchPayload::Encoded(_)));
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
}
