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
//! - [`TcpTransport`]: every frame is *serialized* through the MSDB
//!   codec and crosses a real socket before the receiver decodes it.
//!
//! [`ChaosTransport`] wraps either one and is the one fault layer:
//! seeded drops, duplicates, reorders and partitions. The reliability
//! layer above (windows, consumed reports, resume-from-cursor) must keep
//! client streams gap-free and duplicate-free under it.
//!
//! Frames, not streams: each send is one self-delimiting MSDB frame, so
//! the chaos layer can drop, duplicate or reorder messages
//! independently — the failure units the protocol reasons about.
//!
//! [`TcpTransport`]: crate::system::tcp::TcpTransport
//! [`ChaosTransport`]: crate::system::chaos::ChaosTransport

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::codec::{self, BatchFrame, CodecError};
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

/// A shared in-process batch plus its lazily memoized wire form, a
/// [`BatchFrame`]: the frame's metadata and seal, with the payload bytes
/// left in the batch's own `Bytes`. The first wire send builds it, and
/// resends or bucket-mate fan-out of the same batch reuse it.
#[derive(Debug, Clone)]
pub struct SharedBatch {
    batch: Arc<ConstructedBatch>,
    wire: Arc<std::sync::OnceLock<BatchFrame>>,
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

    /// A handle that does not keep the batch alive: a constructor caches
    /// one per built step, so bucket-mates share the batch for exactly as
    /// long as a client or an in-flight frame holds it.
    pub(crate) fn downgrade(&self) -> WeakBatch {
        WeakBatch {
            batch: Arc::downgrade(&self.batch),
            wire: Arc::downgrade(&self.wire),
        }
    }

    /// Forces the memoized wire form now, off the send path. Constructor
    /// actors call this (when the session's transport serializes) so a
    /// multi-megabyte batch is sealed on the construct thread —
    /// overlapped with loader fetches and client consumption — instead
    /// of stalling the serve loop's first send.
    pub fn warm(&self) {
        self.frame();
    }

    /// The wire form, built once per batch: the metadata is written and
    /// every payload hashed in place for the seal; no payload is copied.
    fn frame(&self) -> &BatchFrame {
        self.wire.get_or_init(|| {
            let start = std::time::Instant::now();
            let frame = BatchFrame::encode(&self.batch);
            crate::metrics::record_stage(crate::metrics::Stage::Encode, start.elapsed());
            frame
        })
    }

    /// Length of the wire form, read off the memo when it is built and
    /// counted from the batch's fields when it is not.
    fn wire_len(&self) -> usize {
        self.wire.get().map_or_else(
            || codec::encoded_batch_len(&self.batch),
            BatchFrame::encoded_len,
        )
    }
}

/// A [`SharedBatch`] that does not keep it alive
/// ([`SharedBatch::downgrade`]).
#[derive(Debug, Clone)]
pub(crate) struct WeakBatch {
    batch: std::sync::Weak<ConstructedBatch>,
    wire: std::sync::Weak<std::sync::OnceLock<BatchFrame>>,
}

impl WeakBatch {
    /// The batch, if something still holds it. Its memoized wire form
    /// comes with it while a frame holds that too; a client that kept
    /// only the batch leaves the wire form to be encoded again.
    pub(crate) fn upgrade(&self) -> Option<SharedBatch> {
        Some(SharedBatch {
            batch: self.batch.upgrade()?,
            wire: self.wire.upgrade().unwrap_or_default(),
        })
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
/// network it is the serialized batch bytes. Receivers call
/// [`BatchPayload::batch`] and get a shared `Arc` either way.
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

    /// Length of the payload's wire form (a kind-11 frame), without
    /// building it.
    pub fn wire_len(&self) -> usize {
        match self {
            BatchPayload::Shared(shared) => shared.wire_len(),
            BatchPayload::Encoded(bytes) => bytes.len(),
        }
    }

    /// Calls `f` on the payload's wire form in order. Received bytes are
    /// one part; a shared batch yields its memoized [`BatchFrame`]
    /// metadata interleaved with its samples' own payload views, building
    /// the memo on first use.
    pub fn for_each_part<'a>(&'a self, mut f: impl FnMut(&'a [u8])) {
        match self {
            BatchPayload::Shared(shared) => shared.frame().for_each_part(&shared.batch, f),
            BatchPayload::Encoded(bytes) => f(bytes),
        }
    }
}

/// One message of the MSDB wire protocol between a trainer-rank client
/// and the loader-side [`crate::system::server::DataServer`].
///
/// The protocol is client-driven and window-based: a client introduces
/// itself (`Hello`), opens or resumes its stream (`Subscribe` carries
/// the resume cursor plus the window `W`), and thereafter reports every
/// consumed batch with one cumulative `Frontier`, which both
/// acknowledges it and slides the send limit to `consumed + W`. Loss of
/// any frame degrades to a client-side receive timeout, which
/// re-`Subscribe`s from the cursor — the server then re-pulls the window
/// from the constructor's ready queue. `Ack` and `Credit` are no longer
/// sent; the server ignores them, and they stay decodable only until
/// their kinds are retired.
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
        /// Window `W`: the server may send steps below
        /// `consumed + credits`, where `consumed` is the client's latest
        /// report (`from_step` until a `Frontier` arrives).
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
    /// Receipt for a delivered batch. Unsent and ignored by the server:
    /// [`WireFrame::Frontier`] carries the same fact cumulatively.
    Ack {
        /// Acknowledging client id.
        client: u32,
        /// The received serve step.
        step: u64,
    },
    /// Flow-control grant. Unsent and ignored by the server: the send
    /// limit is `consumed + W`, so [`WireFrame::Frontier`] grants credit
    /// as it reports progress.
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
    /// Consumed report (client → server), sent once per consumed step:
    /// everything below `consumed` has been durably consumed by this
    /// client. It acknowledges those steps, slides the send limit to
    /// `consumed + W` (withholding it is how a slow trainer rank
    /// backpressures the constructors), and folds the client's
    /// capability into the global frontier. Cumulative (a later report
    /// subsumes an earlier, lost one) and monotone on the server — a
    /// stale or reordered report can never rewind the capability.
    Frontier {
        /// Announcing client id.
        client: u32,
        /// First step the client may still need (exclusive upper bound
        /// of its consumed prefix).
        consumed: u64,
    },
}

/// Why a [`WireFrame::Reject`] refused a dial. Carried on the wire as a
/// one-byte tag declared in [`crate::codec`]; a byte naming no reason is
/// a decode error, so fuzzed frames cannot smuggle an unclassifiable
/// refusal through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The server is at `ServerConfig::max_sessions` live sessions.
    SessionLimit,
    /// The serve session ended before its last step (say, a loader group
    /// past its restart budget): the stream is over, so the client stops
    /// instead of redialing.
    Ended,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::SessionLimit => write!(f, "session limit reached"),
            RejectReason::Ended => write!(f, "serve session ended early"),
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
/// becomes observable on the endpoint (and when the peer hangs up), on
/// the thread that delivered it. The data server's waker drains the
/// session's receiver into its mailbox right there, so an idle session
/// costs no thread and nothing polls it.
pub type FrameWaker = Arc<dyn Fn() + Send + Sync>;

/// Outcome of a non-blocking [`FrameRx::try_recv`] poll.
pub enum TryRecv {
    /// A frame was ready.
    Frame(WireFrame),
    /// Nothing observable right now; the waker fires when that changes.
    Empty,
    /// The peer endpoint is gone.
    Closed,
    /// The byte stream is unrecoverably desynchronized (see
    /// [`NetError::Corrupt`]).
    Corrupt,
}

/// The receiving half of a connection endpoint.
///
/// Every receiver must wake: the data server reads a session's receiver
/// only when its waker fires, so a receiver that never wakes strands
/// its session.
pub trait FrameRx: Send {
    /// Blocks up to `timeout` for the next frame.
    fn recv(&mut self, timeout: Duration) -> Result<WireFrame, NetError>;

    /// Non-blocking poll.
    fn try_recv(&mut self) -> TryRecv;

    /// Installs a readiness waker (see [`FrameWaker`]), fired on every
    /// delivery and on hang-up. Implementations also fire it once
    /// immediately, so frames enqueued before registration are never
    /// silently parked.
    fn set_waker(&mut self, waker: FrameWaker);
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
    /// actor keeps the sender; the receiver's waker drains it).
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
        stx.send(WireFrame::Close { client: 3 }).unwrap();
        assert!(matches!(
            crx.recv(Duration::from_secs(1)).unwrap(),
            WireFrame::Close { client: 3 }
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
}
