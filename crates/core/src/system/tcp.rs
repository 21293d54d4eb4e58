//! Real TCP transport for the distributed serving plane.
//!
//! [`LoopbackTransport`] hands frames over in-process; this module
//! serializes every frame and crosses an actual OS socket, so a trainer
//! process and a data-plane process can run as two genuine OS processes
//! (see `examples/tcp_serve.rs`). Wrapped in a [`ChaosTransport`] it is
//! also the lossy network the fault tests run on. Built on `std::net`
//! only.
//!
//! ## Framing
//!
//! TCP is a byte stream, not a datagram service, so each MSDB wire
//! frame is carried length-prefixed:
//!
//! ```text
//! | len: u32 LE | MSDB frame (magic..checksum), `len` bytes |
//! ```
//!
//! The receive thread reassembles frames across arbitrary packet
//! boundaries (`read_exact` on the prefix, then on the body — a frame
//! split at every single byte still reassembles). Failure mapping keeps
//! the protocol's datagram worldview:
//!
//! - A frame **body** that fails MSDB decoding is discarded like a lost
//!   datagram — the stream is still in sync because the length prefix
//!   already delimited it.
//! - A **length prefix** larger than [`MAX_FRAME_LEN`] means the stream
//!   itself is desynchronized (or hostile); that is unrecoverable, so
//!   the receiver surfaces [`NetError::Corrupt`] once and the
//!   connection dies. Callers redial and resume from their cursor.
//! - EOF and socket errors surface as [`NetError::Closed`].
//!
//! ## Threads
//!
//! Each connection endpoint owns a send thread (drains a frame channel,
//! encodes into one reusable scratch buffer, writes through a
//! `BufWriter` that flushes when the queue goes idle) and a recv thread
//! (blocking reassembly loop feeding a frame channel). The
//! [`FrameTx`]/[`FrameRx`] halves only touch channels, so the serving
//! plane above sees the exact same non-blocking surface as the other
//! transports.
//!
//! [`LoopbackTransport`]: crate::system::net::LoopbackTransport
//! [`ChaosTransport`]: crate::system::chaos::ChaosTransport

use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::codec;
use crate::system::net::{
    FrameRx, FrameTx, FrameWaker, NetError, Transport, TryRecv, WakeSlot, WireConn, WireFrame,
};

/// Upper bound on a frame body accepted off the wire. A length prefix
/// beyond this cannot be a real MSDB frame (batches are orders of
/// magnitude smaller) — it means the stream is desynchronized, and the
/// connection is torn down with [`NetError::Corrupt`] rather than
/// letting a garbage prefix drive a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

struct TcpTx(Sender<WireFrame>);

impl FrameTx for TcpTx {
    fn send(&self, frame: WireFrame) -> Result<(), NetError> {
        self.0.send(frame).map_err(|_| NetError::Closed)
    }
}

struct TcpRx {
    rx: Receiver<Result<WireFrame, NetError>>,
    wake: Arc<WakeSlot>,
}

impl FrameRx for TcpRx {
    fn recv(&mut self, timeout: Duration) -> Result<WireFrame, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn try_recv(&mut self) -> TryRecv {
        match self.rx.try_recv() {
            Ok(Ok(frame)) => TryRecv::Frame(frame),
            Ok(Err(NetError::Corrupt)) => TryRecv::Corrupt,
            Ok(Err(_)) => TryRecv::Closed,
            Err(TryRecvError::Empty) => TryRecv::Empty,
            Err(TryRecvError::Disconnected) => TryRecv::Closed,
        }
    }

    fn set_waker(&mut self, waker: FrameWaker) {
        self.wake.set(waker);
    }
}

/// Send thread: drain the frame channel, encode each frame's head into
/// one reusable scratch buffer, and write it length-prefixed. Batch
/// payloads are written scatter-gather, straight from the memoized
/// encoding shared across clients — a multi-megabyte batch is never
/// copied into a per-frame buffer, and its bytes are only hashed once,
/// when the shared encoding was first built. The `BufWriter` coalesces
/// small control frames; it is flushed whenever the queue goes idle so
/// latency never waits on a full buffer.
fn spawn_writer(stream: TcpStream, rx: Receiver<WireFrame>) {
    std::thread::Builder::new()
        .name("msd/tcp-tx".into())
        .spawn(move || {
            let mut out = BufWriter::with_capacity(256 << 10, stream);
            // One pooled head scratch for the whole connection: every
            // frame of the session encodes into it allocation-free, and
            // it returns to the pool when the connection dies.
            let mut scratch = crate::pool::global().lease_vec(64);
            'conn: while let Ok(first) = rx.recv() {
                let mut frame = first;
                loop {
                    let send_start = std::time::Instant::now();
                    let payload = codec::encode_wire_frame_parts(&frame, &mut scratch);
                    let payload = payload.as_deref().unwrap_or(&[]);
                    let len = (scratch.len() + payload.len()) as u32;
                    if out.write_all(&len.to_le_bytes()).is_err()
                        || out.write_all(&scratch).is_err()
                        || out.write_all(payload).is_err()
                    {
                        break 'conn;
                    }
                    crate::metrics::record_stage(crate::metrics::Stage::Send, send_start.elapsed());
                    match rx.try_recv() {
                        Ok(next) => frame = next, // Keep coalescing.
                        Err(_) => break,          // Queue idle: flush below.
                    }
                }
                if out.flush().is_err() {
                    break;
                }
            }
            crate::pool::global().recycle_vec(scratch);
            // All senders gone (endpoint dropped) or the socket died:
            // shut the socket down so the peer's reader sees EOF
            // promptly instead of waiting out a timeout.
            if let Ok(stream) = out.into_inner() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        })
        .expect("failed to spawn tcp writer thread");
}

/// Recv thread: blocking frame reassembly. `read_exact` loops over
/// partial reads, so frames split at arbitrary byte boundaries (one
/// byte at a time, in the adversarial tests) still reassemble intact.
fn spawn_reader(stream: TcpStream, tx: Sender<Result<WireFrame, NetError>>, wake: Arc<WakeSlot>) {
    std::thread::Builder::new()
        .name("msd/tcp-rx".into())
        .spawn(move || {
            let mut input = io::BufReader::with_capacity(256 << 10, stream);
            loop {
                let mut prefix = [0u8; 4];
                if input.read_exact(&mut prefix).is_err() {
                    break; // EOF or socket error: Closed via channel drop.
                }
                let len = u32::from_le_bytes(prefix) as usize;
                if len > MAX_FRAME_LEN {
                    // Desynchronized stream: unrecoverable, kill the
                    // connection (see module docs).
                    let _ = tx.send(Err(NetError::Corrupt));
                    wake.wake();
                    let _ = input.get_ref().shutdown(Shutdown::Both);
                    break;
                }
                // Pooled buffer per frame: a batch frame's payload is
                // sliced zero-copy out of it by the decoder, so the
                // buffer's views live exactly as long as the batch does —
                // and freezing through the pool parks a reclaim handle,
                // so the next frame of this connection steals the same
                // backing storage once the previous batch is consumed.
                // This is the per-connection decode scratch: steady-state
                // receive runs without touching the allocator.
                let mut body = crate::pool::global().lease(len);
                body.resize(len, 0);
                if input.read_exact(&mut body).is_err() {
                    break;
                }
                match codec::decode_wire_frame_shared(&body.freeze()) {
                    // A corrupt body inside an intact frame boundary is
                    // a lost datagram: skip it, stay in sync.
                    Err(_) => continue,
                    Ok(frame) => {
                        if tx.send(Ok(frame)).is_err() {
                            break; // Endpoint dropped.
                        }
                        wake.wake();
                    }
                }
            }
            // Disconnect *before* the hang-up wake: a parked poller
            // woken here must observe Disconnected, not Empty, or the
            // hang-up is lost (no further wake will ever come).
            drop(tx);
            wake.wake();
        })
        .expect("failed to spawn tcp reader thread");
}

/// Wraps an established TCP stream as a frame-level [`WireConn`]
/// endpoint, spawning its send/recv threads.
pub fn wire_conn(stream: TcpStream) -> io::Result<WireConn> {
    stream.set_nodelay(true)?;
    let (out_tx, out_rx) = unbounded();
    let (in_tx, in_rx) = unbounded();
    let wake = Arc::new(WakeSlot::default());
    spawn_writer(stream.try_clone()?, out_rx);
    spawn_reader(stream, in_tx, Arc::clone(&wake));
    Ok(WireConn {
        tx: Box::new(TcpTx(out_tx)),
        rx: Box::new(TcpRx { rx: in_rx, wake }),
    })
}

/// Dials a serving-plane TCP listener and returns the frame-level
/// endpoint.
pub fn connect(addr: SocketAddr) -> io::Result<WireConn> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    wire_conn(stream)
}

/// A [`Transport`] over real localhost sockets: every `pair` call is a
/// genuine TCP connect/accept, so the conformance suite runs the exact
/// bytes-on-a-socket path the two-process deployment uses — while
/// staying in one test process.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
    /// `pair` must connect and accept as one unit or concurrent calls
    /// could cross their connections.
    pair_lock: Mutex<()>,
}

impl TcpTransport {
    /// Binds an ephemeral localhost listener for pairing.
    pub fn new() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport {
            listener,
            addr,
            pair_lock: Mutex::new(()),
        })
    }

    /// The listener's local address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    fn pair(&self) -> (WireConn, WireConn) {
        let _guard = self.pair_lock.lock();
        let client = TcpStream::connect(self.addr).expect("tcp transport self-connect");
        let (server, _) = self.listener.accept().expect("tcp transport accept");
        (
            wire_conn(client).expect("tcp client endpoint"),
            wire_conn(server).expect("tcp server endpoint"),
        )
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_cross_a_real_socket_both_ways() {
        let t = TcpTransport::new().unwrap();
        let (client, server) = t.pair();
        client
            .tx
            .send(WireFrame::Hello { client: 7, rank: 3 })
            .unwrap();
        let (stx, mut srx) = server.split();
        match srx.recv(Duration::from_secs(5)).unwrap() {
            WireFrame::Hello { client, rank } => assert_eq!((client, rank), (7, 3)),
            other => panic!("unexpected frame: {other:?}"),
        }
        stx.send(WireFrame::Credit {
            client: 7,
            grant: 4,
        })
        .unwrap();
        let mut crx = client.rx;
        assert!(matches!(
            crx.recv(Duration::from_secs(5)).unwrap(),
            WireFrame::Credit { grant: 4, .. }
        ));
    }

    #[test]
    fn dropped_endpoint_surfaces_as_closed() {
        let t = TcpTransport::new().unwrap();
        let (client, server) = t.pair();
        drop(client);
        let mut srx = server.rx;
        // The peer's writer thread shuts the socket down on drop; the
        // reader here sees EOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match srx.recv(Duration::from_millis(100)) {
                Err(NetError::Closed) => break,
                Err(NetError::Timeout) if std::time::Instant::now() < deadline => continue,
                other => panic!("expected Closed, got {other:?}"),
            }
        }
    }
}
