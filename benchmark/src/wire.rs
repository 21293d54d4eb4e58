//! The byte-counting transport wrapper behind `wire_bytes_per_sample`.
//!
//! Installed in traced and untraced runs alike, so it does the least that
//! can count: size the frame, one relaxed atomic add, forward. Only the
//! sending halves are wrapped — every frame is sent exactly once, on one
//! of them — so receivers, `try_recv` and `set_waker` are the inner
//! transport's own objects and the reader plane parks as without it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use msd_core::codec::{encoded_batch_len, encoded_wire_frame_len};
use msd_core::system::net::{BatchPayload, FrameTx, NetError, Transport, WireConn, WireFrame};

/// Encoded length of `frame` without forcing an encode the transport would
/// not do itself. On a serialising transport the memoised wire form is
/// what gets written, so asking for its length costs nothing extra. On a
/// non-serialising one a shared batch is sized from its fields
/// (`encoded_batch_len`) plus the fixed batch head, because
/// `encoded_wire_frame_len` would run — and memoise — a real encode that
/// loopback never pays for.
pub fn frame_len(frame: &WireFrame, serializes: bool, batch_head_len: usize) -> usize {
    match frame {
        WireFrame::Batch {
            payload: BatchPayload::Shared(shared),
            ..
        } if !serializes => batch_head_len + encoded_batch_len(&shared.batch()),
        WireFrame::Batch {
            payload: BatchPayload::Encoded(bytes),
            ..
        } => batch_head_len + bytes.len(),
        other => encoded_wire_frame_len(other),
    }
}

/// Length of a batch frame's head (everything but the batch encoding). The
/// codec keeps the constant private; it is an `Ack` frame (magic, version,
/// kind, client, step, seal) plus the `u32` payload length.
pub fn batch_head_len() -> usize {
    encoded_wire_frame_len(&WireFrame::Ack { client: 0, step: 0 }) + 4
}

/// A [`Transport`] that counts the encoded bytes of every frame sent on
/// any connection it opens, both directions.
pub struct CountingTransport {
    inner: Arc<dyn Transport>,
    bytes: Arc<AtomicU64>,
    batch_head_len: usize,
}

impl CountingTransport {
    /// Wraps `inner`; read the total through [`CountingTransport::counter`].
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        CountingTransport {
            inner,
            bytes: Arc::new(AtomicU64::new(0)),
            batch_head_len: batch_head_len(),
        }
    }

    /// The running total of encoded frame bytes (a statistic: `Relaxed`).
    pub fn counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.bytes)
    }

    fn wrap(&self, conn: WireConn) -> WireConn {
        WireConn {
            tx: Box::new(CountingTx {
                inner: conn.tx,
                bytes: Arc::clone(&self.bytes),
                serializes: self.inner.serializes(),
                batch_head_len: self.batch_head_len,
            }),
            rx: conn.rx,
        }
    }
}

impl Transport for CountingTransport {
    fn pair(&self) -> (WireConn, WireConn) {
        let (client, server) = self.inner.pair();
        (self.wrap(client), self.wrap(server))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn serializes(&self) -> bool {
        self.inner.serializes()
    }
}

struct CountingTx {
    inner: Box<dyn FrameTx>,
    bytes: Arc<AtomicU64>,
    serializes: bool,
    batch_head_len: usize,
}

impl FrameTx for CountingTx {
    fn send(&self, frame: WireFrame) -> Result<(), NetError> {
        let len = frame_len(&frame, self.serializes, self.batch_head_len);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.inner.send(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_core::codec::encode_wire_frame;
    use msd_core::constructor::ConstructedBatch;
    use msd_core::system::net::LoopbackTransport;
    use std::time::Duration;

    fn empty_batch() -> Arc<ConstructedBatch> {
        Arc::new(ConstructedBatch {
            bucket: 1,
            microbatches: Vec::new(),
            deliveries: Vec::new(),
        })
    }

    #[test]
    fn field_sized_batch_frames_match_a_real_encode() {
        let frame = WireFrame::Batch {
            client: 3,
            step: 9,
            payload: BatchPayload::shared(empty_batch()),
        };
        let sized = frame_len(&frame, false, batch_head_len());
        assert_eq!(sized, encode_wire_frame(&frame).len());
        assert_eq!(sized, frame_len(&frame, true, batch_head_len()));
    }

    #[test]
    fn both_directions_are_counted_and_frames_still_arrive() {
        let t = CountingTransport::new(Arc::new(LoopbackTransport));
        assert!(!t.serializes());
        assert_eq!(t.name(), "loopback");
        let (mut client, mut server) = t.pair();
        let up = WireFrame::Credit {
            client: 1,
            grant: 1,
        };
        let down = WireFrame::Batch {
            client: 1,
            step: 0,
            payload: BatchPayload::shared(empty_batch()),
        };
        let want = encode_wire_frame(&up).len() + encode_wire_frame(&down).len();
        client.tx.send(up.clone()).unwrap();
        server.tx.send(down.clone()).unwrap();
        assert_eq!(server.rx.recv(Duration::from_secs(1)).unwrap(), up);
        assert_eq!(client.rx.recv(Duration::from_secs(1)).unwrap(), down);
        assert_eq!(t.counter().load(Ordering::Relaxed), want as u64);
    }
}
