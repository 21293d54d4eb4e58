//! Cross-transport conformance suite plus TCP adversarial cases.
//!
//! Conformance: the gap-free / duplicate-free / byte-identical serving
//! assertions (shared with `distributed_serve.rs` through `harness/`)
//! run over *every* transport — Loopback, real TCP sockets, and TCP
//! under the chaos layer's 20 % frame loss — against the same
//! local-serve reference. A transport is correct exactly when it is
//! invisible.
//!
//! Adversarial TCP: the byte-stream edge cases a datagram-shaped
//! protocol meets on a real socket — frames split at every byte
//! boundary, a connection killed mid-stream (reconnect + resume from
//! the client's cursor), in-frame garbage (skipped like a lost
//! datagram), and desynchronizing garbage (oversized length prefix →
//! `NetError::Corrupt`, connection torn down).

mod harness;

use std::collections::HashSet;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use harness::{
    assert_byte_identical, assert_ordered_full, local_streams, opts, pipeline, placements,
    remote_streams, sample_ids, Stream,
};
use megascale_data::core::codec::encode_wire_frame;
use megascale_data::core::system::chaos::{ChaosPlan, ChaosTransport};
use megascale_data::core::system::net::{
    BatchPayload, LoopbackTransport, NetError, Transport, WireConn, WireFrame,
};
use megascale_data::core::system::tcp::{wire_conn, TcpTransport};

const RECV: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------
// Conformance: one reference, every transport, the same assertions.

#[test]
fn every_transport_serves_byte_identical_to_local() {
    let (clients, steps, seed) = (4u32, 5u64, 21u64);
    let reference = local_streams(seed, clients, steps);
    assert_ordered_full(&reference, steps);
    let tcp = || Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let transports: Vec<Arc<dyn Transport>> = vec![
        Arc::new(LoopbackTransport),
        tcp(),
        // Lossy and serialized: 20 % of frames dropped on a real socket.
        Arc::new(ChaosTransport::new(
            tcp(),
            ChaosPlan::seeded(7).with_drops(0.2),
        )),
    ];
    for transport in transports {
        let label = transport.name();
        let streams = remote_streams(transport, seed, clients, steps);
        assert_ordered_full(&streams, steps);
        assert_byte_identical(&reference, &streams, label);
    }
}

#[test]
fn tcp_client_killed_mid_stream_resumes_from_cursor() {
    let (clients, steps) = (2u32, 8u64);
    let mut p = pipeline(63);
    let transport = Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let (session, handle) =
        p.serve_distributed(opts(clients, steps), transport, &placements(clients));

    // Client 1 consumes its whole stream normally, in parallel.
    let mut peer = handle.connect(1);
    let peer_thread = std::thread::spawn(move || {
        let mut stream = Stream::new();
        while let Some(item) = peer.next() {
            stream.push(item);
        }
        stream
    });

    // Client 0 consumes three steps over a real socket, then its
    // connection is killed (socket shut down, no Close — a crash, not a
    // goodbye) and it must redial and resume from its cursor.
    let mut victim = handle.connect(0);
    let mut stream = Stream::new();
    for _ in 0..3 {
        stream.push(victim.next().expect("pre-kill pull"));
    }
    victim.disconnect();
    while let Some(item) = victim.next() {
        stream.push(item);
    }
    assert!(victim.reconnects() >= 1, "the kill was never observed");

    let peer_stream = peer_thread.join().expect("peer thread");
    assert_eq!(session.join(), steps, "driver fell short");

    // Same assertions as loopback: gap-free, in order, duplicate-free
    // down to individual samples.
    for (streams, who) in [(&stream, "victim"), (&peer_stream, "peer")] {
        assert_eq!(streams.len(), steps as usize, "{who} missed steps");
        let mut seen: HashSet<u64> = HashSet::new();
        for (i, (step, batch)) in streams.iter().enumerate() {
            assert_eq!(*step, i as u64, "{who} stream has a gap");
            for sid in sample_ids(batch) {
                assert!(seen.insert(sid), "{who} got sample {sid} twice");
            }
        }
    }

    let status = handle.status().expect("server status");
    let victim_stat = status.clients.iter().find(|c| c.client == 0).unwrap();
    assert!(victim_stat.resumes >= 1, "server never saw a re-subscribe");
    assert!(victim_stat.done, "victim's stream not finished");
    p.shutdown();
}

// ---------------------------------------------------------------------
// Adversarial byte streams against a raw socket.

/// One frame as it travels on a TCP connection: length prefix + body.
fn framed(frame: &WireFrame) -> Vec<u8> {
    let body = encode_wire_frame(frame);
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend(body);
    out
}

/// A raw writable socket on one end, a frame-level endpoint on the
/// other — the adversary writes bytes, the transport must make frames.
fn raw_pair() -> (TcpStream, WireConn) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let (accepted, _) = listener.accept().expect("accept");
    (raw, wire_conn(accepted).expect("wire conn"))
}

#[test]
fn frames_reassemble_from_single_byte_writes() {
    let (mut raw, conn) = raw_pair();
    // A large batch frame among small control frames: thousands of
    // one-byte writes, every frame boundary and every intra-frame
    // boundary exercised.
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let frames = vec![
        WireFrame::Hello { client: 1, rank: 2 },
        WireFrame::Batch {
            client: 1,
            step: 0,
            payload: BatchPayload::Encoded(bytes::Bytes::from(payload)),
        },
        WireFrame::Ack { client: 1, step: 0 },
        WireFrame::Frontier {
            client: 1,
            consumed: 1,
        },
        WireFrame::Close { client: 1 },
    ];
    let wire: Vec<u8> = frames.iter().flat_map(framed).collect();
    let writer = std::thread::spawn(move || {
        for byte in wire {
            raw.write_all(&[byte]).expect("byte write");
            raw.flush().expect("byte flush");
        }
        raw
    });
    let mut rx = conn.rx;
    for want in &frames {
        assert_eq!(&rx.recv(RECV).expect("reassembled frame"), want);
    }
    drop(writer.join().expect("writer"));
    assert_eq!(rx.recv(Duration::from_millis(200)), Err(NetError::Closed));
}

#[test]
fn every_two_chunk_split_reassembles() {
    let (mut raw, conn) = raw_pair();
    let frame = WireFrame::Subscribe {
        client: 9,
        from_step: 1234,
        credits: 8,
    };
    let one = framed(&frame);
    // Send the frame once per possible split point, pausing at the
    // split so the reader observes a genuine partial read there.
    for cut in 0..=one.len() {
        raw.write_all(&one[..cut]).expect("first chunk");
        raw.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
        raw.write_all(&one[cut..]).expect("second chunk");
        raw.flush().expect("flush");
    }
    let mut rx = conn.rx;
    for cut in 0..=one.len() {
        assert_eq!(
            rx.recv(RECV).expect("split frame"),
            frame,
            "frame split at byte {cut} did not reassemble"
        );
    }
}

#[test]
fn in_frame_garbage_is_skipped_like_a_lost_datagram() {
    let (mut raw, conn) = raw_pair();
    let first = WireFrame::Hello { client: 4, rank: 0 };
    let second = WireFrame::Ack { client: 4, step: 9 };
    raw.write_all(&framed(&first)).expect("first frame");
    // A correctly *delimited* frame whose body is garbage: the length
    // prefix keeps the stream in sync, so the transport must drop just
    // this frame and carry on.
    let garbage = [0xABu8; 37];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .expect("garbage prefix");
    raw.write_all(&garbage).expect("garbage body");
    raw.write_all(&framed(&second)).expect("second frame");
    raw.flush().expect("flush");
    let mut rx = conn.rx;
    assert_eq!(rx.recv(RECV).expect("first"), first);
    assert_eq!(rx.recv(RECV).expect("second"), second, "garbage desynced");
}

#[test]
fn oversized_length_prefix_kills_the_connection() {
    let (mut raw, conn) = raw_pair();
    let first = WireFrame::Hello { client: 2, rank: 1 };
    raw.write_all(&framed(&first)).expect("first frame");
    // Trailing garbage that cannot be a frame boundary: 0xFF... reads
    // as a ~4GiB length prefix, far past MAX_FRAME_LEN. The stream is
    // unrecoverable — the transport must refuse to allocate, surface
    // Corrupt once, and die.
    raw.write_all(&[0xFFu8; 64]).expect("trailing garbage");
    raw.flush().expect("flush");
    let mut rx = conn.rx;
    assert_eq!(rx.recv(RECV).expect("pre-garbage frame"), first);
    assert_eq!(rx.recv(RECV), Err(NetError::Corrupt));
    assert_eq!(rx.recv(RECV), Err(NetError::Closed));
}
