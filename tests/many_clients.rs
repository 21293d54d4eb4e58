//! Massive fan-out soak: the serving plane under hundreds of attached
//! clients, most of them idle.
//!
//! A session's frames reach the server's mailbox on the thread that
//! delivered them, and the server is push-driven, so an *idle* session
//! costs a mailbox entry's worth of state — no thread, no pulls, no
//! batches. This suite pins that contract at 256 loopback clients
//! (64 streaming, 192 idle-attached):
//!
//! - active streams stay gap-free and byte-identical to local serving;
//! - idle clients are sent nothing for the whole run;
//! - the process's thread count (all of `/proc/self/task`; this binary
//!   runs one test) does not move when 192 extra sessions attach, and
//!   is no higher after the run than before it;
//! - the lease sweep visits nothing when nothing expires, session
//!   count notwithstanding.

mod harness;

use std::sync::Arc;
use std::time::{Duration, Instant};

use megascale_data::core::system::net::{LoopbackTransport, WireFrame};
use megascale_data::core::system::server::ServerConfig;

use harness::*;

/// Threads of this whole process, counted from the OS, so a regression
/// to thread-per-session serving (or a reader pool per server) fails
/// here whatever the server's own accounting claims.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn massive_fanout_idle_sessions_cost_nothing() {
    const TOTAL: u32 = 256;
    const ACTIVE: u32 = 64;
    const STEPS: u64 = 6;
    const SEED: u64 = 41;

    let reference = local_streams(SEED, ACTIVE, STEPS);

    let mut p = pipeline(SEED);
    let mut options = opts(ACTIVE, STEPS);
    options.server = ServerConfig {
        max_sessions: TOTAL as usize + 16,
        ..ServerConfig::default()
    };
    let (session, handle) =
        p.serve_distributed(options, Arc::new(LoopbackTransport), &placements(TOTAL));

    // Snapshot before a single extra session attaches: the server, its
    // constructors and the serve driver are all running by now.
    let threads_at_start = os_threads();

    // Attach the idle fleet: Hello plus an end-of-stream Subscribe (the
    // idle-attach path — a bound session that wants no batches). The
    // connections are held open for the whole run; dropping one would
    // be a hang-up, not an idle session.
    let place = placements(TOTAL);
    let idle_conns: Vec<_> = (ACTIVE..TOTAL)
        .map(|c| {
            let conn = handle.dial_raw();
            conn.tx
                .send(WireFrame::Hello {
                    client: c,
                    rank: place[c as usize].rank,
                })
                .expect("idle hello");
            conn.tx
                .send(WireFrame::Subscribe {
                    client: c,
                    from_step: STEPS,
                    credits: 0,
                })
                .expect("idle subscribe");
            conn
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = handle.status().expect("server status");
        let attached = status
            .clients
            .iter()
            .filter(|c| c.client >= ACTIVE && c.done)
            .count() as u32;
        if attached == TOTAL - ACTIVE {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle fleet never finished attaching ({attached}/{})",
            TOTAL - ACTIVE
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // 192 new sessions, zero new threads.
    assert_eq!(
        os_threads(),
        threads_at_start,
        "attaching {} idle sessions changed the process's thread count",
        TOTAL - ACTIVE
    );

    let handles: Vec<_> = (0..ACTIVE)
        .map(|c| {
            let mut rc = handle.connect(c);
            std::thread::spawn(move || {
                let mut stream = Stream::new();
                while let Some(item) = rc.next() {
                    stream.push(item);
                }
                (rc.id, stream)
            })
        })
        .collect();
    let mut streams: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("active client thread"))
        .collect();
    streams.sort_by_key(|(id, _)| *id);

    let status = handle.status().expect("server status");
    assert_eq!(session.join(), STEPS, "fan-out driver fell short");

    // Still no per-session threads after serving a full run. The serve
    // driver and the client threads have exited by now, so the count may
    // only have fallen.
    let threads_at_end = os_threads();
    assert!(
        threads_at_end <= threads_at_start,
        "serving with {TOTAL} sessions attached left {threads_at_end} threads, \
         {threads_at_start} at start"
    );

    assert_ordered_full(&streams, STEPS);
    assert_byte_identical(&reference, &streams, "many-clients fan-out");

    for c in &status.clients {
        if c.client >= ACTIVE {
            assert_eq!(
                c.unacked, 0,
                "idle client {} was sent batches it never asked for",
                c.client
            );
            assert!(c.done, "idle client {} lost its idle attach", c.client);
        }
    }
    assert_eq!(
        status.rejections, 0,
        "healthy fan-out run rejected a dial: {status:?}"
    );
    assert_eq!(
        status.sweep_visited, 0,
        "lease sweep visited sessions with no lease due — sweep cost \
         is scaling with session count again"
    );

    drop(idle_conns);
    p.shutdown();
}
