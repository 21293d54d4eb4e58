//! Massive fan-out soak: the serving plane under hundreds of attached
//! clients, most of them idle.
//!
//! The event-driven reader plane exists so that an *idle* session costs
//! a registry entry — no thread, no pump work, no batches. This
//! suite pins that contract at 256 loopback clients (64 streaming, 192
//! idle-attached):
//!
//! - active streams stay gap-free and byte-identical to local serving;
//! - idle clients are sent nothing for the whole run and leave the
//!   pump's activity ring once attached;
//! - the reader-plane thread count is fixed by core count and does not
//!   move when 192 extra sessions attach (counted from
//!   `/proc/self/task`, not just the plane's own accounting);
//! - the lease sweep visits nothing when nothing expires, session
//!   count notwithstanding.

mod harness;

use std::sync::Arc;
use std::time::{Duration, Instant};

use megascale_data::core::system::net::{LoopbackTransport, WireFrame};
use megascale_data::core::system::server::ServerConfig;

use harness::*;

/// Threads of this process whose name starts with `prefix` — one
/// server's reader-plane shards (the prefix is unique per plane, so
/// parallel tests' planes don't pollute the count). Counted from the
/// OS, so a regression back to thread-per-session serving fails here
/// even if the plane's own `shard_count` bookkeeping claimed
/// otherwise.
fn os_reader_threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|entry| {
            let Ok(entry) = entry else { return false };
            std::fs::read_to_string(entry.path().join("comm"))
                .is_ok_and(|name| name.trim_start().starts_with(prefix))
        })
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

    // The plane's thread pool is sized at construction; snapshot it
    // before a single extra session attaches. Freshly spawned threads
    // name themselves from inside, so give the pool a beat to appear.
    let prefix = handle.reader_thread_prefix().to_string();
    let spawn_deadline = Instant::now() + Duration::from_secs(5);
    let threads_at_start = loop {
        let n = os_reader_threads(&prefix);
        if n == handle.reader_threads() {
            break n;
        }
        assert!(
            Instant::now() < spawn_deadline,
            "reader-plane accounting disagrees with the OS: plane says {}, /proc says {n}",
            handle.reader_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        threads_at_start <= 8,
        "reader plane spawned {threads_at_start} threads; the pool is capped at 8"
    );

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
        os_reader_threads(&prefix),
        threads_at_start,
        "attaching {} idle sessions changed the reader thread count",
        TOTAL - ACTIVE
    );

    // And zero pump work: each attach frame put its session on the
    // activity ring once, and with no active client dialed yet the ring
    // must drain to empty — a finished session left on it would cost
    // every later pump tick a visit.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let active = handle.status().expect("server status").active;
        if active == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{active} idle sessions still on the pump's activity ring"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

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

    // Still no per-session threads after serving a full run.
    assert_eq!(
        os_reader_threads(&prefix),
        threads_at_start,
        "serving with {TOTAL} sessions attached changed the reader thread count"
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
        "lease sweep visited sessions with no lease due — per-tick cost \
         is scaling with session count again"
    );

    drop(idle_conns);
    p.shutdown();
}
