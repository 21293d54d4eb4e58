//! A live TCP session's frame buffers: what the pool's large list holds
//! once two clients have consumed every batch.
//!
//! Each client's batch frame (64 `coyo700m_like` image samples, about
//! 3 MiB) is reassembled into a lease from the pool's large list and
//! goes back to it when the client drops the batch. The list must end
//! the session holding at most one idle frame buffer, whatever the
//! session's peak was, and that one buffer must fit the next session's
//! first frame. Its own binary because the pool is process-wide.

mod harness;

use std::sync::Arc;

use harness::{opts, pipeline_over, placements};
use megascale_data::core::constructor::DataConstructor;
use megascale_data::core::pool::global;
use megascale_data::core::system::tcp::TcpTransport;
use megascale_data::data::catalog::coyo700m_like;
use megascale_data::sim::SimRng;

#[test]
fn a_two_client_tcp_session_ends_with_one_idle_frame_buffer() {
    let (clients, steps) = (2u32, 12u64);
    let mut p = pipeline_over(&coyo700m_like(&mut SimRng::seed(2)), 128, 5);
    let transport = Arc::new(TcpTransport::new().expect("bind tcp transport"));
    let (session, handle) =
        p.serve_distributed(opts(clients, steps), transport, &placements(clients));
    let readers: Vec<_> = (0..clients)
        .map(|c| {
            let mut rc = handle.connect(c);
            std::thread::spawn(move || {
                let mut largest = 0;
                while let Some((_, batch)) = rc.next() {
                    largest = largest.max(DataConstructor::batch_memory_bytes(&batch) as usize);
                }
                largest
            })
        })
        .collect();
    let largest = readers
        .into_iter()
        .map(|r| r.join().expect("client thread"))
        .max()
        .unwrap_or(0);
    assert_eq!(session.join(), steps, "distributed driver fell short");
    assert!(
        largest > 1 << 20,
        "batches of {largest} bytes skip the large list"
    );

    // Every batch is dropped: the pipeline reports the frame buffers that
    // came back as pool slack.
    let idle = p.stats().metrics.pool_idle_bytes;
    assert!(idle >= largest as u64, "{idle} idle bytes reported");
    p.shutdown();

    // The next frame reclaims them, keeps the largest, and fits in it.
    let before = global().counters();
    let next = global().lease(largest);
    let served = global().counters().since(&before);
    assert_eq!(served.misses, 0, "{served:?}");
    assert!(
        next.capacity() < 4 << 20,
        "a {largest}-byte frame took 4 MiB"
    );
    assert!(global().idle_large_buffers() <= 1);
    drop(next);
    assert_eq!(global().idle_large_buffers(), 1);
}
