//! Network cost model.
//!
//! A deliberately simple alpha-beta model with two additions the paper's
//! evaluation needs:
//!
//! - **Connection state**: each open connection costs setup latency and
//!   resident memory; a node terminating tens of thousands of connections
//!   (every trainer rank talking to every loader) is what collapses the
//!   direct-transfer baseline in Fig 20.
//! - **Incast congestion**: when `n` senders converge on one receiver, the
//!   effective bandwidth degrades superlinearly past a saturation knee.

use std::time::Duration;

/// Parameters of the network model.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// One-way base latency per message.
    pub base_latency: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Cost to establish one connection.
    pub conn_setup: Duration,
    /// Resident memory per open connection (socket buffers, TLS state).
    pub conn_memory_bytes: u64,
    /// Number of concurrent flows a receiver absorbs before congestion.
    pub incast_knee: u32,
    /// Exponent of the congestion penalty past the knee (> 1 superlinear).
    pub incast_exponent: f64,
}

impl Default for NetModel {
    fn default() -> Self {
        // Roughly an InfiniBand-class datacenter fabric seen from user space.
        NetModel {
            base_latency: Duration::from_micros(25),
            bandwidth_bps: 12.5e9, // 100 Gb/s
            conn_setup: Duration::from_micros(500),
            conn_memory_bytes: 256 << 10,
            incast_knee: 256,
            incast_exponent: 2.0,
        }
    }
}

impl NetModel {
    /// Time to move `bytes` over one uncontended flow.
    pub fn transfer(&self, bytes: u64) -> Duration {
        self.base_latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Congestion multiplier for `flows` concurrent senders into one
    /// receiver. `1.0` below the knee, growing as
    /// `(flows / knee) ^ incast_exponent` above it.
    pub fn incast_factor(&self, flows: u32) -> f64 {
        if flows <= self.incast_knee {
            1.0
        } else {
            (flows as f64 / self.incast_knee as f64).powf(self.incast_exponent)
        }
    }

    /// Time for one of `flows` concurrent senders to deliver `bytes` to a
    /// shared receiver, including incast degradation.
    pub fn fanin_transfer(&self, bytes: u64, flows: u32) -> Duration {
        let factor = self.incast_factor(flows);
        self.base_latency + Duration::from_secs_f64(bytes as f64 * factor / self.bandwidth_bps)
    }

    /// Total setup time for `conns` connections established serially on one
    /// endpoint (accept-queue processing is serial per node).
    pub fn setup_time(&self, conns: u32) -> Duration {
        self.conn_setup * conns
    }

    /// Resident memory for `conns` open connections on one endpoint.
    pub fn conn_memory(&self, conns: u64) -> u64 {
        self.conn_memory_bytes * conns
    }

    /// Latency of a barrier-style synchronization over `participants`
    /// clients: logarithmic fan-in plus a linear straggler term that starts
    /// dominating in very large groups (the motivation for selective
    /// broadcasting over sub-groups in Sec 6.2).
    pub fn barrier(&self, participants: u32) -> Duration {
        if participants <= 1 {
            return Duration::ZERO;
        }
        let log_term = (participants as f64).log2().ceil();
        let straggler = participants as f64 / 512.0;
        self.base_latency.mul_f64(log_term + straggler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_scales_with_bytes() {
        let net = NetModel::default();
        let small = net.transfer(1 << 10);
        let large = net.transfer(1 << 30);
        assert!(large > small);
        // A 1 GiB transfer at 100 Gb/s is about 86 ms plus latency.
        let secs = large.as_secs_f64();
        assert!((0.08..0.10).contains(&secs), "secs = {secs}");
    }

    #[test]
    fn incast_is_flat_below_knee() {
        let net = NetModel::default();
        assert_eq!(net.incast_factor(1), 1.0);
        assert_eq!(net.incast_factor(256), 1.0);
        assert!(net.incast_factor(512) > 3.9);
        assert!(net.incast_factor(4096) > net.incast_factor(2048) * 3.5);
    }

    #[test]
    fn fanin_slower_than_solo() {
        let net = NetModel::default();
        let solo = net.fanin_transfer(1 << 20, 1);
        let crowded = net.fanin_transfer(1 << 20, 2048);
        assert!(crowded.as_secs_f64() > solo.as_secs_f64() * 10.0);
    }

    #[test]
    fn connection_costs_accumulate() {
        let net = NetModel::default();
        assert_eq!(net.conn_memory(4), (256 << 10) * 4);
        assert_eq!(
            net.setup_time(10).as_nanos(),
            net.conn_setup.as_nanos() * 10
        );
    }

    #[test]
    fn barrier_grows_with_participants() {
        let net = NetModel::default();
        assert_eq!(net.barrier(1), Duration::ZERO);
        let small = net.barrier(8);
        let big = net.barrier(4096);
        assert!(big > small);
    }

    #[test]
    fn pinned_nanosecond_values() {
        // The exact projections the fig benches print from, including the
        // f64-scaled barrier, whose rounding is the one place a change of
        // duration type could drift.
        let net = NetModel::default();
        assert_eq!(net.transfer(1 << 10).as_nanos(), 25_082);
        assert_eq!(net.transfer(1 << 30).as_nanos(), 85_924_346);
        assert_eq!(net.fanin_transfer(1 << 20, 2048).as_nanos(), 5_393_709);
        assert_eq!(net.setup_time(10).as_nanos(), 5_000_000);
        assert_eq!(net.barrier(8).as_nanos(), 75_391);
        assert_eq!(net.barrier(4096).as_nanos(), 500_000);
    }
}
