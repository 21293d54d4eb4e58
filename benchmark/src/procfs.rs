//! Readers for the `/proc` files the benchmark takes its CPU, thread and
//! memory figures from. Parsers take the file text so tests need no `/proc`.

use std::fs;

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`): 100
/// on every Linux ABI, and there is no `sysconf` without libc.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, dead ones
/// included) from `/proc/<pid>/stat` text; `None` if it does not parse.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces and parentheses; fields are counted after the *last* `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds this process has used so far (0 when `/proc` is unreadable).
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// The numeric value of a `Key:   123 kB`-style line of `/proc/*/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

fn self_status(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .unwrap_or(0)
}

/// Threads alive in this process right now.
pub fn threads() -> u64 {
    self_status("Threads")
}

/// Peak resident set size so far, MiB.
pub fn rss_peak_mb() -> f64 {
    self_status("VmHWM") as f64 / 1024.0
}

/// Voluntary context switches summed over every live thread
/// (`/proc/self/status` alone reports only the main thread's).
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| parse_status_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

/// Machine-wide CPU seconds from the first line of `/proc/stat`:
/// `(busy, steal, total)`, where busy excludes idle and iowait.
pub fn parse_machine_cpu(stat: &str) -> Option<(f64, f64, f64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<f64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    if ticks.len() < 8 {
        return None;
    }
    let total: f64 = ticks[..8].iter().sum();
    let idle = ticks[3] + ticks[4];
    Some((
        (total - idle) / TICKS_PER_S,
        ticks[7] / TICKS_PER_S,
        total / TICKS_PER_S,
    ))
}

/// [`parse_machine_cpu`] of the live `/proc/stat` (zeros when unreadable).
pub fn machine_cpu() -> (f64, f64, f64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_machine_cpu(&s))
        .unwrap_or((0.0, 0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_spaces_and_parens_in_the_command_name() {
        let stat = "4242 (msd) bench (x)) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    1234 766 0 0 20 0 9 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(20.0));
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tmsd\nVmHWM:\t  20480 kB\nThreads:\t37\n\
                      voluntary_ctxt_switches:\t91\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(37));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(91)
        );
        assert_eq!(parse_status_field(status, "Missing"), None);
    }

    #[test]
    fn machine_cpu_splits_busy_steal_total() {
        let stat = "cpu  1000 0 500 8000 100 0 50 350 0 0\ncpu0 1 2 3 4 5 6 7 8\n";
        let (busy, steal, total) = parse_machine_cpu(stat).unwrap();
        assert_eq!(total, 100.0);
        assert_eq!(steal, 3.5);
        assert_eq!(busy, 19.0);
        assert_eq!(parse_machine_cpu("cpu  1 2 3\n"), None);
    }

    #[test]
    fn live_proc_is_readable_here() {
        assert!(threads() >= 1);
        assert!(process_cpu_s() >= 0.0);
    }
}
