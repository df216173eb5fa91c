//! Process meters read from `/proc/self`, plus the host's steal time
//! from `/proc/stat`.

/// One reading of this process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Peak resident set size (`VmHWM`), KiB.
    pub vm_hwm_kib: u64,
    /// User plus system CPU time of all threads, seconds.
    pub cpu_s: f64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// utime + stime from a `/proc/<pid>/stat` line, in ticks. The command
/// name (field 2) may hold spaces, so fields are counted after its `)`.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ")": state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Reads the meters; fields that cannot be read stay zero (non-Linux
/// hosts).
pub fn sample() -> ProcSample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ticks(&s))
        .unwrap_or(0);
    ProcSample {
        vm_hwm_kib: status_field(&status, "VmHWM").unwrap_or(0),
        cpu_s: ticks as f64 / USER_HZ,
        voluntary_switches: status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
        involuntary_switches: status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0),
    }
}

/// Time the hypervisor ran other guests while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`), summed over CPUs, seconds
/// since boot; zero on bare metal. Noise on a shared host shows here.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| stat_steal_ticks(&s))
        .unwrap_or(0) as f64
        / USER_HZ
}

/// `steal` from the aggregate `cpu` line: user nice system idle iowait
/// irq softirq steal …
fn stat_steal_ticks(stat: &str) -> Option<u64> {
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tperfbench\nVmHWM:\t  153600 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(153_600));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        let stat = "4242 (perf bench) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert_eq!(stat_cpu_ticks(stat), Some(300));
        let host = "cpu  507277 0 10901 1658268 287 0 691 2784 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(stat_steal_ticks(host), Some(2784));
    }

    #[test]
    fn live_sample_reports_memory() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(sample().vm_hwm_kib > 0);
        }
    }
}
