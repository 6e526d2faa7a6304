//! Process and host counters read from `/proc`: page faults and CPU
//! ticks of one process, its peak resident set, and host steal time.

use crate::json::Json;
use std::fs;
use std::io;

/// Cumulative counters of one process from `/proc/<pid>/stat`, in clock
/// ticks where they are times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// Major page faults.
    pub majflt: u64,
    /// User-mode CPU ticks.
    pub utime: u64,
    /// Kernel-mode CPU ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Reads `/proc/<pid>/stat`; `pid` is a number or `"self"`.
    pub fn read(pid: &str) -> io::Result<ProcStat> {
        parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat"))?)
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            majflt: self.majflt.saturating_sub(earlier.majflt),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// The report form.
    pub fn json(&self) -> Json {
        Json::obj()
            .set("minflt", self.minflt)
            .set("majflt", self.majflt)
            .set("utime_ticks", self.utime)
            .set("stime_ticks", self.stime)
    }
}

fn parse_stat(text: &str) -> io::Result<ProcStat> {
    // The command name (field 2) may hold spaces; fields after it start
    // at field 3 (`state`).
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no ')' in stat"))?;
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(1)
        .map(|s| s.parse().unwrap_or(0))
        .collect();
    // Field n (1-based in proc(5)) sits at index n - 4 here.
    let get = |n: usize| f.get(n - 4).copied().unwrap_or(0);
    Ok(ProcStat {
        minflt: get(10),
        majflt: get(12),
        utime: get(14),
        stime: get(15),
    })
}

/// Peak resident set (`VmHWM`) of a process in KiB.
pub fn vm_hwm_kib(pid: &str) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// Host-wide CPU ticks from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Sum of every state's ticks over all CPUs.
    pub total: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

impl HostCpu {
    /// Reads `/proc/stat`.
    pub fn read() -> io::Result<HostCpu> {
        let text = fs::read_to_string("/proc/stat")?;
        let line = text
            .lines()
            .find(|l| l.starts_with("cpu "))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no cpu line"))?;
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|s| s.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user.
        Ok(HostCpu {
            total: v.iter().take(8).sum(),
            steal: v.get(7).copied().unwrap_or(0),
        })
    }

    /// Tick growth since `earlier`, as a report object.
    pub fn since_json(&self, earlier: &HostCpu) -> Json {
        Json::obj()
            .set("total_ticks", self.total.saturating_sub(earlier.total))
            .set("steal_ticks", self.steal.saturating_sub(earlier.steal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_fields_after_a_command_name_with_spaces() {
        let line = "42 (a b) S 1 2 3 4 5 6 111 7 222 8 333 444 0 0";
        let s = parse_stat(line).unwrap();
        assert_eq!((s.minflt, s.majflt, s.utime, s.stime), (111, 222, 333, 444));
    }

    #[test]
    fn reads_own_process_counters() {
        let s = ProcStat::read("self").unwrap();
        assert!(s.minflt > 0);
        assert!(vm_hwm_kib("self").unwrap() > 0);
        assert!(HostCpu::read().unwrap().total > 0);
    }
}
