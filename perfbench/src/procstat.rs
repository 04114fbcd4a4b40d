//! Process-level readings from `/proc/self`: CPU time split into user
//! and system time, and peak resident memory. Thread spawning in
//! `axutil::parallel` shows up here as system time.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exports it for).
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds this process has used so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads the current totals; zeros if `/proc` is unavailable.
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// The CPU time spent since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may hold spaces, so fields are
/// counted after its closing parenthesis.
fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / TICKS_PER_S,
        sys_s: stime / TICKS_PER_S,
    })
}

/// Peak resident set size (`VmHWM`) in MB; 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_times_after_a_command_with_spaces() {
        let line = "42 (a b) S 1 42 42 0 -1 4194304 100 0 0 0 250 37 0 0 20 0 1 0 5 0 0";
        let t = parse_stat(line).expect("parse");
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.37);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let t = CpuTimes::now();
        assert!(t.user_s >= 0.0 && t.sys_s >= 0.0);
    }
}
