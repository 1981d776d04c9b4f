//! Process accounting from `/proc/self`: peak resident memory and CPU
//! time. Parsing is separated from reading so it can be tested on fixed
//! text.

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux
/// has reported 100 on every mainstream architecture since 2.6; without
/// `libc` there is no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) in MB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// User + system CPU milliseconds from the text of `/proc/self/stat`.
///
/// The second field (`comm`) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are the 14th and 15th fields overall, i.e. the
/// 12th and 13th after `comm`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / CLK_TCK)
}

/// Peak resident set of this process in MB; `NaN` where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(f64::NAN)
}

/// CPU milliseconds this process (all threads) has consumed; `NaN`
/// where `/proc` is unavailable.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ms(&s))
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn parses_cpu_time_past_a_hostile_comm() {
        // comm = "a) b (c", utime = 150 ticks, stime = 50 ticks.
        let stat =
            "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 150 50 0 0 20 0 3 0 1000 1 2";
        assert_eq!(parse_cpu_ms(stat), Some(2000.0));
        assert_eq!(parse_cpu_ms("4242 (bench) S 1 2"), None);
        assert_eq!(parse_cpu_ms("no parens"), None);
    }

    #[test]
    fn reads_this_process() {
        // On Linux both exist and are positive; elsewhere NaN is the
        // documented answer.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_ms() >= 0.0);
        }
    }
}
