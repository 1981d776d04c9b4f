//! Transfer- and round-timing primitives.

/// Fixed per-transfer latency floor in seconds (connection setup + RTTs).
pub const LATENCY_FLOOR_SECS: f64 = 0.05;

/// Seconds to move `bytes` over a `mbps` link, including the latency floor.
///
/// # Panics
/// Panics if `mbps <= 0`.
///
/// # Example
/// ```
/// use gluefl_net::timing::seconds_for_bytes;
/// // 10 MB over 10 Mbps ≈ 8 seconds of serialisation time.
/// let t = seconds_for_bytes(10_000_000, 10.0);
/// assert!((t - 8.05).abs() < 1e-9);
/// ```
#[must_use]
pub fn seconds_for_bytes(bytes: u64, mbps: f64) -> f64 {
    assert!(mbps > 0.0, "bandwidth must be positive, got {mbps}");
    LATENCY_FLOOR_SECS + (bytes as f64 * 8.0) / (mbps * 1e6)
}

/// Per-client timing of one training round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClientRoundTime {
    /// Seconds spent downloading the model update.
    pub download_secs: f64,
    /// Seconds spent on local computation.
    pub compute_secs: f64,
    /// Seconds spent uploading the masked gradient.
    pub upload_secs: f64,
}

impl ClientRoundTime {
    /// Total modeled seconds of this client's round.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.download_secs + self.compute_secs + self.upload_secs
    }
}

/// Selects the indices of the `keep` fastest clients by total round time
/// (the over-commitment rule: "use the first K uploaded updates", §5.1).
///
/// Ties are broken by index for determinism; the result is sorted by
/// completion time (fastest first).
///
/// # Example
/// ```
/// use gluefl_net::timing::{fastest, ClientRoundTime};
/// let times = vec![
///     ClientRoundTime { download_secs: 9.0, ..Default::default() },
///     ClientRoundTime { download_secs: 1.0, ..Default::default() },
///     ClientRoundTime { download_secs: 5.0, ..Default::default() },
/// ];
/// assert_eq!(fastest(&times, 2), vec![1, 2]);
/// ```
#[must_use]
pub fn fastest(times: &[ClientRoundTime], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| {
        times[a]
            .total_secs()
            .partial_cmp(&times[b].total_secs())
            .expect("round times are finite")
            .then(a.cmp(&b))
    });
    order.truncate(keep.min(times.len()));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_floor() {
        assert!((seconds_for_bytes(0, 100.0) - LATENCY_FLOOR_SECS).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_matches_hand_calculation() {
        // 1 MB over 8 Mbps = 1 second + floor.
        let t = seconds_for_bytes(1_000_000, 8.0);
        assert!((t - (1.0 + LATENCY_FLOOR_SECS)).abs() < 1e-12);
    }

    #[test]
    fn slower_link_takes_longer() {
        assert!(seconds_for_bytes(1_000_000, 1.0) > seconds_for_bytes(1_000_000, 100.0));
    }

    #[test]
    fn round_time_sums_phases() {
        let t = ClientRoundTime {
            download_secs: 1.0,
            compute_secs: 2.0,
            upload_secs: 3.0,
        };
        assert!((t.total_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn fastest_selects_by_total_time() {
        let mk = |d: f64| ClientRoundTime {
            download_secs: d,
            compute_secs: 0.0,
            upload_secs: 0.0,
        };
        let times = vec![mk(3.0), mk(1.0), mk(2.0), mk(1.0)];
        // Tie between 1 and 3 broken by index.
        assert_eq!(fastest(&times, 3), vec![1, 3, 2]);
        assert_eq!(fastest(&times, 10), vec![1, 3, 2, 0]);
        assert!(fastest(&times, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = seconds_for_bytes(1, 0.0);
    }
}
