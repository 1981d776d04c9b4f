//! Per-round and per-run metrics, mirroring the paper's Table 2 columns.

use gluefl_telemetry::{Phase, PHASE_COUNT};

/// One round's measurements.
///
/// # Equality
///
/// `PartialEq` compares the *modelled* round — bytes, analytic times,
/// accuracy, counts — and deliberately ignores the measured wall-time
/// fields ([`RoundRecord::phase_nanos`], [`RoundRecord::step_nanos`]):
/// wall-clock nanoseconds are the one thing two bit-identical executions
/// legitimately disagree on. `gluefl-transport`'s `socket_reference`
/// test pins every socket round's modelled fields to the reference round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Downstream bytes this round (all invited clients) in the analytic
    /// ledger: each client's partial download priced as the v1 frame an
    /// F32 [`WirePolicy::legacy`](crate::WirePolicy::legacy) writer would
    /// emit for it.
    pub down_bytes: u64,
    /// Upstream bytes this round in the analytic ledger: each upload the
    /// engine folds — a kept client's, delivered and valid; a dismissed
    /// client sends nothing — priced as the upload and BN-statistic
    /// frames an F32 [`WirePolicy::legacy`](crate::WirePolicy::legacy)
    /// writer would emit for it. The upload half of Table 2's total
    /// volume.
    pub up_bytes: u64,
    /// *Measured* upstream bytes this round: the payload length of each
    /// upload the engine folds, as serialized under the run's
    /// [`crate::WirePolicy`]. Equals [`RoundRecord::up_bytes`] under the
    /// legacy `F32` policy; smaller under the lossy codecs and the
    /// entropy layouts.
    pub wire_up_bytes: u64,
    /// *Measured* bytes of this round's reference broadcast: one dense
    /// full-model frame plus the strategy's mask frame (when it ships
    /// one), as serialized by the wire layer. The per-client download
    /// accounting stays analytic (it depends on each client's staleness);
    /// this measures what one fully-stale sync would transfer.
    pub wire_broadcast_bytes: u64,
    /// *Modeled* seconds of the round, not a clock reading: the slowest
    /// kept client that offered, from the engine's link and speed draws.
    pub round_secs: f64,
    /// Download seconds of the slowest kept client (the paper's DT
    /// contribution: "we pick the slowest client in each round and sum up
    /// their download time", §5.1).
    pub slowest_download_secs: f64,
    /// Longest upload seconds among the kept clients that offered: each
    /// one's nominal offer over its uplink (the exact encoded length under
    /// the legacy layout menu, an upper bound under the entropy menu).
    pub slowest_upload_secs: f64,
    /// Compute seconds of the slowest kept client.
    pub slowest_compute_secs: f64,
    /// Mean download seconds over kept clients.
    pub mean_download_secs: f64,
    /// Mean upload seconds over the kept clients that offered.
    pub mean_upload_secs: f64,
    /// Mean compute seconds over kept clients.
    pub mean_compute_secs: f64,
    /// Test accuracy (top-1 or top-5 per config), if evaluated this round.
    pub accuracy: Option<f64>,
    /// Test loss, if evaluated this round.
    pub loss: Option<f64>,
    /// Number of clients invited (incl. over-commitment).
    pub invited: usize,
    /// Number of client updates kept.
    pub kept: usize,
    /// Positions changed by this round's aggregate update.
    pub changed_positions: usize,
    /// *Measured* wall-clock nanoseconds spent in each [`Phase`]
    /// (indexed by [`Phase::index`]), recorded only when a
    /// [`gluefl_telemetry::Telemetry`] recorder is attached to the
    /// simulation — all zeros otherwise. Unlike the analytic
    /// `*_secs` columns (which model the *clients'* network/compute
    /// time), these measure where this process actually spent the
    /// round.
    pub phase_nanos: [u64; PHASE_COUNT],
    /// *Measured* wall-clock nanoseconds of the whole round step,
    /// excluding evaluation; zero without an attached recorder. The
    /// per-phase spans above account for within 5% of this (gated by
    /// the round benchmark's `core.step_uncovered_pct`).
    pub step_nanos: u64,
}

impl RoundRecord {
    /// Measured nanoseconds of one phase this round.
    #[must_use]
    pub fn phase_nanos_of(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Sum of all measured per-phase nanoseconds this round.
    #[must_use]
    pub fn measured_phase_total(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }
}

/// Converts a byte count to megabytes (10^6 bytes, as in the paper's plots).
#[must_use]
pub fn bytes_to_mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

impl PartialEq for RoundRecord {
    fn eq(&self, other: &Self) -> bool {
        // Destructure so adding a field forces a decision here; the two
        // measured wall-time fields are the only ones ignored (see the
        // struct docs).
        let Self {
            round,
            down_bytes,
            up_bytes,
            wire_up_bytes,
            wire_broadcast_bytes,
            round_secs,
            slowest_download_secs,
            slowest_upload_secs,
            slowest_compute_secs,
            mean_download_secs,
            mean_upload_secs,
            mean_compute_secs,
            accuracy,
            loss,
            invited,
            kept,
            changed_positions,
            phase_nanos: _,
            step_nanos: _,
        } = self;
        *round == other.round
            && *down_bytes == other.down_bytes
            && *up_bytes == other.up_bytes
            && *wire_up_bytes == other.wire_up_bytes
            && *wire_broadcast_bytes == other.wire_broadcast_bytes
            && *round_secs == other.round_secs
            && *slowest_download_secs == other.slowest_download_secs
            && *slowest_upload_secs == other.slowest_upload_secs
            && *slowest_compute_secs == other.slowest_compute_secs
            && *mean_download_secs == other.mean_download_secs
            && *mean_upload_secs == other.mean_upload_secs
            && *mean_compute_secs == other.mean_compute_secs
            && *accuracy == other.accuracy
            && *loss == other.loss
            && *invited == other.invited
            && *kept == other.kept
            && *changed_positions == other.changed_positions
    }
}

/// Accumulated results of one training run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Strategy name.
    pub strategy: String,
    /// Per-round records.
    pub rounds: Vec<RoundRecord>,
    /// Round at which the trailing-window accuracy
    /// ([`rolling_accuracy`]) first reached the target (paper §5.1
    /// reporting rule), if it did.
    pub target_round: Option<u32>,
    /// Cumulative metrics *at the target round* (or at the end if the
    /// target was not reached).
    pub at_target: CumulativeMetrics,
    /// Cumulative metrics over the full run.
    pub total: CumulativeMetrics,
}

/// The DV / TV / DT / TT numbers of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CumulativeMetrics {
    /// Downstream volume in bytes (Table 2's DV).
    pub down_bytes: u64,
    /// Total volume in bytes (Table 2's TV = DV + upstream).
    pub total_bytes: u64,
    /// Download time in seconds (Table 2's DT: sum of slowest download).
    pub download_secs: f64,
    /// Total training time in seconds (Table 2's TT).
    pub total_secs: f64,
    /// Rounds included.
    pub rounds: u32,
    /// Final (rolling-mean) accuracy at this point.
    pub accuracy: f64,
}

/// Evaluations the paper's reporting rule averages over (§5.1).
const TARGET_WINDOW: usize = 5;

/// The paper's trailing-window accuracy (§5.1), the one rule both the
/// target round and a common target are read from: with
/// `w = min(5, evaluations in the run)`, one `(round, mean of the last w
/// evaluations)` per evaluation round from the `w`-th evaluation on. A
/// run with fewer than five evaluations averages all of them; one with
/// none yields nothing.
#[must_use]
pub fn rolling_accuracy(rounds: &[RoundRecord]) -> Vec<(u32, f64)> {
    let evals: Vec<(u32, f64)> = rounds
        .iter()
        .filter_map(|r| Some((r.round, r.accuracy?)))
        .collect();
    let w = evals.len().min(TARGET_WINDOW);
    if w == 0 {
        return Vec::new();
    }
    evals
        .windows(w)
        .map(|win| {
            let mean = win.iter().map(|&(_, acc)| acc).sum::<f64>() / w as f64;
            (win[w - 1].0, mean)
        })
        .collect()
}

impl RunResult {
    /// Builds a result from round records, computing target-time metrics
    /// with the paper's trailing-window rule ([`rolling_accuracy`]).
    #[must_use]
    pub fn from_rounds(
        strategy: impl Into<String>,
        rounds: Vec<RoundRecord>,
        target_accuracy: Option<f64>,
    ) -> Self {
        let target_round = target_accuracy.and_then(|target| {
            rolling_accuracy(&rounds)
                .into_iter()
                .find(|&(_, mean)| mean >= target)
                .map(|(round, _)| round)
        });
        let total = Self::accumulate(&rounds, u32::MAX);
        let at_target = match target_round {
            Some(t) => Self::accumulate(&rounds, t),
            None => total,
        };
        Self {
            strategy: strategy.into(),
            rounds,
            target_round,
            at_target,
            total,
        }
    }

    fn accumulate(rounds: &[RoundRecord], up_to_round: u32) -> CumulativeMetrics {
        let mut m = CumulativeMetrics::default();
        let mut recent: Vec<f64> = Vec::new();
        for r in rounds {
            if r.round > up_to_round {
                break;
            }
            m.down_bytes += r.down_bytes;
            m.total_bytes += r.down_bytes + r.up_bytes;
            m.download_secs += r.slowest_download_secs;
            m.total_secs += r.round_secs;
            m.rounds += 1;
            if let Some(acc) = r.accuracy {
                recent.push(acc);
            }
        }
        let window = &recent[recent.len().saturating_sub(5)..];
        if !window.is_empty() {
            m.accuracy = window.iter().sum::<f64>() / window.len() as f64;
        }
        m
    }

    /// `(cumulative downstream bytes, accuracy)` pairs at evaluation
    /// rounds — one series of the paper's accuracy-vs-bandwidth plots
    /// (Figures 5–8, 10, 11).
    #[must_use]
    pub fn accuracy_curve(&self) -> Vec<(u64, f64)> {
        let mut acc_bytes = 0u64;
        let mut out = Vec::new();
        for r in &self.rounds {
            acc_bytes += r.down_bytes;
            if let Some(a) = r.accuracy {
                out.push((acc_bytes, a));
            }
        }
        out
    }

    /// Writes the per-round records as CSV (header + one line per
    /// round). The analytic columns come first; the measured per-phase
    /// wall-time columns (`step_ns` plus one `<phase>_ns` per
    /// [`Phase`], all zeros without an attached recorder) follow them.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "round,down_bytes,up_bytes,wire_up_bytes,wire_broadcast_bytes,round_secs,\
             slowest_download_secs,slowest_upload_secs,slowest_compute_secs,accuracy,loss,\
             invited,kept,changed,step_ns",
        );
        for p in Phase::ALL {
            s.push_str(&format!(",{}_ns", p.name()));
        }
        s.push('\n');
        for r in &self.rounds {
            s.push_str(&format!(
                "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{},{},{},{},{},{}",
                r.round,
                r.down_bytes,
                r.up_bytes,
                r.wire_up_bytes,
                r.wire_broadcast_bytes,
                r.round_secs,
                r.slowest_download_secs,
                r.slowest_upload_secs,
                r.slowest_compute_secs,
                r.accuracy.map_or(String::new(), |a| format!("{a:.4}")),
                r.loss.map_or(String::new(), |l| format!("{l:.4}")),
                r.invited,
                r.kept,
                r.changed_positions,
                r.step_nanos,
            ));
            for n in r.phase_nanos {
                s.push_str(&format!(",{n}"));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u32, down: u64, up: u64, acc: Option<f64>) -> RoundRecord {
        RoundRecord {
            round,
            down_bytes: down,
            up_bytes: up,
            round_secs: 1.0,
            slowest_download_secs: 0.5,
            accuracy: acc,
            ..Default::default()
        }
    }

    #[test]
    fn unit_conversions() {
        assert!((bytes_to_mb(2_500_000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate() {
        let r = RunResult::from_rounds(
            "test",
            vec![record(0, 100, 50, None), record(1, 200, 70, None)],
            None,
        );
        assert_eq!(r.total.down_bytes, 300);
        assert_eq!(r.total.total_bytes, 420);
        assert_eq!(r.total.rounds, 2);
        assert!((r.total.download_secs - 1.0).abs() < 1e-12);
        assert!((r.total.total_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn target_uses_five_eval_rolling_mean() {
        // Single high spike must NOT trigger the target; a sustained
        // plateau must.
        let mut rounds = Vec::new();
        let accs = [0.1, 0.9, 0.1, 0.1, 0.1, 0.8, 0.8, 0.8, 0.8, 0.8];
        for (i, &a) in accs.iter().enumerate() {
            rounds.push(record(i as u32, 10, 5, Some(a)));
        }
        let r = RunResult::from_rounds("t", rounds, Some(0.75));
        // Rolling means over the trailing 5 evals: idx4: 0.26, idx5: 0.4,
        // idx6: 0.52, idx7: 0.66, idx8: 0.66, idx9: 0.8 ← first ≥ 0.75.
        assert_eq!(r.target_round, Some(9));
        assert_eq!(r.at_target.rounds, 10);
        assert_eq!(r.at_target.down_bytes, 100);
    }

    /// A run with fewer than five evaluations averages all of them, and
    /// only once all have happened.
    #[test]
    fn target_window_shrinks_to_a_short_run() {
        let accs = [Some(0.25), None, Some(0.5), Some(1.0), None, Some(0.75)];
        let rounds: Vec<RoundRecord> = accs
            .iter()
            .enumerate()
            .map(|(i, &a)| record(i as u32, 10, 5, a))
            .collect();
        assert_eq!(rolling_accuracy(&rounds), [(5, 0.625)]);
        let r = RunResult::from_rounds("t", rounds.clone(), Some(0.625));
        assert_eq!(r.target_round, Some(5));
        assert_eq!(r.at_target.rounds, 6);
        let r = RunResult::from_rounds("t", rounds, Some(0.626));
        assert_eq!(r.target_round, None);
    }

    #[test]
    fn target_not_reached_falls_back_to_total() {
        let rounds = vec![record(0, 10, 5, Some(0.2)); 6]
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.round = i as u32;
                r
            })
            .collect();
        let r = RunResult::from_rounds("t", rounds, Some(0.99));
        assert_eq!(r.target_round, None);
        assert_eq!(r.at_target, r.total);
    }

    #[test]
    fn accuracy_curve_pairs_bytes_with_evals() {
        let r = RunResult::from_rounds(
            "t",
            vec![
                record(0, 5, 0, None),
                record(1, 7, 0, Some(0.3)),
                record(2, 2, 0, Some(0.5)),
            ],
            None,
        );
        assert_eq!(r.accuracy_curve(), vec![(12, 0.3), (14, 0.5)]);
    }

    #[test]
    fn equality_ignores_measured_wall_time() {
        let a = record(0, 1, 2, None);
        let mut b = a;
        b.phase_nanos[Phase::Train.index()] = 99;
        b.step_nanos = 1_234;
        assert_eq!(a, b, "wall-time fields must not affect equality");
        assert_eq!(b.measured_phase_total(), 99);
        assert_eq!(b.phase_nanos_of(Phase::Train), 99);
        b.kept = 5;
        assert_ne!(a, b, "modelled fields must still affect equality");
    }

    #[test]
    fn csv_includes_measured_phase_columns() {
        let mut r0 = record(0, 1, 2, None);
        r0.step_nanos = 10;
        r0.phase_nanos[Phase::Draw.index()] = 4;
        let r = RunResult::from_rounds("t", vec![r0], None);
        let csv = r.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with(
            "step_ns,draw_ns,broadcast_ns,train_ns,encode_ns,decode_ns,\
             fold_ns,topk_ns,apply_ns,rebalance_ns"
        ));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(",10,4,0,0,0,0,0,0,0,0"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = RunResult::from_rounds("t", vec![record(0, 1, 2, Some(0.5))], None);
        let csv = r.to_csv();
        assert!(csv.starts_with("round,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().contains("0.5000"));
    }
}
