//! Million-client scaling sweep: per-round control-plane cost vs N.
//!
//! Runs the full per-round control plane — availability queries, sticky
//! draw, link/speed lookups, keep-fastest selection, rebalance — at
//! population sizes N = 10⁴, 10⁵, 10⁶ (200 rounds each, quick mode 50)
//! **without** instantiating any per-client training state. Every layer
//! it exercises is lazy: [`LazyAvailability`] materialises session
//! cursors only for touched clients, [`LinkCache`]/[`SpeedCache`] sample links on first
//! use, and the [`StickySampler`] draws fresh candidates by rejection, so
//! the measured per-round wall-clock should stay flat (O(participants +
//! log N)) while N grows 100×.
//!
//! Reports microseconds per round, the number of clients whose
//! availability state was ever materialised, the number of cached links,
//! and the point's own resident-set growth; writes `scale.csv`.
//!
//! Run with `expt scale [--quick] [--out DIR]`.

use crate::ExptOpts;
use gluefl_net::timing::{fastest, ClientRoundTime};
use gluefl_net::{DeviceProfile, LazyAvailability, LinkCache, NetworkProfile, SpeedCache};
use gluefl_sampling::overcommit::{plan as oc_plan, OcStrategy};
use gluefl_sampling::StickySampler;
use gluefl_tensor::rng::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Per-round payload used for the keep-fastest rule, in Mbit. The value
/// only has to rank clients; it mirrors a masked ShuffleNet update.
const PAYLOAD_MBIT: f64 = 8.0;

/// One population size's measurements.
struct ScalePoint {
    n: usize,
    rounds: u32,
    us_per_round: f64,
    avail_touched: usize,
    links_cached: usize,
    rss_growth_mb: f64,
}

/// Resident set size in MB via `/proc/self/statm` (0.0 where
/// unsupported).
fn resident_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).map(str::to_owned))
        .and_then(|pages| pages.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0 / 1e6)
}

/// Runs the control plane for `rounds` rounds at population size `n` and
/// returns the measurements.
fn run_point(n: usize, rounds: u32, seed: u64) -> ScalePoint {
    let rss_before = resident_mb();
    let plan = oc_plan(30, 24, 1.3, OcStrategy::Proportional);
    let group_size = 120.min(n / 2).max(plan.sticky_invites);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "scale-rng", n as u64));
    let mut sampler = StickySampler::new(n, group_size, &mut rng);
    let mut availability =
        LazyAvailability::new(n, 0.7, 24.0, derive_seed(seed, "availability", 0));
    let mut links = LinkCache::new(NetworkProfile::MlabEdge, derive_seed(seed, "network", 0));
    let mut speeds = SpeedCache::new(DeviceProfile::mobile(), derive_seed(seed, "devices", 0));

    let start = Instant::now();
    for round in 0..rounds {
        let draw = {
            let mut online = |id: usize| availability.is_online(id, round);
            sampler.draw(
                &mut rng,
                plan.sticky_invites,
                plan.fresh_invites,
                &mut online,
            )
        };
        // Keep-fastest within each group, by the engine's rule: rank
        // invites by simulated round time (upload over the client link +
        // one local step).
        let mut keep_fastest = |ids: &[usize], keep: usize| {
            let times: Vec<ClientRoundTime> = ids
                .iter()
                .map(|&id| ClientRoundTime {
                    upload_secs: PAYLOAD_MBIT / links.get(id).up_mbps.max(0.1),
                    compute_secs: 1.0 / speeds.get(id).max(0.01),
                    ..ClientRoundTime::default()
                })
                .collect();
            let mut kept: Vec<usize> = fastest(&times, keep).into_iter().map(|i| ids[i]).collect();
            kept.sort_unstable();
            kept
        };
        let kept_sticky = keep_fastest(&draw.sticky, plan.keep_sticky);
        let kept_fresh = keep_fastest(&draw.fresh, plan.keep_fresh);
        sampler.rebalance(&mut rng, &kept_sticky, &kept_fresh);
    }
    let elapsed = start.elapsed();

    ScalePoint {
        n,
        rounds,
        us_per_round: elapsed.as_secs_f64() * 1e6 / f64::from(rounds),
        avail_touched: availability.touched(),
        links_cached: links.cached(),
        rss_growth_mb: resident_mb() - rss_before,
    }
}

/// Runs the scaling sweep and writes `scale.csv`.
///
/// # Errors
/// Fails if the measured per-round cost grows anywhere near linearly
/// with N (the sweep exists to pin the O(participants + log N) claim).
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    let rounds: u32 = if opts.quick { 50 } else { 200 };
    let points: Vec<ScalePoint> = [10_000, 100_000, 1_000_000]
        .iter()
        .map(|&n| run_point(n, rounds, opts.seed))
        .collect();

    let mut table = crate::Table::new([
        "N",
        "rounds",
        "us/round",
        "avail touched",
        "links cached",
        "RSS growth (MB)",
    ]);
    let mut csv = String::from("n,rounds,us_per_round,avail_touched,links_cached,rss_growth_mb\n");
    for p in &points {
        table.row([
            format!("{}", p.n),
            format!("{}", p.rounds),
            format!("{:.1}", p.us_per_round),
            format!("{}", p.avail_touched),
            format!("{}", p.links_cached),
            format!("{:.1}", p.rss_growth_mb),
        ]);
        csv.push_str(&format!(
            "{},{},{:.3},{},{},{:.1}\n",
            p.n, p.rounds, p.us_per_round, p.avail_touched, p.links_cached, p.rss_growth_mb
        ));
    }
    println!("\nscaling sweep — lazy control plane, K = 30, OC = 1.3, S = 120");
    println!("{}", table.render());
    println!(
        "(per-round cost covers availability queries, sticky draw, \
         link/speed lookups, keep-fastest selection, and rebalance; \
         'avail touched' is the number of clients ever materialised)"
    );
    crate::write_csv(&opts.out_dir, "scale.csv", &csv);
    check_sublinear(&points)
}

/// The sublinearity gate: from the smallest to the largest population the
/// per-round cost must grow less than a tenth as much as N does (a 100×
/// growth in N allows 10×; the slack absorbs timer noise at microsecond
/// scales).
///
/// # Errors
/// Names both growth factors when the cost grows faster than that.
fn check_sublinear(points: &[ScalePoint]) -> Result<(), String> {
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return Ok(());
    };
    let growth = last.us_per_round / first.us_per_round.max(1e-9);
    let n_growth = last.n as f64 / first.n as f64;
    if growth > n_growth / 10.0 {
        return Err(format!(
            "per-round cost grew {growth:.1}x over a {n_growth:.0}x \
             population growth — control plane is not sublinear"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick sweep runs end to end, writes its CSV, and only touches
    /// a small fraction of the population.
    #[test]
    fn quick_sweep_runs_and_writes_csv() {
        let dir = std::env::temp_dir().join("gluefl_scale_sweep_test");
        let opts = ExptOpts {
            quick: true,
            out_dir: dir.clone(),
            ..ExptOpts::default()
        };
        run(&opts).unwrap();
        let csv = std::fs::read_to_string(dir.join("scale.csv")).unwrap();
        assert!(csv.starts_with("n,rounds,us_per_round"));
        for n in ["10000", "100000", "1000000"] {
            assert!(
                csv.contains(&format!("\n{n},50,")),
                "no N = {n} row:\n{csv}"
            );
        }
    }

    fn point(n: usize, us_per_round: f64) -> ScalePoint {
        ScalePoint {
            n,
            rounds: 50,
            us_per_round,
            avail_touched: 0,
            links_cached: 0,
            rss_growth_mb: 0.0,
        }
    }

    /// The gate passes a flat sweep, and fails one whose per-round cost
    /// grows faster than N or just past a tenth of N's growth.
    #[test]
    fn sublinear_gate_rejects_cost_that_grows_with_n() {
        let flat = [
            point(10_000, 26.8),
            point(100_000, 34.8),
            point(1_000_000, 32.1),
        ];
        assert_eq!(check_sublinear(&flat), Ok(()));
        let superlinear = [
            point(10_000, 20.0),
            point(100_000, 400.0),
            point(1_000_000, 8_000.0),
        ];
        let err = check_sublinear(&superlinear).unwrap_err();
        assert!(err.contains("grew 400.0x over a 100x"), "{err}");
        assert!(check_sublinear(&[point(10_000, 20.0), point(1_000_000, 201.0)]).is_err());
        assert_eq!(
            check_sublinear(&[point(10_000, 20.0), point(1_000_000, 199.0)]),
            Ok(())
        );
    }

    /// A point reports its own growth: 64 MB held resident by earlier
    /// work in the process is not charged to it.
    #[test]
    fn rss_is_the_points_own_growth() {
        let ballast = std::hint::black_box(vec![1u8; 64 << 20]);
        let p = run_point(10_000, 5, 7);
        drop(ballast);
        assert!(p.rss_growth_mb < 16.0, "{} MB", p.rss_growth_mb);
    }

    /// Per-round work at N = 10⁵ touches O(participants · rounds) state,
    /// not O(N): the availability map and link cache stay sparse.
    #[test]
    fn control_plane_stays_sparse() {
        let p = run_point(100_000, 30, 7);
        assert!(
            p.avail_touched < 10_000,
            "availability materialised {} of 100k clients",
            p.avail_touched
        );
        assert!(
            p.links_cached < 10_000,
            "link cache holds {} of 100k clients",
            p.links_cached
        );
    }
}
