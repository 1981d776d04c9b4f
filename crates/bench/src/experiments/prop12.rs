//! Propositions 1 & 2: re-sampling probabilities, analytic vs simulated.
//!
//! Reproduces the §3.1 case study (N = 2800, K = 30, S = 120, C = 24):
//! a sticky client's probability of being re-sampled after r rounds is
//! 20.0%, 15.0%, 11.2%, 8.5%, 6.4%, 4.8% for r = 1..6, against ~1.1% for
//! uniform sampling — and validates the closed forms against a Monte
//! Carlo run of the actual sticky sampler.

use crate::{write_csv, ExptOpts, Table};
use gluefl_sampling::analysis::{
    sticky_advantage_horizon, sticky_resample_prob, uniform_resample_prob,
};
use gluefl_sampling::{AllOnline, StickySampler};
use gluefl_tensor::rng::seeded_rng;

/// Largest gap, in percentage points, allowed between the sticky
/// sampler's Monte Carlo re-sampling frequency and Proposition 2's closed
/// form at any r = 1..6. At `--quick` (20 000 rounds) seeds 1, 2, 3, 7
/// and 42 stay within 0.26 pp.
const MAX_DIFF_PP: f64 = 1.0;

/// Runs the experiment.
///
/// # Errors
/// Fails when the Monte Carlo frequency of any r = 1..6 differs from
/// Proposition 2 by more than 1 pp (`MAX_DIFF_PP`); the CSVs and tables are
/// written first.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    println!("Propositions 1 & 2: re-sampling probability after r rounds");
    // Case-study parameters at paper scale — closed forms are free.
    let (n, k, s, c) = (2800usize, 30usize, 120usize, 24usize);
    let mut table = Table::new(["r", "sticky P(r)", "uniform P(r)", "advantage"]);
    let mut csv = String::from("r,sticky_prob,uniform_prob\n");
    for r in 1..=10u32 {
        let ps = sticky_resample_prob(n, k, s, c, r);
        let pu = uniform_resample_prob(n, k, r);
        table.row([
            r.to_string(),
            format!("{:.1}%", ps * 100.0),
            format!("{:.2}%", pu * 100.0),
            format!("{:.1}x", ps / pu),
        ]);
        csv.push_str(&format!("{r},{ps:.6},{pu:.6}\n"));
    }
    println!("{}", table.render());
    println!(
        "advantage horizon (Appendix A.3): sticky beats uniform for {} rounds",
        sticky_advantage_horizon(n, k, s, c).map_or("∞".into(), |h| h.to_string())
    );
    write_csv(&opts.out_dir, "prop12_analytic.csv", &csv);

    // Monte Carlo validation at a reduced scale (exact process).
    let (n, k, s, c) = (280usize, 6usize, 24usize, 4usize);
    let trials = if opts.quick { 20_000u32 } else { 120_000 };
    let mut rng = seeded_rng(opts.seed, "prop12-mc", 0);
    let mut sampler = StickySampler::new(n, s, &mut rng);
    let mut last_seen: Vec<Option<u32>> = vec![None; n];
    let mut gaps: Vec<u32> = Vec::new();
    for t in 0..trials {
        let draw = sampler.draw(&mut rng, c, k - c, &mut AllOnline);
        for cl in draw.all() {
            if let Some(prev) = last_seen[cl] {
                gaps.push(t - prev);
            }
        }
        sampler.rebalance(&mut rng, &draw.sticky, &draw.fresh);
        for cl in draw.all() {
            last_seen[cl] = Some(t);
        }
    }
    let total = gaps.len() as f64;
    let mut mc = Table::new(["r", "Monte Carlo", "Proposition 2", "abs diff"]);
    let mut mc_csv = String::from("r,monte_carlo,analytic\n");
    let mut rows = Vec::new();
    for r in 1..=6u32 {
        let observed = gaps.iter().filter(|&&g| g == r).count() as f64 / total;
        let predicted = sticky_resample_prob(n, k, s, c, r);
        rows.push((r, observed, predicted));
        mc.row([
            r.to_string(),
            format!("{:.2}%", observed * 100.0),
            format!("{:.2}%", predicted * 100.0),
            format!("{:.3}pp", (observed - predicted).abs() * 100.0),
        ]);
        mc_csv.push_str(&format!("{r},{observed:.6},{predicted:.6}\n"));
    }
    let mean_gap = gaps.iter().map(|&g| f64::from(g)).sum::<f64>() / total;
    println!("\nMonte Carlo validation (N={n}, K={k}, S={s}, C={c}, {trials} rounds):");
    println!("{}", mc.render());
    println!(
        "mean re-sampling gap {:.1} rounds vs N/K = {:.1} (Prop. 2: the mean is \
         unchanged; stickiness only shifts mass toward small r)",
        mean_gap,
        n as f64 / k as f64
    );
    write_csv(&opts.out_dir, "prop12_montecarlo.csv", &mc_csv);
    check_agreement(&rows)
}

/// Checks `(r, observed, predicted)` probability rows against
/// [`MAX_DIFF_PP`].
///
/// # Errors
/// Names the first r whose frequencies differ by more than the bound.
fn check_agreement(rows: &[(u32, f64, f64)]) -> Result<(), String> {
    for &(r, observed, predicted) in rows {
        let diff_pp = (observed - predicted).abs() * 100.0;
        if diff_pp > MAX_DIFF_PP {
            return Err(format!(
                "Monte Carlo differs from Proposition 2 by {diff_pp:.3}pp at r = {r} \
                 (bound {MAX_DIFF_PP}pp)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows within a point of the closed form pass; the first one past it
    /// fails, named.
    #[test]
    fn agreement_gate_fails_past_one_point() {
        let close = [(1, 0.2026, 0.2000), (2, 0.1450, 0.1500)];
        assert_eq!(check_agreement(&close), Ok(()));
        let far = [(1, 0.2026, 0.2000), (2, 0.1390, 0.1500), (3, 0.0, 0.2)];
        let err = check_agreement(&far).unwrap_err();
        assert!(err.contains("1.100pp at r = 2"), "{err}");
    }
}
