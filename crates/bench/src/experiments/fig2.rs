//! Figure 2: STC's bandwidth under client sampling.
//!
//! Panel (a): per-round downstream and upstream MB of STC on FEMNIST for
//! mask ratios q ∈ {10%, 20%} — showing downstream dwarfing upstream.
//! Panel (b): the model volume a client must download when re-sampled
//! after skipping r rounds — staleness grows with the skip length.

use crate::experiments::common;
use crate::{write_csv, ExptOpts, Table};
use gluefl_core::{bytes_to_mb, Simulation, StrategyConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

/// Runs the experiment.
///
/// # Errors
/// Never fails; the `Result` matches the dispatcher's signature.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    println!("Figure 2: STC bandwidth under client sampling (FEMNIST)");
    let mut panel_a = String::from("q,round,down_mb,up_mb\n");
    let mut panel_b = String::from("q,skip_rounds,download_mb\n");
    let mut summary = Table::new([
        "q",
        "mean down (MB/round)",
        "mean up (MB/round)",
        "download@skip10 (MB)",
        "frac of model",
    ]);

    for q in [0.10, 0.20] {
        let cfg = common::setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::Stc { q },
            opts,
        );
        let mut sim = Simulation::new(cfg.clone());
        let dim = sim.model().num_params();
        let scale = if opts.paper_scale {
            cfg.model.paper_scale_factor(dim)
        } else {
            1.0
        };
        let mut recs = Vec::new();
        for _ in 0..opts.rounds {
            recs.push(sim.step());
        }
        let mut down_sum = 0.0;
        let mut up_sum = 0.0;
        for r in &recs {
            let d = bytes_to_mb(r.down_bytes) * scale;
            let u = bytes_to_mb(r.up_bytes) * scale;
            panel_a.push_str(&format!("{q},{},{d:.4},{u:.4}\n", r.round));
            down_sum += d;
            up_sum += u;
        }
        // Panel (b): staleness profile at the end of training — bytes a
        // client that skipped r rounds would download.
        let st = sim.staleness();
        let max_skip = (opts.rounds - 1).min(45);
        let mut at_skip10 = 0.0;
        for r in 1..=max_skip {
            let v = st.version().saturating_sub(r);
            let mb = bytes_to_mb(st.stale_positions(v) as u64 * 4) * scale;
            panel_b.push_str(&format!("{q},{r},{mb:.4}\n"));
            if r == 10.min(max_skip) {
                at_skip10 = mb;
            }
        }
        let model_mb = bytes_to_mb(dim as u64 * 4) * scale;
        summary.row([
            format!("{:.0}%", q * 100.0),
            format!("{:.2}", down_sum / recs.len() as f64),
            format!("{:.2}", up_sum / recs.len() as f64),
            format!("{at_skip10:.2}"),
            format!("{:.0}%", 100.0 * at_skip10 / model_mb),
        ]);
    }
    write_csv(&opts.out_dir, "fig2a_per_round.csv", &panel_a);
    write_csv(&opts.out_dir, "fig2b_skip_download.csv", &panel_b);
    println!("{}", summary.render());
    println!(
        "paper check: a client re-sampled after ~10 skipped rounds downloads \
         50-80% of the model even though q ≤ 20%"
    );
    Ok(())
}
