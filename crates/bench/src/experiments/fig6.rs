//! Figure 6: effect of the sticky-group size `S`.
//!
//! The paper sweeps S ∈ {30, 60, 120, 240} with K = 30, i.e.
//! S/K ∈ {1, 2, 4, 8}. We parameterise by the ratio so the sweep is
//! scale-invariant. Larger S gives more diverse sticky data (better
//! accuracy) at more bandwidth; S = 4K is the paper default.

use crate::experiments::common::{self, SweepArm};
use crate::ExptOpts;
use gluefl_core::{GlueFlParams, StrategyConfig};
use gluefl_ml::DatasetModel;

fn arms(k: usize, model: DatasetModel) -> Vec<SweepArm> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|m| {
            let mut p = GlueFlParams::paper_default(k, model);
            p.sticky_group = m * k;
            // Keep the paper's C = 4K/5 draw, which requires C <= S.
            p.sticky_draw = p.sticky_draw.min(p.sticky_group);
            SweepArm {
                label: format!("GlueFL (S = {}K)", m),
                strategy: StrategyConfig::GlueFl(p),
            }
        })
        .collect()
}

/// Runs the experiment.
///
/// # Errors
/// Never fails; the `Result` matches the dispatcher's signature.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    println!("Figure 6: effect of sticky group size S (paper: S = 30..240, K = 30)");
    for (dataset, model) in common::sensitivity_pairs(opts) {
        let cfg = common::setup(dataset, model, StrategyConfig::FedAvg, opts);
        common::run_sweep("fig6", dataset, model, &arms(cfg.round_size, model), opts);
    }
    println!(
        "paper check: very small S hurts accuracy (little data diversity in the \
         sticky group); S = 4K is a good default"
    );
    Ok(())
}
