//! Figure 9: per-round time breakdown across network environments.
//!
//! For end-user edge devices (M-Lab), commercial 5G, and a datacenter
//! network, the paper shows the average per-round share of download,
//! upload, and computation time for each strategy. On edge networks,
//! transmission dominates and GlueFL's download savings shine; on 5G and
//! datacenter networks computation dominates for everyone.

use crate::experiments::common;
use crate::{write_csv, ExptOpts, Table};
use gluefl_core::{RoundRecord, StrategyConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_net::{DeviceProfile, NetworkProfile};

/// Runs the experiment.
///
/// # Errors
/// Never fails; the `Result` matches the dispatcher's signature.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    println!("Figure 9: time breakdown per round across network environments");
    let dataset = DatasetProfile::Femnist;
    let model = DatasetModel::ShuffleNet;
    let mut csv = String::from(
        "network,strategy,download_secs,upload_secs,compute_secs,\
         slowest_download_secs,slowest_upload_secs,slowest_compute_secs\n",
    );
    for network in NetworkProfile::all() {
        let mut table = Table::new([
            "strategy",
            "download (s)",
            "upload (s)",
            "compute (s)",
            "round total (s)",
        ]);
        let cfg0 = common::setup(dataset, model, StrategyConfig::FedAvg, opts);
        for strategy in common::paper_strategies(cfg0.round_size, model) {
            let mut cfg = common::setup(dataset, model, strategy, opts);
            cfg.network = network;
            // In 5G / datacenter settings the paper's clients are the same
            // devices; only the network changes.
            cfg.device = DeviceProfile::mobile();
            let result = common::run_config(cfg);
            let n = result.rounds.len().max(1) as f64;
            let mean =
                |secs: fn(&RoundRecord) -> f64| result.rounds.iter().map(secs).sum::<f64>() / n;
            let dl = mean(|r| r.mean_download_secs);
            let ul = mean(|r| r.mean_upload_secs);
            let cp = mean(|r| r.mean_compute_secs);
            let sdl = mean(|r| r.slowest_download_secs);
            let sul = mean(|r| r.slowest_upload_secs);
            let scp = mean(|r| r.slowest_compute_secs);
            let total = mean(|r| r.round_secs);
            table.row([
                result.strategy.clone(),
                format!("{dl:.2}"),
                format!("{ul:.2}"),
                format!("{cp:.2}"),
                format!("{total:.2}"),
            ]);
            csv.push_str(&format!(
                "{},{},{dl:.4},{ul:.4},{cp:.4},{sdl:.4},{sul:.4},{scp:.4}\n",
                network.name(),
                result.strategy,
            ));
        }
        println!(
            "\n[{}] mean per-round time per kept client:",
            network.name()
        );
        println!("{}", table.render());
    }
    write_csv(&opts.out_dir, "fig9_time_breakdown.csv", &csv);
    println!(
        "paper check: on the edge network transmission dominates and GlueFL has \
         the smallest download share; on 5G/datacenter computation dominates \
         for all strategies"
    );
    Ok(())
}
