//! The paper's default FEMNIST/ShuffleNet comparison (Table 2, row 1):
//! FedAvg vs STC vs APF vs GlueFL under identical client randomness.
//!
//! ```text
//! cargo run --release --example femnist_shufflenet [-- rounds]
//! ```

use gluefl_compress::ApfConfig;
use gluefl_core::{bytes_to_mb, GlueFlParams, RunResult, SimConfig, Simulation, StrategyConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

fn main() {
    let rounds: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let base = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::FedAvg,
        0.05,
        rounds,
        7,
    );
    let k = base.round_size;
    let strategies = vec![
        StrategyConfig::FedAvg,
        StrategyConfig::Stc { q: 0.20 },
        StrategyConfig::Apf {
            config: ApfConfig::default(),
        },
        StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
    ];

    println!(
        "FEMNIST / ShuffleNet-like: N = {}, K = {k}, {rounds} rounds, \
         OC = {:.1}\n",
        base.dataset.clients, base.oc
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "strategy", "down (MB)", "up (MB)", "round time", "final acc"
    );
    let mut results: Vec<RunResult> = Vec::new();
    for strategy in strategies {
        let mut cfg = base.clone();
        cfg.strategy = strategy;
        let result = Simulation::new(cfg).run();
        let up: u64 = result.rounds.iter().map(|r| r.up_bytes).sum();
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>10.1} s {:>9.1}%",
            result.strategy,
            bytes_to_mb(result.total.down_bytes),
            bytes_to_mb(up),
            result.total.total_secs / f64::from(rounds),
            result.total.accuracy * 100.0
        );
        results.push(result);
    }

    // Headline comparison: GlueFL downstream vs the best baseline.
    let dv = |name: &str| {
        results
            .iter()
            .find(|r| r.strategy == name)
            .map(|r| r.total.down_bytes)
            .expect("strategy ran")
    };
    let gluefl = dv("gluefl") as f64;
    let best_baseline = [dv("fedavg"), dv("stc"), dv("apf")]
        .into_iter()
        .min()
        .expect("baselines ran") as f64;
    println!(
        "\nGlueFL downstream saving vs best baseline: {:.0}%",
        (1.0 - gluefl / best_baseline) * 100.0
    );
}
