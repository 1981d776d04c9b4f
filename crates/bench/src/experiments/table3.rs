//! Table 3: over-commitment strategies (3a) and values (3b).
//!
//! 3a fixes OC = 1.3 and varies how the 0.3·K extra invitations split
//! between the sticky and non-sticky groups (10% / 30% / 50% / the C÷K
//! default). 3b fixes the best split (10%) and sweeps OC ∈ 1.0..1.5.
//! The metric set is Table 2's DV/TV/DT/TT at the target accuracy.

use crate::experiments::common;
use crate::{write_csv, ExptOpts, Table};
use gluefl_core::{GlueFlParams, RunResult, SimConfig, StrategyConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_sampling::overcommit::OcStrategy;

fn base_cfg(opts: &ExptOpts) -> (SimConfig, GlueFlParams) {
    let cfg = common::setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::FedAvg,
        opts,
    );
    let params = GlueFlParams::paper_default(cfg.round_size, DatasetModel::ShuffleNet);
    (cfg, params)
}

fn run_arms(
    label_cfgs: Vec<(String, SimConfig)>,
    opts: &ExptOpts,
    csv_name: &str,
    header_note: &str,
) {
    let results: Vec<RunResult> = label_cfgs
        .iter()
        .map(|(_, cfg)| common::run_config(cfg.clone()))
        .collect();
    let target = common::common_target(&results);
    let results = common::with_target(results, target);
    let mut table = Table::new(["arm", "DV (GB)", "TV (GB)", "DT (h)", "TT (h)", "reached"]);
    let mut csv = String::from("arm,dv_gb,tv_gb,dt_h,tt_h,reached,censored,target\n");
    for ((label, cfg), r) in label_cfgs.iter().zip(&results) {
        let dv = common::display_gb(r.at_target.down_bytes, cfg, opts);
        let tv = common::display_gb(r.at_target.total_bytes, cfg, opts);
        let dt = common::hours(r.at_target.download_secs);
        let tt = common::hours(r.at_target.total_secs);
        let (reached, censored) = (r.target_round.is_some(), common::censored(r));
        table.row([
            label.clone(),
            format!("{dv:.3}"),
            format!("{tv:.3}"),
            format!("{dt:.3}"),
            format!("{tt:.3}"),
            common::reached_cell(r),
        ]);
        csv.push_str(&format!(
            "{label},{dv:.4},{tv:.4},{dt:.4},{tt:.4},{reached},{censored},{target:.4}\n"
        ));
    }
    println!("(common target {:.1}%) {header_note}", target * 100.0);
    println!("{}", table.render());
    println!("{}", common::CENSORED_NOTE);
    write_csv(&opts.out_dir, csv_name, &csv);
}

/// Runs Table 3a: over-commitment split strategies at OC = 1.3.
///
/// # Errors
/// Never fails; the `Result` matches the dispatcher's signature.
pub fn run_3a(opts: &ExptOpts) -> Result<(), String> {
    println!("Table 3a: over-commitment split strategies (OC = 1.3)");
    let (cfg, params) = base_cfg(opts);
    let mut arms = Vec::new();
    for (label, strategy) in [
        ("10% sticky", OcStrategy::StickyFraction(0.1)),
        ("30% sticky", OcStrategy::StickyFraction(0.3)),
        ("50% sticky", OcStrategy::StickyFraction(0.5)),
        ("C/K default", OcStrategy::Proportional),
    ] {
        let mut c = cfg.clone();
        c.strategy = StrategyConfig::GlueFl(params.clone());
        c.oc = 1.3;
        c.oc_strategy = strategy;
        arms.push((label.to_owned(), c));
    }
    run_arms(
        arms,
        opts,
        "table3a.csv",
        "— fewer sticky extras should cut training time at equal bandwidth",
    );
    Ok(())
}

/// Runs Table 3b: over-commitment values with the 10% split.
///
/// # Errors
/// Never fails; the `Result` matches the dispatcher's signature.
pub fn run_3b(opts: &ExptOpts) -> Result<(), String> {
    println!("Table 3b: over-commitment values (split = 10% sticky)");
    let (cfg, params) = base_cfg(opts);
    let values: &[f64] = if opts.quick {
        &[1.0, 1.3]
    } else {
        &[1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    };
    let mut arms = Vec::new();
    for &oc in values {
        let mut c = cfg.clone();
        c.strategy = StrategyConfig::GlueFl(params.clone());
        c.oc = oc;
        c.oc_strategy = OcStrategy::StickyFraction(0.1);
        arms.push((format!("OC = {oc:.1}"), c));
    }
    run_arms(
        arms,
        opts,
        "table3b.csv",
        "— OC = 1.0 has no straggler slack (huge TT); bandwidth grows with OC",
    );
    Ok(())
}
