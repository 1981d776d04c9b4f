//! Table 2: volume and time to target accuracy, all strategies × tasks.
//!
//! For each (dataset, model) pair the paper reports Downstream Volume
//! (DV), Total Volume (TV), Download Time (DT), and Total training Time
//! (TT) at the target accuracy — the highest accuracy achievable by all
//! approaches. We run FedAvg, STC, APF, and GlueFL under identical
//! sampled randomness, derive the common target post-hoc, and print the
//! same four columns.

use crate::experiments::common;
use crate::{write_csv, ExptOpts, Table};
use gluefl_core::{RunResult, SimConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;

/// The (dataset, model) pairs of Table 2.
#[must_use]
pub fn table2_pairs() -> Vec<(DatasetProfile, DatasetModel)> {
    vec![
        (DatasetProfile::Femnist, DatasetModel::ShuffleNet),
        (DatasetProfile::Femnist, DatasetModel::MobileNet),
        (DatasetProfile::OpenImage, DatasetModel::ShuffleNet),
        (DatasetProfile::OpenImage, DatasetModel::MobileNet),
        (DatasetProfile::GoogleSpeech, DatasetModel::ResNet34),
    ]
}

/// Runs the experiment.
///
/// # Errors
/// Never fails; the `Result` matches the dispatcher's signature.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    println!("Table 2: bandwidth and training time to target accuracy");
    let pairs = if opts.quick {
        vec![(DatasetProfile::Femnist, DatasetModel::ShuffleNet)]
    } else {
        table2_pairs()
    };
    let mut table = Table::new([
        "dataset", "model", "strategy", "target", "DV (GB)", "TV (GB)", "DT (h)", "TT (h)",
        "reached",
    ]);
    let mut csv = String::from(
        "dataset,model,strategy,target,reached,censored,target_round,dv_gb,tv_gb,dt_h,tt_h,final_acc\n",
    );

    for (dataset, model) in pairs {
        let cfg0 = common::setup(dataset, model, gluefl_core::StrategyConfig::FedAvg, opts);
        let strategies = common::paper_strategies(cfg0.round_size, model);
        let results: Vec<RunResult> = strategies
            .iter()
            .map(|s| {
                let cfg = common::setup(dataset, model, s.clone(), opts);
                common::run_config(cfg)
            })
            .collect();
        let target = common::common_target(&results);
        let results = common::with_target(results, target);
        for r in &results {
            emit_row(&mut table, &mut csv, dataset, model, r, target, &cfg0, opts);
        }
        println!(
            "  {} / {}: common target accuracy {:.1}%",
            dataset.name(),
            model.name(),
            target * 100.0
        );
    }
    write_csv(&opts.out_dir, "table2.csv", &csv);
    println!("{}", table.render());
    println!("{}", common::CENSORED_NOTE);
    println!(
        "paper check: GlueFL has the lowest DV and DT in every row; STC/APF \
         beat FedAvg on TV but not on DV"
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit_row(
    table: &mut Table,
    csv: &mut String,
    dataset: DatasetProfile,
    model: DatasetModel,
    r: &RunResult,
    target: f64,
    cfg: &SimConfig,
    opts: &ExptOpts,
) {
    let dv = common::display_gb(r.at_target.down_bytes, cfg, opts);
    let tv = common::display_gb(r.at_target.total_bytes, cfg, opts);
    let dt = common::hours(r.at_target.download_secs);
    let tt = common::hours(r.at_target.total_secs);
    let reached = r.target_round.is_some();
    table.row([
        dataset.name().to_owned(),
        model.name().to_owned(),
        r.strategy.clone(),
        format!("{:.1}%", target * 100.0),
        format!("{dv:.3}"),
        format!("{tv:.3}"),
        format!("{dt:.4}"),
        format!("{tt:.4}"),
        common::reached_cell(r),
    ]);
    csv.push_str(&format!(
        "{},{},{},{:.4},{},{},{},{:.4},{:.4},{:.3},{:.3},{:.4}\n",
        dataset.name(),
        model.name(),
        r.strategy,
        target,
        reached,
        common::censored(r),
        r.target_round.map_or(String::new(), |t| t.to_string()),
        dv,
        tv,
        dt,
        tt,
        r.total.accuracy,
    ));
}
