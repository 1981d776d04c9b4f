//! One module per paper artifact (`fig*`, `table*`, `prop12`), plus the
//! wire-policy sweep (`wire`) and the control-plane scale run (`scale`).

pub mod common;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod prop12;
pub mod scale;
pub mod table2;
pub mod table3;
pub mod wire;

use crate::ExptOpts;

/// Every flag an experiment may read.
const EVERY: &[&str] = &[
    "--rounds",
    "--seed",
    "--out",
    "--wire",
    "--quick",
    "--paper-scale",
];
/// `fig9` reports seconds, not bytes.
const SECONDS: &[&str] = &["--rounds", "--seed", "--out", "--wire", "--quick"];
/// `wire` sets every arm's policy itself.
const OWN_WIRE: &[&str] = &["--rounds", "--seed", "--out", "--quick"];
/// The flags of the experiments that run no simulation.
const NO_SIM: &[&str] = &["--seed", "--out", "--quick"];

type Run = fn(&ExptOpts) -> Result<(), String>;

/// Every experiment in the paper's order: its id, its run, and the flags
/// it reads, directly or through [`common::setup`] (`--rounds`, which
/// `--quick` caps, `--seed`, `--wire`), [`common::display_gb`]
/// (`--paper-scale`) and [`common::sensitivity_pairs`] (`--quick`).
const EXPERIMENTS: &[(&str, Run, &[&str])] = &[
    ("fig1", fig1::run, NO_SIM),
    ("fig2", fig2::run, EVERY),
    ("table2", table2::run, EVERY),
    ("fig5", fig5::run, EVERY),
    ("fig6", fig6::run, EVERY),
    ("fig7", fig7::run, EVERY),
    ("fig8", fig8::run, EVERY),
    ("fig9", fig9::run, SECONDS),
    ("fig10", fig10::run, EVERY),
    ("fig11", fig11::run, EVERY),
    ("table3a", table3::run_3a, EVERY),
    ("table3b", table3::run_3b, EVERY),
    ("prop12", prop12::run, NO_SIM),
    ("wire", wire::run, OWN_WIRE),
    ("scale", scale::run, NO_SIM),
];

/// All experiment ids, in the paper's order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(id, ..)| *id)
}

/// The flags experiment `id` reads (`all` takes their union), or `None`
/// for an unknown id. `expt` refuses every other flag, so none is
/// ignored silently.
#[must_use]
pub fn flags(id: &str) -> Option<&'static [&'static str]> {
    if id == "all" {
        return Some(EVERY);
    }
    EXPERIMENTS.iter().find(|(i, ..)| *i == id).map(|e| e.2)
}

/// Dispatches an experiment by id; `all` runs every one in order.
///
/// # Errors
/// Returns an error for unknown ids, or the first experiment's error.
pub fn run(id: &str, opts: &ExptOpts) -> Result<(), String> {
    if id == "all" {
        for (name, run, _) in EXPERIMENTS {
            println!("\n================ {name} ================");
            run(opts)?;
        }
        return Ok(());
    }
    let (_, run, _) = EXPERIMENTS
        .iter()
        .find(|(name, ..)| *name == id)
        .ok_or_else(|| format!("unknown experiment '{id}' (`expt --help` lists them)"))?;
    run(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_takes_the_union_of_the_experiments_flags() {
        let mut union: Vec<&str> = ids().flat_map(|id| flags(id).unwrap()).copied().collect();
        union.sort_unstable();
        union.dedup();
        let mut all = flags("all").unwrap().to_vec();
        all.sort_unstable();
        assert_eq!(union, all);
        assert_eq!(flags("tabel2"), None);
    }
}
