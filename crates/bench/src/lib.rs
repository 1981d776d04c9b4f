//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `expt` binary dispatches on an experiment id (`fig1`, `fig2`,
//! `table2`, `fig5`–`fig11`, `table3a`, `table3b`, `prop12`, `wire`,
//! `scale`); each experiment prints a paper-style table to stdout and
//! writes CSV under `results/`.
//!
//! Experiments default to laptop scale (a few percent of the paper's
//! client populations, hundreds of rounds); `--scale`, `--rounds`, and
//! `--paper-scale` restore paper fidelity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod opts;
pub mod plot;
mod report;

pub use opts::ExptOpts;
pub use report::{format_table, write_csv, Table};
