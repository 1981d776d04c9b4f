//! Experiment harness regenerating every table and figure of the paper.
//!
//! The root package's `expt` binary dispatches on an experiment id
//! (`fig1`, `fig2`, `table2`, `fig5`–`fig11`, `table3a`, `table3b`,
//! `prop12`, `wire`, `scale`) through [`experiments::run`]; each
//! experiment prints a paper-style table to stdout and writes CSV under
//! `results/`.
//!
//! Every simulation runs at the paper's client population; `--rounds`
//! (150 by default) sets the training length and `--paper-scale` reports
//! bytes at the paper's model sizes. Each experiment takes only the
//! flags it reads ([`experiments::flags`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod opts;
pub mod plot;
mod report;

pub use opts::{parse_wire_policy, ExptOpts};
pub use report::{format_table, write_csv, Table};
