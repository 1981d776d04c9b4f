//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! expt <id> [--rounds N] [--scale F] [--seed N] [--out DIR] [--paper-scale] [--quick]
//!           [--wire SPEC]
//! ```
//!
//! `<id>` is one of: fig1, fig2, table2, fig5, fig6, fig7, fig8, fig9,
//! fig10, fig11, table3a, table3b, prop12, wire, scale, or `all`.

use gluefl_bench::{experiments, ExptOpts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!(
            "usage: expt <experiment> [--rounds N] [--scale F] [--seed N] \
             [--out DIR] [--paper-scale] [--quick] [--wire SPEC]\n\
             experiments: {} | all",
            experiments::ALL.join(" | ")
        );
        std::process::exit(2);
    }
    let id = args[0].clone();
    let opts = match ExptOpts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let start = std::time::Instant::now();
    if let Err(e) = experiments::run(&id, &opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("\n[{} completed in {:.1?}]", id, start.elapsed());
}
