//! `expt`: regenerates the paper's tables and figures.
//!
//! ```text
//! expt <experiment> [--rounds N] [--seed N] [--out DIR] [--wire SPEC]
//!                   [--quick] [--paper-scale]
//! ```
//!
//! `<experiment>` is one of: fig1, fig2, table2, fig5, fig6, fig7, fig8,
//! fig9, fig10, fig11, table3a, table3b, prop12, wire, scale, or `all`.
//! Every simulation runs at the paper's client population; `--quick`
//! caps the rounds at 20 and picks the experiment's smaller sweep. Each
//! experiment takes only the flags it reads
//! ([`gluefl_bench::experiments::flags`]), which `expt <experiment>
//! --help` lists. A missing or unknown experiment, any other flag, a
//! repeated flag or a malformed value exits 2 before anything runs.

use gluefl_bench::{experiments, parse_wire_policy, ExptOpts};
use gluefl_suite::CommandLine;

/// The `expt` flags that never take a value.
const SWITCHES: &[&str] = &["--quick", "--paper-scale"];

/// The usage line of `expt <id>` taking `flags`.
fn usage(id: &str, flags: &[&str]) -> String {
    let shown: Vec<String> = flags
        .iter()
        .map(|&flag| match flag {
            "--out" => "[--out DIR]".to_owned(),
            "--wire" => "[--wire SPEC]".to_owned(),
            switch if SWITCHES.contains(&switch) => format!("[{switch}]"),
            flag => format!("[{flag} N]"),
        })
        .collect();
    format!("usage: expt {id} {}", shown.join(" "))
}

fn main() {
    let id = std::env::args().nth(1).unwrap_or_default();
    let Some(flags) = experiments::flags(&id) else {
        let all = experiments::flags("all").unwrap_or_default();
        let ids: Vec<&str> = experiments::ids().collect();
        let usage = format!(
            "{}\nexperiments: {} | all (expt <experiment> --help lists its flags)",
            usage("<experiment>", all),
            ids.join(" | ")
        );
        // Checked against no flags, `--help` exits 0 and an unknown id
        // exits 2 naming it; only an empty command line gets here.
        CommandLine::parse(std::env::args().skip(1), &[], &[], &usage).refuse("no experiment given")
    };
    let cli = CommandLine::parse(
        std::env::args().skip(2),
        flags,
        SWITCHES,
        &usage(&id, flags),
    );
    let defaults = ExptOpts::default();
    let quick = cli.switch("--quick");
    let rounds: u32 = cli.flag("--rounds", defaults.rounds);
    if rounds == 0 {
        cli.refuse("--rounds must be positive");
    }
    let opts = ExptOpts {
        rounds: if quick { rounds.min(20) } else { rounds },
        seed: cli.flag("--seed", defaults.seed),
        out_dir: cli.flag("--out", defaults.out_dir),
        paper_scale: cli.switch("--paper-scale"),
        quick,
        wire: parse_wire_policy(&cli.flag("--wire", "legacy-f32".to_owned()))
            .unwrap_or_else(|e| cli.refuse(&e)),
    };
    let start = std::time::Instant::now();
    if let Err(e) = experiments::run(&id, &opts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    eprintln!("\n[{} completed in {:.1?}]", id, start.elapsed());
}
