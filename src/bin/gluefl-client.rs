//! `gluefl-client`: one federated participant over TCP.
//!
//! ```text
//! gluefl-client --addr 127.0.0.1:PORT --id N [--strategy gluefl]
//!               [--clients 8] [--rounds 3] [--seed 42]
//!               [--log-format text|json] [--log-level info]
//!               [--metrics-out FILE]
//! ```
//!
//! The config flags must match the server's — both sides derive the
//! dataset, model init, and training seeds from the same [`SimConfig`],
//! which is what makes the run bit-identical to the in-process
//! simulator. `--id` must be below `--clients`. `--metrics-out` enables
//! client-side telemetry (per-kind byte counters, one Train phase span
//! around each granted turn) and dumps the final snapshot to a file.
//! `--help` prints the usage line; a missing `--addr` or `--id`, an
//! unknown or repeated argument, a malformed value or an `--id` outside
//! the population exits 2 before connecting.
//!
//! [`SimConfig`]: gluefl_suite::core::SimConfig

use gluefl_suite::telemetry::{Field, Level, LogFormat, Logger, Telemetry};
use gluefl_suite::transport::{run_client_traced, smoke_config};
use gluefl_suite::CommandLine;
use std::sync::Arc;

const USAGE: &str = "usage: gluefl-client --addr HOST:PORT --id N [--strategy S] [--clients N] \
     [--rounds R] [--seed S] [--log-format text|json] [--log-level L] [--metrics-out FILE]";

const FLAGS: &[&str] = &[
    "--addr",
    "--id",
    "--strategy",
    "--clients",
    "--rounds",
    "--seed",
    "--log-format",
    "--log-level",
    "--metrics-out",
];

fn main() {
    let cli = CommandLine::parse(std::env::args().skip(1), FLAGS, &[], USAGE);
    let addr: String = cli.flag("--addr", String::new());
    let id: usize = cli.flag("--id", usize::MAX);
    let strategy: String = cli.flag("--strategy", "gluefl".to_string());
    let clients: usize = cli.flag("--clients", 8);
    let rounds: u32 = cli.flag("--rounds", 3);
    let seed: u64 = cli.flag("--seed", 42);
    let format: LogFormat = cli.flag("--log-format", LogFormat::Text);
    let level: Level = cli.flag("--log-level", Level::Info);
    let metrics_out: String = cli.flag("--metrics-out", String::new());
    let log = Logger::stdout(level, format);
    if addr.is_empty() {
        cli.refuse("--addr is required");
    }
    if id == usize::MAX {
        cli.refuse("--id is required");
    }
    if id >= clients {
        cli.refuse(&format!("--id {id} is outside a population of {clients}"));
    }
    let tel = (!metrics_out.is_empty()).then(|| Arc::new(Telemetry::new()));
    let cfg = smoke_config(&strategy, clients, rounds, seed).unwrap_or_else(|e| cli.refuse(&e));
    if let Err(e) = run_client_traced(&addr, cfg, id, tel.clone()) {
        log.error(
            "client failed",
            &[
                ("id", Field::U64(id as u64)),
                ("error", Field::Str(&e.to_string())),
            ],
        );
        std::process::exit(1);
    }
    if let Some(tel) = &tel {
        let text = tel.snapshot().render_text();
        if let Err(e) = std::fs::write(&metrics_out, text) {
            log.error(
                "metrics write failed",
                &[
                    ("path", Field::Str(&metrics_out)),
                    ("error", Field::Str(&e.to_string())),
                ],
            );
            std::process::exit(1);
        }
    }
    log.info("client done", &[("id", Field::U64(id as u64))]);
}
