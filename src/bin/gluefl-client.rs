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
//! simulator. `--metrics-out` enables client-side telemetry (per-kind
//! byte counters, Train/Encode phase spans) and dumps the final
//! snapshot to a file.
//!
//! [`SimConfig`]: gluefl_suite::core::SimConfig

use gluefl_suite::telemetry::{Field, Level, LogFormat, Logger, Telemetry};
use gluefl_suite::transport::{run_client_traced, smoke_config};
use std::sync::Arc;

const USAGE: &str = "usage: gluefl-client --addr HOST:PORT --id N [--strategy S] [--clients N] \
     [--rounds R] [--seed S] [--log-format text|json] [--log-level L] [--metrics-out FILE]";

/// A flag's value, or its default when absent; a malformed or missing
/// value ends the process with the message, the usage line and status 2.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    gluefl_suite::parse_flag(args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = parse_flag(&args, "--addr", String::new());
    let id: usize = parse_flag(&args, "--id", usize::MAX);
    let strategy: String = parse_flag(&args, "--strategy", "gluefl".to_string());
    let clients: usize = parse_flag(&args, "--clients", 8);
    let rounds: u32 = parse_flag(&args, "--rounds", 3);
    let seed: u64 = parse_flag(&args, "--seed", 42);
    let format: LogFormat = parse_flag(&args, "--log-format", LogFormat::Text);
    let level: Level = parse_flag(&args, "--log-level", Level::Info);
    let metrics_out: String = parse_flag(&args, "--metrics-out", String::new());
    let log = Logger::stdout(level, format);
    if addr.is_empty() || id == usize::MAX {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let tel = (!metrics_out.is_empty()).then(|| Arc::new(Telemetry::new()));
    let cfg = smoke_config(&strategy, clients, rounds, seed).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
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
