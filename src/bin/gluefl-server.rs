//! `gluefl-server`: orchestrate a real-socket federated run.
//!
//! ```text
//! gluefl-server [--addr 127.0.0.1:0] [--strategy gluefl] [--clients 8]
//!               [--rounds 3] [--seed 42] [--offer-timeout-secs 30]
//!               [--upload-timeout-secs 30]
//!               [--log-format text|json] [--log-level info]
//!               [--metrics-addr 127.0.0.1:0] [--metrics-out FILE]
//! ```
//!
//! Prints the bound address first (so scripts can launch clients against
//! port 0), then one structured log line per round, then the final
//! parameter checksum. `--metrics-addr` serves the Prometheus-style text
//! exposition over HTTP for the duration of the run; `--metrics-out`
//! dumps the final snapshot to a file. Either flag enables telemetry;
//! without them the round loop runs with telemetry compiled out of the
//! hot path entirely. `--help` prints the usage line; an unknown or
//! repeated argument, a malformed value or a timeout over one day exits
//! 2 before binding.

use gluefl_suite::telemetry::{Field, Level, LogFormat, Logger, Telemetry};
use gluefl_suite::transport::{smoke_config, Server, ServerConfig};
use gluefl_suite::CommandLine;
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: gluefl-server [--addr HOST:PORT] [--strategy S] [--clients N] \
     [--rounds R] [--seed S] [--offer-timeout-secs T] [--upload-timeout-secs T] \
     [--log-format text|json] [--log-level L] [--metrics-addr HOST:PORT] [--metrics-out FILE]";

const FLAGS: &[&str] = &[
    "--addr",
    "--strategy",
    "--clients",
    "--rounds",
    "--seed",
    "--offer-timeout-secs",
    "--upload-timeout-secs",
    "--log-format",
    "--log-level",
    "--metrics-addr",
    "--metrics-out",
];

/// The longest offer or upload timeout accepted, one day: a deadline is
/// an `Instant` plus the timeout, and a value near `u64::MAX` seconds
/// overflows it mid-run.
const MAX_TIMEOUT_SECS: u64 = 86_400;

/// How long one scrape connection may hold the metrics thread: it serves
/// connections one at a time, so a peer that never sends (or never
/// reads) must not stall every later scrape.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Serves `GET /metrics` (or any request) with the hub's current text
/// exposition until the process exits. Returns the bound address.
fn serve_metrics(addr: &str, tel: Arc<Telemetry>) -> std::io::Result<String> {
    let listener = std::net::TcpListener::bind(addr)?;
    let bound = listener.local_addr()?.to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
            // Drain the request line; the response is the same either way,
            // even when the read times out.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = tel.snapshot().render_text();
            let _ = write!(
                stream,
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
        }
    });
    Ok(bound)
}

fn main() {
    let cli = CommandLine::parse(std::env::args().skip(1), FLAGS, &[], USAGE);
    let addr: String = cli.flag("--addr", "127.0.0.1:0".to_string());
    let strategy: String = cli.flag("--strategy", "gluefl".to_string());
    let clients: usize = cli.flag("--clients", 8);
    let rounds: u32 = cli.flag("--rounds", 3);
    let seed: u64 = cli.flag("--seed", 42);
    let offer_secs: u64 = cli.flag("--offer-timeout-secs", 30);
    let upload_secs: u64 = cli.flag("--upload-timeout-secs", 30);
    for (flag, secs) in [
        ("--offer-timeout-secs", offer_secs),
        ("--upload-timeout-secs", upload_secs),
    ] {
        if secs > MAX_TIMEOUT_SECS {
            cli.refuse(&format!(
                "{flag} {secs} exceeds one day ({MAX_TIMEOUT_SECS} s)"
            ));
        }
    }
    let format: LogFormat = cli.flag("--log-format", LogFormat::Text);
    let level: Level = cli.flag("--log-level", Level::Info);
    let metrics_addr: String = cli.flag("--metrics-addr", String::new());
    let metrics_out: String = cli.flag("--metrics-out", String::new());
    let log = Logger::stdout(level, format);

    // Telemetry costs one untaken branch per phase boundary when off;
    // the metrics flags are the opt-in.
    let tel =
        (!metrics_addr.is_empty() || !metrics_out.is_empty()).then(|| Arc::new(Telemetry::new()));

    let cfg = smoke_config(&strategy, clients, rounds, seed).unwrap_or_else(|e| cli.refuse(&e));
    let mut net = ServerConfig::local(clients);
    net.addr = addr;
    net.offer_timeout = Duration::from_secs(offer_secs);
    net.upload_timeout = Duration::from_secs(upload_secs);
    net.telemetry = tel.clone();

    let server = match Server::bind(cfg, net) {
        Ok(s) => s,
        Err(e) => {
            log.error("bind failed", &[("error", Field::Str(&e.to_string()))]);
            std::process::exit(1);
        }
    };
    // First line of output: the resolved address, for client launchers.
    // This line is a plain-format contract (scripts grep `^listening `),
    // so it bypasses the structured logger.
    println!("listening {}", server.local_addr());
    if let Some(tel) = &tel {
        if !metrics_addr.is_empty() {
            match serve_metrics(&metrics_addr, Arc::clone(tel)) {
                Ok(bound) => log.info("metrics", &[("addr", Field::Str(&bound))]),
                Err(e) => {
                    log.error(
                        "metrics bind failed",
                        &[("error", Field::Str(&e.to_string()))],
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    match server.run() {
        Ok(report) => {
            for rec in &report.records {
                let acc = rec
                    .accuracy
                    .map_or_else(|| "-".to_string(), |a| format!("{a:.4}"));
                log.info(
                    "round",
                    &[
                        ("round", Field::U64(u64::from(rec.round))),
                        ("invited", Field::U64(rec.invited as u64)),
                        ("kept", Field::U64(rec.kept as u64)),
                        ("up_bytes", Field::U64(rec.up_bytes)),
                        ("wire_up_bytes", Field::U64(rec.wire_up_bytes)),
                        ("acc", Field::Str(&acc)),
                    ],
                );
            }
            log.info(
                "done",
                &[
                    ("strategy", Field::Str(&report.strategy)),
                    ("params_fnv", Field::Hex(report.final_params_fnv)),
                    ("skipped", Field::U64(report.skipped_uploads as u64)),
                    ("dead", Field::U64(report.dead_clients as u64)),
                ],
            );
            if let Some(tel) = &tel {
                if !metrics_out.is_empty() {
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
                    log.info("metrics written", &[("path", Field::Str(&metrics_out))]);
                }
            }
        }
        Err(e) => {
            log.error("server failed", &[("error", Field::Str(&e.to_string()))]);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn a_silent_connection_does_not_block_the_next_scrape() {
        let tel = Arc::new(Telemetry::new());
        // Registered on the hub as the server's recorder registers it,
        // before the handshake.
        let _granted = tel.counter("gluefl_server_offers_granted_total", &[]);
        let addr = serve_metrics("127.0.0.1:0", tel).unwrap();
        let _silent = TcpStream::connect(&addr).unwrap();
        let mut scrape = TcpStream::connect(&addr).unwrap();
        // Bounds the test itself: without the server's own timeout the
        // read below would wait on the silent connection forever.
        scrape
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        scrape
            .read_to_string(&mut response)
            .expect("the scrape is answered within 5 s");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("gluefl_server_offers_granted_total"));
    }
}
