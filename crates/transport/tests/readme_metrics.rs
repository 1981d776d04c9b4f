//! README's metric-family table lists exactly the families the program
//! exports: a traced [`Simulation`] plus a traced loopback run with the
//! server and every client recording. A family added, renamed or
//! retired without the table following fails here.

use gluefl_core::Simulation;
use gluefl_telemetry::{Snapshot, Telemetry};
use gluefl_transport::{run_client_traced, smoke_config, Server, ServerConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

const README: &str = include_str!("../../../README.md");
const CLIENTS: usize = 8;
const ROUNDS: u32 = 2;

/// Families registered on their first occurrence, which a clean run
/// never reaches (the adversarial suite emits them).
const ON_FIRST_ERROR: &[&str] = &["gluefl_server_decode_errors_total"];

/// The backticked names in the first column of the table headed
/// `| Family | Labels | Meaning |`.
fn documented() -> BTreeSet<String> {
    let table = README
        .lines()
        .skip_while(|l| !l.starts_with("| Family | Labels | Meaning |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    let mut names = BTreeSet::new();
    for row in table {
        let family = row.split('|').nth(1).expect("a family column");
        names.extend(family.split('`').skip(1).step_by(2).map(str::to_string));
    }
    assert!(!names.is_empty(), "README has no metric-family table");
    names
}

/// A histogram exports its family under these suffixes.
fn family(sample: &str) -> &str {
    ["_bucket", "_count", "_sum", "_min", "_max"]
        .iter()
        .find_map(|s| sample.strip_suffix(s))
        .unwrap_or(sample)
}

fn emitted(snapshots: &[Snapshot]) -> BTreeSet<String> {
    snapshots
        .iter()
        .flat_map(|s| &s.samples)
        .map(|s| family(&s.name).to_string())
        .collect()
}

#[test]
fn readme_metric_table_matches_the_exported_families() {
    let cfg = smoke_config("gluefl", CLIENTS, ROUNDS, 5).expect("valid smoke config");

    let sim_tel = Arc::new(Telemetry::new());
    let mut sim = Simulation::new(cfg.clone()).with_telemetry(Arc::clone(&sim_tel));
    for _ in 0..ROUNDS {
        sim.step();
    }

    let srv_tel = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(CLIENTS);
    net.telemetry = Some(Arc::clone(&srv_tel));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let (addr, cfg) = (addr.clone(), cfg.clone());
            let tel = Arc::new(Telemetry::new());
            let client_tel = Arc::clone(&tel);
            let handle =
                std::thread::spawn(move || run_client_traced(&addr, cfg, id, Some(client_tel)));
            (handle, tel)
        })
        .collect();
    let report = server.run().expect("server run completes");
    assert_eq!((report.skipped_uploads, report.dead_clients), (0, 0));

    let mut snapshots = vec![sim_tel.snapshot(), srv_tel.snapshot()];
    for (id, (handle, tel)) in clients.into_iter().enumerate() {
        handle
            .join()
            .expect("client thread does not panic")
            .unwrap_or_else(|e| panic!("client {id} failed: {e}"));
        snapshots.push(tel.snapshot());
    }

    let mut exported = emitted(&snapshots);
    exported.extend(ON_FIRST_ERROR.iter().map(|s| s.to_string()));
    let documented = documented();
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let unexported: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty() && unexported.is_empty(),
        "README's metric table drifted: exported but not listed {undocumented:?}; \
         listed but not exported {unexported:?}"
    );
}
