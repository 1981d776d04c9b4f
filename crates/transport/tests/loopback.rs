//! The headline acceptance gate: a real-socket run over loopback TCP
//! must reproduce the in-process [`Simulation`] **bit-exactly** — same
//! per-round invitations, keep sets, changed-position counts (mask
//! identity), measured wire bytes, and eval metrics (aggregate
//! identity), compared via `RoundRecord: PartialEq`, plus an FNV
//! fingerprint over the final parameter bits.
//!
//! 25 clients, 6 rounds, eval every 2 — comfortably past the ≥20-client
//! / ≥5-round bar — once per strategy and upload-variant family.

use gluefl_core::{Simulation, WirePolicy};
use gluefl_telemetry::Telemetry;
use gluefl_transport::{
    fnv1a_f32_bits, run_client, run_client_traced, smoke_config, Server, ServerConfig,
};
use gluefl_wire::Codec;
use std::sync::Arc;

const CLIENTS: usize = 25;
const ROUNDS: u32 = 6;

fn assert_loopback_matches_simulator(strategy: &str, seed: u64) {
    assert_loopback_matches_simulator_with(strategy, seed, WirePolicy::default());
}

fn assert_loopback_matches_simulator_with(strategy: &str, seed: u64, wire: WirePolicy) {
    let mut cfg = smoke_config(strategy, CLIENTS, ROUNDS, seed);
    cfg.eval_every = 2;
    cfg.wire = wire;

    // In-process reference run.
    let mut sim = Simulation::new(cfg.clone());
    let expected: Vec<_> = (0..ROUNDS).map(|_| sim.step()).collect();
    let expected_fnv = fnv1a_f32_bits(sim.model().params());

    // The same run over real sockets.
    let server = Server::bind(cfg.clone(), ServerConfig::local(CLIENTS)).expect("bind");
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || run_client(&addr, cfg, id))
        })
        .collect();
    let report = server.run().expect("server run completes");
    for (id, handle) in clients.into_iter().enumerate() {
        handle
            .join()
            .expect("client thread does not panic")
            .unwrap_or_else(|e| panic!("client {id} failed: {e}"));
    }

    assert_eq!(report.dead_clients, 0, "no client may be declared dead");
    assert_eq!(report.skipped_uploads, 0, "no upload may be skipped");
    assert_eq!(report.records.len(), expected.len());
    for (got, want) in report.records.iter().zip(expected.iter()) {
        assert_eq!(
            got, want,
            "round {} diverged from the simulator",
            want.round
        );
    }
    assert_eq!(
        report.final_params_fnv, expected_fnv,
        "final global parameters diverged bit-wise"
    );
}

#[test]
fn loopback_matches_simulator_gluefl() {
    assert_loopback_matches_simulator("gluefl", 42);
}

#[test]
fn loopback_matches_simulator_fedavg() {
    assert_loopback_matches_simulator("fedavg", 7);
}

/// Multinomial draws collapse into one invitation per client with a
/// multiplicity weight, so MD-FedAvg fits the one-slot-per-connection
/// protocol like every other strategy.
#[test]
fn loopback_matches_simulator_md_fedavg() {
    assert_loopback_matches_simulator("md", 19);
}

#[test]
fn loopback_matches_simulator_stc() {
    assert_loopback_matches_simulator("stc", 11);
}

#[test]
fn loopback_matches_simulator_stc_quantized() {
    assert_loopback_matches_simulator("stc-quant", 13);
}

#[test]
fn loopback_matches_simulator_apf() {
    assert_loopback_matches_simulator("apf", 17);
}

/// The entropy layouts (delta-varint indices, RLE mask sections) change
/// the bytes on the wire — including the broadcast's mask frame — but
/// the socket run must still pin the simulator bit-exactly, measured
/// bytes included.
#[test]
fn loopback_matches_simulator_gluefl_entropy() {
    assert_loopback_matches_simulator_with("gluefl", 23, WirePolicy::entropy(Codec::F32));
}

/// Quantized values + entropy layouts + codec-residual feedback into
/// error compensation: the feedback fires only for granted uploads with
/// seeds both drivers derive identically, so loopback stays bit-exact.
#[test]
fn loopback_matches_simulator_gluefl_entropy_quant() {
    assert_loopback_matches_simulator_with("gluefl", 29, WirePolicy::entropy(Codec::QuantU8));
}

/// STC's sparse f32 path under QuantU8 with codec-residual feedback.
#[test]
fn loopback_matches_simulator_stc_quant_codec() {
    assert_loopback_matches_simulator_with("stc", 31, WirePolicy::legacy(Codec::QuantU8));
}

/// Telemetry on BOTH sides — the simulator's phase spans and the
/// server's/clients' network recorders — must not perturb the
/// computation: the socket run still pins the simulator bit-exactly.
/// (`RoundRecord`'s equality deliberately ignores the measured timing
/// fields; everything else must still match to the bit.) The recorders
/// must also have actually recorded: every round carries phase spans
/// and the server saw upload bytes.
#[test]
fn loopback_matches_simulator_with_telemetry_enabled() {
    let mut cfg = smoke_config("gluefl", CLIENTS, ROUNDS, 37);
    cfg.eval_every = 2;

    let sim_tel = Arc::new(Telemetry::new());
    let mut sim = Simulation::new(cfg.clone()).with_telemetry(Arc::clone(&sim_tel));
    let expected: Vec<_> = (0..ROUNDS).map(|_| sim.step()).collect();
    let expected_fnv = fnv1a_f32_bits(sim.model().params());

    let srv_tel = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(CLIENTS);
    net.telemetry = Some(Arc::clone(&srv_tel));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let addr = addr.clone();
            let cfg = cfg.clone();
            let tel = Arc::new(Telemetry::new());
            std::thread::spawn(move || run_client_traced(&addr, cfg, id, Some(tel)))
        })
        .collect();
    let report = server.run().expect("server run completes");
    for (id, handle) in clients.into_iter().enumerate() {
        handle
            .join()
            .expect("client thread does not panic")
            .unwrap_or_else(|e| panic!("client {id} failed: {e}"));
    }

    assert_eq!(report.dead_clients, 0);
    assert_eq!(report.skipped_uploads, 0);
    assert_eq!(report.records.len(), expected.len());
    for (got, want) in report.records.iter().zip(expected.iter()) {
        assert_eq!(got, want, "round {} diverged under telemetry", want.round);
    }
    assert_eq!(report.final_params_fnv, expected_fnv);

    use gluefl_telemetry::Phase;
    assert!(sim_tel.phase_nanos(Phase::Train) > 0, "simulator recorded");
    let snap = srv_tel.snapshot();
    let upload_bytes = snap
        .value(
            "gluefl_server_bytes_total",
            &[("dir", "up"), ("frame", "upload")],
        )
        .unwrap_or(0.0);
    assert!(upload_bytes > 0.0, "server recorded upload bytes");
}
