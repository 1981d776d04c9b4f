//! The socket driver plays the reference round of `gluefl-core`'s
//! `tests/reference/`, bit for bit. Each case runs [`Server`] over
//! loopback TCP, one client per thread, beside the [`Player`] that holds
//! the in-process driver to the reference, compares every round, and
//! after `FIN` compares every client's banked residual, that of a client
//! that was only ever dismissed included.

// The in-process driver's entry point goes unused here.
#[allow(dead_code)]
#[path = "../../core/tests/plays_reference/mod.rs"]
mod plays_reference;
#[path = "../../core/tests/reference/mod.rs"]
mod reference;

use crate::client::{serve, ClientNode};
use crate::{smoke_config, Server, ServerConfig};
use gluefl_core::{SimConfig, WirePolicy};
use gluefl_telemetry::{Phase, Telemetry};
use gluefl_wire::Codec;
use plays_reference::{strategies, tiny, Player};
use std::sync::Arc;

/// Runs `cfg` over loopback sockets beside the reference, and asserts
/// that they agree on every round and, at the end, on every client's
/// residual; `tel` holds the server's and the clients' telemetry hubs.
fn assert_sockets_play_reference(cfg: &SimConfig, tel: Option<[&Arc<Telemetry>; 2]>) {
    let n = cfg.dataset.clients;
    let mut net = ServerConfig::local(n);
    net.telemetry = tel.map(|[server, _]| Arc::clone(server));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = (0..n)
        .map(|id| {
            let (addr, cfg) = (addr.clone(), cfg.clone());
            let tel = tel.map(|[_, clients]| Arc::clone(clients));
            std::thread::spawn(move || serve(&addr, cfg, id, tel))
        })
        .collect();
    let mut player = Player::new(cfg, None);
    let report = server
        .run_with(|engine, io| player.step(engine, io))
        .expect("server run completes");
    let nodes: Vec<ClientNode> = clients
        .into_iter()
        .enumerate()
        .map(|(id, handle)| {
            let node = handle.join().expect("client thread does not panic");
            node.unwrap_or_else(|e| panic!("client {id} failed: {e}"))
        })
        .collect();
    player.banks("after the run", n, |id| nodes[id].stored());
    player.assert_played();
    let lost = (report.dead_clients, report.skipped_uploads);
    assert_eq!(lost, (0, 0), "no client dies and no upload is skipped");
}

/// One test per smoke configuration of the CLI binaries
/// ([`smoke_config`]: 25 clients, 6 rounds), evaluated every 2 rounds.
macro_rules! smoke_runs {
    ($($test:ident: $strategy:literal, $seed:literal, $wire:expr;)*) => {$(
        #[test]
        fn $test() {
            let mut cfg = smoke_config($strategy, 25, 6, $seed).expect("valid smoke config");
            (cfg.eval_every, cfg.wire) = (2, $wire);
            assert_sockets_play_reference(&cfg, None);
        }
    )*};
}

// MD-FedAvg's multinomial draws collapse into one invitation per client
// with a multiplicity weight. The entropy layouts change the bytes on the
// wire, the broadcast's mask frame included. Under QuantU8 only a granted
// upload folds its codec residual back into its bank.
smoke_runs! {
    sockets_play_the_reference_gluefl: "gluefl", 42, WirePolicy::default();
    sockets_play_the_reference_fedavg: "fedavg", 7, WirePolicy::default();
    sockets_play_the_reference_md_fedavg: "md", 19, WirePolicy::default();
    sockets_play_the_reference_stc: "stc", 11, WirePolicy::default();
    sockets_play_the_reference_stc_quantized: "stc-quant", 13, WirePolicy::default();
    sockets_play_the_reference_apf: "apf", 17, WirePolicy::default();
    sockets_play_the_reference_gluefl_entropy: "gluefl", 23, WirePolicy::entropy(Codec::F32);
    sockets_play_the_reference_gluefl_entropy_quant:
        "gluefl", 29, WirePolicy::entropy(Codec::QuantU8);
    sockets_play_the_reference_stc_quant_codec: "stc", 31, WirePolicy::legacy(Codec::QuantU8);
}

/// Telemetry on the server and on every client changes no bit, and the
/// recorders record: the engine's fold and the clients' training spans,
/// and the upload bytes the server received and the clients sent.
#[test]
fn sockets_play_the_reference_with_telemetry_enabled() {
    let (server, clients) = (Arc::new(Telemetry::new()), Arc::new(Telemetry::new()));
    let mut cfg = smoke_config("gluefl", 25, 6, 37).expect("valid smoke config");
    cfg.eval_every = 2;
    assert_sockets_play_reference(&cfg, Some([&server, &clients]));
    let upload = [("dir", "up"), ("frame", "upload")];
    let bytes = |hub: &Telemetry, family| hub.snapshot().value(family, &upload);
    let recorded = [
        server.phase_nanos(Phase::Fold) as f64,
        clients.phase_nanos(Phase::Train) as f64,
        bytes(&server, "gluefl_server_bytes_total").unwrap_or(0.0),
        bytes(&clients, "gluefl_client_bytes_total").unwrap_or(0.0),
    ];
    let what = "fold and training nanoseconds, server and client upload bytes";
    assert!(recorded.iter().all(|&r| r > 0.0), "{what}: {recorded:?}");
}

/// Every strategy with churn and without, at over-commitment 1.0 for one
/// run and 1.3 for the other, so each pair of the two occurs; the wire
/// policies take turns. 48 clients: past the listener's backlog of 128,
/// a client that connects with all the others waits out a SYN retry.
#[test]
fn every_strategy_plays_the_reference_over_sockets() {
    let wires = [
        WirePolicy::legacy(Codec::F32),
        WirePolicy::entropy(Codec::F32),
        WirePolicy::legacy(Codec::F16),
        WirePolicy::legacy(Codec::QuantU8),
    ];
    let mut seed = 500;
    for (i, strategy) in strategies().into_iter().enumerate() {
        let ocs = if i % 2 == 0 { [1.0, 1.3] } else { [1.3, 1.0] };
        for (churn, oc) in [true, false].into_iter().zip(ocs) {
            let mut cfg = tiny(strategy.clone(), wires[seed as usize % 4], seed);
            cfg.availability = cfg.availability.filter(|_| churn);
            (cfg.oc, cfg.dataset.clients) = (oc, 48);
            assert_sockets_play_reference(&cfg, None);
            seed += 1;
        }
    }
}
