//! The round engine under a scripted IO: no sockets, no sleeps.
//!
//! [`Scripted`] wraps the in-process clients and decides what the engine
//! gets to see of them: it withholds one invited client's offer, hands
//! over garbage instead of one granted upload, and delivers the rest in
//! a chosen order. The engine must complete every round, skip exactly
//! the corrupted slot, and land on the same parameters — bit for bit —
//! whatever the delivery order, run after run.

use gluefl_core::engine::{Arrival, Broadcast, RoundEngine, RoundIo};
use gluefl_core::strategies::Group;
use gluefl_core::{
    GlueFlParams, InProcessClients, RoundRecord, RunSetup, SimConfig, StrategyConfig,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_net::timing::ClientRoundTime;
use gluefl_wire::WireError;
use std::collections::VecDeque;

const ROUNDS: u32 = 4;

/// In-process clients with a fault script between them and the engine.
struct Scripted {
    clients: InProcessClients,
    reverse: bool,
    /// The invitation index whose offer is withheld (the last one).
    silent: usize,
    /// The round's arrivals, collected from the clients up front (they
    /// deliver in ascending client-id order).
    queue: VecDeque<(usize, Vec<u8>)>,
    collected: bool,
    rejected: Vec<(u32, usize)>,
}

impl RoundIo for Scripted {
    fn reachable(&self, id: usize) -> bool {
        self.clients.reachable(id)
    }

    fn invite(&mut self, round: u32, invited: &[(usize, Group)], broadcast: &Broadcast<'_>) {
        self.silent = invited.len() - 1;
        self.collected = false;
        self.clients.invite(round, invited, broadcast);
    }

    fn offers(&mut self, round: u32, times: &[ClientRoundTime], offers: &mut [Option<(u64, u64)>]) {
        self.clients.offers(round, times, offers);
        offers[self.silent] = None; // (a) one client never answers
    }

    fn grant(&mut self, round: u32, kept: &[usize], times: &[ClientRoundTime]) {
        assert!(
            !kept.contains(&self.silent),
            "a client without an offer must lose to the over-committed spares"
        );
        self.clients.grant(round, kept, times);
    }

    fn next_upload(&mut self, round: u32, payload: &mut Vec<u8>) -> Option<Arrival> {
        if !self.collected {
            self.collected = true;
            let mut buf = Vec::new();
            while let Some(Arrival::Delivered(i)) = self.clients.next_upload(round, &mut buf) {
                self.queue.push_back((i, std::mem::take(&mut buf)));
            }
            // (b) the lowest granted slot delivers bytes that are no frame.
            let victim = self.queue.iter_mut().min_by_key(|(i, _)| *i).expect("kept");
            victim.1 = vec![0xA5; 64];
        }
        // (c) the rest arrive in the scripted order.
        let (i, bytes) = if self.reverse {
            self.queue.pop_back()?
        } else {
            self.queue.pop_front()?
        };
        *payload = bytes;
        Some(Arrival::Delivered(i))
    }

    fn rejected(&mut self, round: u32, slot: usize, _err: &WireError) {
        self.rejected.push((round, slot));
    }
}

fn tiny_gluefl() -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::FedAvg,
        0.02,
        ROUNDS,
        7,
    );
    let k = cfg.round_size;
    cfg.strategy = StrategyConfig::GlueFl(GlueFlParams {
        q: 0.2,
        q_shr: 0.16,
        sticky_group: 4 * k,
        sticky_draw: 4 * k / 5,
        regen_interval: Some(2),
        compensation: gluefl_compress::CompensationMode::Rescaled,
        equal_weights: false,
    });
    cfg.model.hidden = vec![16];
    cfg.dataset.feature_dim = 12;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 200;
    cfg.availability = None;
    cfg
}

/// Runs every round under the fault script; returns the records and the
/// final parameter bits.
fn run_scripted(reverse: bool) -> (Vec<RoundRecord>, Vec<u32>) {
    let cfg = tiny_gluefl();
    let keep = cfg.round_size;
    let setup = RunSetup::new(&cfg);
    let mut io = Scripted {
        clients: InProcessClients::new(&cfg, &setup),
        reverse,
        silent: 0,
        queue: VecDeque::new(),
        collected: false,
        rejected: Vec::new(),
    };
    let mut engine = RoundEngine::new(cfg, setup);
    let mut records = Vec::new();
    for round in 0..ROUNDS {
        let rec = engine.step(&mut io);
        assert_eq!(rec.kept, keep, "round {round}: the keep set must stay full");
        assert!(rec.invited > keep, "over-commitment provides the spares");
        assert_eq!(
            engine.skipped_uploads(),
            round as usize + 1,
            "round {round}: exactly the corrupted slot is skipped"
        );
        assert_eq!(io.rejected.len(), round as usize + 1);
        assert_eq!(io.rejected[round as usize].0, round);
        assert!(
            rec.changed_positions > 0,
            "the survivors still move the model"
        );
        records.push(rec);
    }
    let bits = engine
        .model()
        .params()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (records, bits)
}

#[test]
fn faulty_rounds_complete_identically_in_any_delivery_order() {
    let (forward_recs, forward_bits) = run_scripted(false);
    let (reverse_recs, reverse_bits) = run_scripted(true);
    assert_eq!(forward_recs, reverse_recs);
    assert_eq!(
        forward_bits, reverse_bits,
        "delivery order changed the parameters"
    );
    let (again_recs, again_bits) = run_scripted(true);
    assert_eq!(reverse_recs, again_recs);
    assert_eq!(reverse_bits, again_bits, "two identical runs diverged");
}
