//! The round engine beside the paper's round: [`assert_engine_plays_reference`]
//! runs [`RoundEngine`] over the in-process clients, wrapped in an IO
//! that records what the engine decided, next to a
//! [`Reference`](super::reference::Reference), and compares the two after
//! every round; [`tiny`] and [`strategies`] are the runs it is fed.

use super::reference::Reference;
use gluefl_compress::{ApfConfig, CompensationMode};
use gluefl_core::engine::{Arrival, Broadcast, RoundEngine, RoundIo};
use gluefl_core::strategies::Group;
use gluefl_core::{AvailabilityConfig, GlueFlParams, InProcessClients, RunSetup, SimConfig};
use gluefl_core::{StrategyConfig, WirePolicy};
use gluefl_net::timing::ClientRoundTime;
use gluefl_sampling::ClientId;
use gluefl_wire::WireError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// GlueFL at `q = 0.25`, `q_shr = 0.2`, a sticky group of 24 drawing 4.
pub fn gluefl(regen: Option<u32>, equal: bool, compensation: CompensationMode) -> StrategyConfig {
    StrategyConfig::GlueFl(GlueFlParams {
        q: 0.25,
        q_shr: 0.2,
        sticky_group: 24,
        sticky_draw: 4,
        regen_interval: regen,
        compensation,
        equal_weights: equal,
    })
}

/// APF with a short warm-up and short periods, so positions freeze
/// within six rounds.
pub fn apf() -> StrategyConfig {
    let config = ApfConfig {
        threshold: 0.5,
        ema_beta: 0.5,
        initial_period: 1,
        max_period: 4,
        warmup_rounds: 1,
    };
    StrategyConfig::Apf { config }
}

/// Every strategy: the four baselines and GlueFL with and without
/// regeneration, with equal weights, and with raw error feedback.
pub fn strategies() -> [StrategyConfig; 8] {
    [
        StrategyConfig::FedAvg,
        StrategyConfig::MdFedAvg,
        StrategyConfig::Stc { q: 0.25 },
        StrategyConfig::StcQuantized { q: 0.25 },
        apf(),
        gluefl(Some(3), false, CompensationMode::Rescaled),
        gluefl(Some(2), true, CompensationMode::Rescaled),
        gluefl(None, false, CompensationMode::Raw),
    ]
}

/// A six-round run the size of `strategy_fingerprints.rs`'s: 56 clients,
/// keep 6, two local steps on a 12-16-8 network, availability churn at
/// 70% online in three-round sessions.
pub fn tiny(strategy: StrategyConfig, wire: WirePolicy, seed: u64) -> SimConfig {
    let (femnist, shufflenet) = (
        gluefl_data::DatasetProfile::Femnist,
        gluefl_ml::DatasetModel::ShuffleNet,
    );
    let mut cfg = SimConfig::paper_setup(femnist, shufflenet, strategy, 0.02, 6, seed);
    cfg.model.hidden = vec![16];
    (
        cfg.dataset.feature_dim,
        cfg.dataset.classes,
        cfg.dataset.test_samples,
    ) = (12, 8, 64);
    (
        cfg.round_size,
        cfg.local_steps,
        cfg.batch_size,
        cfg.eval_every,
    ) = (6, 2, 8, 3);
    cfg.availability = Some(AvailabilityConfig {
        online_fraction: 0.7,
        mean_session_rounds: 3.0,
    });
    cfg.wire = wire;
    cfg
}

/// The in-process clients, with the engine's invitations and grants
/// recorded, and each round's uploads delivered from a queue: in the
/// clients' own order, or shuffled.
struct Recorded {
    clients: InProcessClients,
    invited: Vec<(ClientId, Group)>,
    kept: Vec<usize>,
    shuffle: Option<StdRng>,
    queue: Vec<(Arrival, Vec<u8>)>,
}

impl RoundIo for Recorded {
    fn reachable(&self, id: ClientId) -> bool {
        self.clients.reachable(id)
    }

    fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>) {
        self.invited = invited.to_vec();
        self.clients.invite(round, invited, broadcast);
    }

    fn offers(&mut self, round: u32, times: &[ClientRoundTime], offers: &mut [Option<(u64, u64)>]) {
        self.clients.offers(round, times, offers);
    }

    fn grant(&mut self, round: u32, kept: &[usize], times: &[ClientRoundTime]) {
        self.kept = kept.to_vec();
        self.clients.grant(round, kept, times);
        let mut payload = Vec::new();
        while let Some(arrival) = self.clients.next_upload(round, &mut payload) {
            self.queue.push((arrival, std::mem::take(&mut payload)));
        }
        match &mut self.shuffle {
            Some(rng) => self.queue.shuffle(rng),
            None => self.queue.reverse(),
        }
    }

    fn next_upload(&mut self, _round: u32, payload: &mut Vec<u8>) -> Option<Arrival> {
        let (arrival, bytes) = self.queue.pop()?;
        *payload = bytes;
        Some(arrival)
    }

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        self.clients.rejected(round, slot, err);
    }
}

/// Equal bits, else the first position that differs.
fn assert_bits(engine: &[f32], reference: &[f32], what: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (e, r) = (bits(engine), bits(reference));
    let differ = (0..e.len().max(r.len())).find(|&i| e.get(i) != r.get(i));
    assert_eq!(differ, None, "{what}: first position that differs");
}

/// Plays `rounds` rounds of `cfg` on the engine over the in-process
/// clients — their uploads delivered in a random order drawn from
/// `arrivals`, if given — and on a [`Reference`], and asserts after every
/// round that both invited and granted the same clients, priced the same
/// bytes, changed as many positions, and hold the same parameter bits and
/// the same residual bits and weight for every client.
pub fn assert_engine_plays_reference(cfg: &SimConfig, rounds: u32, arrivals: Option<u64>) {
    let mut reference = Reference::new(cfg);
    let setup = RunSetup::new(cfg);
    let (clients, shuffle) = (
        InProcessClients::new(cfg, &setup),
        arrivals.map(StdRng::seed_from_u64),
    );
    let (invited, kept, queue) = (Vec::new(), Vec::new(), Vec::new());
    let mut io = Recorded {
        clients,
        invited,
        kept,
        shuffle,
        queue,
    };
    let n = setup.data.num_clients();
    let mut engine = RoundEngine::new(cfg.clone(), setup);
    let name = (cfg.strategy.name(), cfg.seed, cfg.wire, cfg.oc);
    for round in 0..rounds {
        io.invited.clear();
        io.kept.clear();
        let rec = engine.step(&mut io);
        let want = reference.round();
        let at = format!("{name:?}, round {round}");
        assert_eq!(io.invited, want.invited, "{at}: invitations");
        assert_eq!(io.kept, want.kept, "{at}: granted set");
        let bytes = [
            rec.up_bytes,
            rec.wire_up_bytes,
            rec.down_bytes,
            rec.wire_broadcast_bytes,
        ];
        let got = (bytes, rec.changed_positions);
        let what = format!("{at}: [up, wire up, down, broadcast] bytes, changed positions");
        assert_eq!(got, (want.bytes, want.changed_positions), "{what}");
        assert_bits(
            engine.model().params(),
            &reference.params,
            &format!("{at}: parameters"),
        );
        for id in 0..n {
            let (got, want) = (io.clients.stored(id), reference.bank.get(&id));
            let what = format!("{at}: client {id}'s residual");
            assert_eq!(got.map(|r| r.1), want.map(|r| r.1), "{what} weight");
            if let (Some((got, _)), Some((want, _))) = (got, want) {
                assert_bits(got, want, &what);
            }
        }
    }
}
