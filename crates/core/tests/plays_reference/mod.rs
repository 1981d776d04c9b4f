//! The round engine beside the paper's round: a [`Player`] steps
//! [`RoundEngine`] through any [`RoundIo`], wrapped in an IO that records
//! what the engine decided, next to a
//! [`Reference`](super::reference::Reference), and notes every field on
//! which the two differ. [`assert_engine_plays_reference`] drives it over
//! the in-process clients and checks after every round; the socket
//! driver's suite (`gluefl-transport`) drives it over loopback clients.
//! [`tiny`] and [`strategies`] are the runs it is fed.

use super::reference::Reference;
use gluefl_compress::{ApfConfig, CompensationMode};
use gluefl_core::engine::{Arrival, Broadcast, RoundEngine, RoundIo, UploadSink};
use gluefl_core::strategies::Group;
use gluefl_core::{AvailabilityConfig, GlueFlParams, InProcessClients, RunSetup, SimConfig};
use gluefl_core::{RoundRecord, StrategyConfig, WirePolicy};
use gluefl_sampling::ClientId;
use gluefl_wire::WireError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;

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

/// A six-round run the size of `strategy_fingerprints.rs`'s: 150 clients
/// (`paper_setup` raises 2 800 × 0.02 = 56 to its floor of 5K), keep 6,
/// two local steps on a 12-16-8 network, availability churn at 70%
/// online in three-round sessions.
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

/// Any IO, with the engine's invitations and grants recorded, and each
/// round's uploads collected from it and then delivered: in the IO's own
/// order, or shuffled.
struct Recorded<'a> {
    io: &'a mut dyn RoundIo,
    invited: Vec<(ClientId, Group)>,
    kept: Vec<usize>,
    shuffle: Option<&'a mut StdRng>,
}

/// A sink that keeps every arrival in delivery order and lends buffers
/// without a budget.
#[derive(Default)]
struct Collect(Mutex<Vec<(Arrival, Vec<u8>)>>);

impl UploadSink for Collect {
    fn buffer(&self) -> Vec<u8> {
        Vec::new()
    }

    fn deliver(&self, arrival: Arrival, payload: Vec<u8>) {
        self.0.lock().unwrap().push((arrival, payload));
    }

    fn recycle(&self, _payload: Vec<u8>) {}
}

impl RoundIo for Recorded<'_> {
    fn reachable(&self, id: ClientId) -> bool {
        self.io.reachable(id)
    }

    fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>) {
        self.invited = invited.to_vec();
        self.io.invite(round, invited, broadcast);
    }

    fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
        self.io.offers(round, offers);
    }

    fn grant(&mut self, round: u32, kept: &[usize]) {
        self.kept = kept.to_vec();
        self.io.grant(round, kept);
    }

    fn uploads(&mut self, round: u32, sink: &dyn UploadSink) {
        let collected = Collect::default();
        self.io.uploads(round, &collected);
        let mut queue = collected.0.into_inner().unwrap();
        if let Some(rng) = &mut self.shuffle {
            queue.shuffle(rng);
        }
        for (arrival, bytes) in queue {
            sink.deliver(arrival, bytes);
        }
    }

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        self.io.rejected(round, slot, err);
    }
}

/// Notes `what` in `found` unless `got` equals `want`.
fn same<T: PartialEq + std::fmt::Debug>(found: &mut Vec<String>, what: String, got: T, want: T) {
    if got != want {
        found.push(format!("{what}: {got:?}, reference {want:?}"));
    }
}

/// Notes `what` in `found` with the first position at which `got` and
/// `want` differ in bits, if one does.
fn bits(found: &mut Vec<String>, what: String, got: &[f32], want: &[f32]) {
    let at = |v: &[f32], i: usize| v.get(i).map(|x| x.to_bits());
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| at(got, i) != at(want, i)) {
        found.push(format!("{what}: bits differ first at position {i}"));
    }
}

/// A run of the engine beside a [`Reference`] of the same config, and
/// every field on which the two differed, in the order found.
pub struct Player {
    reference: Reference,
    /// Delivers each round's uploads in a random order, when given.
    shuffle: Option<StdRng>,
    /// The run's strategy, seed, wire policy and over-commitment.
    run: String,
    found: Vec<String>,
}

impl Player {
    /// A player of `cfg`, delivering each round's uploads in a random
    /// order drawn from `arrivals`, if given.
    pub fn new(cfg: &SimConfig, arrivals: Option<u64>) -> Self {
        let (reference, shuffle) = (Reference::new(cfg), arrivals.map(StdRng::seed_from_u64));
        let run = (cfg.strategy.name(), cfg.seed, cfg.wire, cfg.oc);
        Self {
            reference,
            shuffle,
            run: format!("{run:?}"),
            found: Vec::new(),
        }
    }

    /// Steps `engine` through `io` and plays the reference's round, noting
    /// whether both invited and granted the same clients, wrote equal
    /// records (bytes, modeled seconds, changed positions, evaluation)
    /// and hold the same parameter bits.
    pub fn step(&mut self, engine: &mut RoundEngine, io: &mut dyn RoundIo) -> RoundRecord {
        let (invited, kept) = (Vec::new(), Vec::new());
        let shuffle = self.shuffle.as_mut();
        let mut io = Recorded {
            io,
            invited,
            kept,
            shuffle,
        };
        let rec = engine.step(&mut io);
        let (want, f) = (self.reference.round(), &mut self.found);
        let at = |what| format!("round {}: {what}", rec.round);
        same(f, at("invitations"), io.invited, want.invited);
        same(f, at("granted set"), io.kept, want.kept);
        same(f, at("record"), rec, want.record);
        let params = engine.model().params();
        bits(f, at("parameters"), params, &self.reference.params);
        rec
    }

    /// Notes every client of the `n` whose banked residual bits or weight
    /// differ from the reference's; `stored` reads the driver's bank.
    pub fn banks<'a>(
        &mut self,
        at: &str,
        n: usize,
        stored: impl Fn(ClientId) -> Option<(&'a [f32], f64)>,
    ) {
        for id in 0..n {
            let (got, want, f) = (stored(id), self.reference.bank.get(&id), &mut self.found);
            let what = format!("{at}: client {id}'s residual");
            let (weight, want_weight) = (got.map(|r| r.1), want.map(|r| r.1));
            same(f, format!("{what} weight"), weight, want_weight);
            if let (Some((got, _)), Some((want, _))) = (got, want) {
                bits(f, what, got, want);
            }
        }
    }

    /// Panics listing every mismatch noted so far, if there is one.
    pub fn assert_played(&self) {
        let (run, found) = (&self.run, &self.found);
        assert!(found.is_empty(), "{run}:\n{}", found.join("\n"));
    }
}

/// Plays `rounds` rounds of `cfg` on the engine over the in-process
/// clients — their uploads delivered in a random order drawn from
/// `arrivals`, if given — and on a [`Reference`], and asserts after every
/// round that the two agree on every field [`Player::step`] compares and
/// on every client's residual bits and weight.
pub fn assert_engine_plays_reference(cfg: &SimConfig, rounds: u32, arrivals: Option<u64>) {
    let mut player = Player::new(cfg, arrivals);
    let setup = RunSetup::new(cfg);
    let mut clients = InProcessClients::new(cfg, &setup);
    let n = setup.data.num_clients();
    let mut engine = RoundEngine::new(cfg.clone(), setup);
    for round in 0..rounds {
        player.step(&mut engine, &mut clients);
        player.banks(&format!("round {round}"), n, |id| clients.stored(id));
        player.assert_played();
    }
}
