//! The round engine: the server procedure of Algorithm 3, once.
//!
//! [`RoundEngine`] owns everything the server side of a run owns — the
//! global model, the client [`Sampler`] and the strategy's fold, the
//! staleness tracker, the link/speed/availability models, the run RNG
//! and the [`ScratchPool`] — and [`RoundEngine::step`] is the only place
//! a round is sequenced:
//!
//! 1. `plan` ([`Phase::Draw`]) — the sampler draws invitations among
//!    clients that are both online (availability model) and reachable
//!    ([`RoundIo`]); no client is invited twice;
//! 2. `broadcast` ([`Phase::Broadcast`]) — every invited client is
//!    charged the positions it is stale on plus the strategy's mask, and
//!    the broadcast (one dense `F32` model frame plus the mask frame, if
//!    any) is serialized once;
//! 3. `invite` ([`Phase::Train`]) and `collect_offers`
//!    ([`Phase::Encode`]) — [`RoundIo::invite`] hands the broadcast to
//!    all invited clients; [`RoundIo::offers`] collects each one's
//!    predicted upload byte counts, which over the sampled links give the
//!    modeled transfer times. Every client prices its invitation from the
//!    broadcast alone ([`crate::ClientCompressor::shape_offer`]), before
//!    anyone trains: exactly under the legacy layout menu, as an upper
//!    bound under the entropy menu;
//! 4. `keep` (untimed) — the fastest `C` sticky / `K − C` fresh
//!    finishers are kept (§5.6), and [`RoundIo::grant`] tells the
//!    clients. Only the kept clients take their turns — train, compress
//!    ([`crate::ClientTurn::run`]) — so the grant is timed as
//!    [`Phase::Train`]. A dismissed client runs nothing and sends
//!    nothing, so its error-feedback bank ends the round as it began;
//! 5. `fold` — each arrival from [`RoundIo::next_upload`] is decoded
//!    through the one upload grammar
//!    ([`wire_link::decode_upload_with_stats`]), validated against the
//!    strategy, the model dimension and the BN-statistic layout, and
//!    folded on the spot, at the sampler's weight for its client,
//!    through the [`StreamingAggregator`] — decoded and folded while the
//!    IO produces the next arrival. Every check runs before anything is
//!    folded; a dense upload is then folded straight from the verified
//!    frame bytes in the payload buffer ([`Upload::DenseFrame`]), which
//!    goes back to the producer only after the fold. Only an upload the
//!    gate must park — it arrived ahead of a lower client id — is
//!    materialized into a pooled buffer. A producer thread (`produce`)
//!    owns the IO for this step and runs at most one arrival ahead;
//!    arrivals are folded in the order the IO produces them, so the
//!    overlap changes no bit. A lost or invalid upload is skipped and the round
//!    completes without it. Each folded upload, and no other, enters the
//!    upload ledger: its payload length as
//!    [`RoundRecord::wire_up_bytes`], its legacy-F32 price as
//!    [`RoundRecord::up_bytes`]. Setting up and folding are timed as
//!    [`Phase::Fold`], decoding as [`Phase::Decode`], and waiting on the
//!    producer as [`Phase::Encode`];
//! 6. the strategy's finishing step ([`Phase::TopK`]: top-k, mask shift)
//!    yields the [`gluefl_tensor::MaskedUpdate`]; `apply`
//!    ([`Phase::Apply`]) applies it with the word-level masked kernels,
//!    adds the Appendix-D plain mean of the BN statistics over the
//!    *delivered* uploads, and records the changed positions with the
//!    staleness tracker; `rebalance` ([`Phase::Rebalance`]) refreshes
//!    the sticky group; `model_time` (untimed) makes the round as long
//!    as its slowest kept client that offered. The step's clock then publishes
//!    the phase table and the model is evaluated on schedule, outside
//!    [`RoundRecord::step_nanos`].
//!
//! Each timed interval is charged to its phase at one call site — in
//! [`RoundEngine::step`], or in `fold` for the fold loop's waits, decodes
//! and folds — so the phases are disjoint slices of the step by
//! construction.
//!
//! Who the clients are is the [`RoundIo`]'s business. Its steps are per
//! *round*, not per client, so an implementation is free to run a
//! round's turns in one call ([`crate::Simulation`]: the kept clients'
//! at `grant`) or to wait on sockets under deadlines
//! (`gluefl-transport`'s server). The engine never reads a clock except
//! through the attached telemetry recorder, and never blocks except
//! inside the IO or on its producer.
//!
//! Both drivers run this one sequence over the same client half
//! ([`crate::ClientCompressor`]), and the reference round of
//! `tests/reference/` pins both, banked residuals included: the in-process
//! one in `reference_round.rs`, the socket one in `socket_reference.rs`.

use crate::client::RunSetup;
use crate::config::SimConfig;
use crate::metrics::RoundRecord;
use crate::scratch::ScratchPool;
use crate::staleness::StalenessTracker;
use crate::strategies::{Group, RoundPlan, Sampler, Strategy, Upload};
use crate::stream::StreamingAggregator;
use crate::wire_link;
use gluefl_data::SyntheticFlDataset;
use gluefl_ml::Mlp;
use gluefl_net::timing::{fastest, seconds_for_bytes, ClientRoundTime};
use gluefl_net::{LazyAvailability, LinkCache, SpeedCache};
use gluefl_sampling::ClientId;
use gluefl_telemetry::{Histogram, Phase, Telemetry, PHASE_COUNT};
use gluefl_tensor::rng::{derive_seed, seeded_rng};
use gluefl_tensor::{vecops, BitMask, MaskedUpdate};
use gluefl_wire::{
    frame_kind_from_header, legacy_mask_len, Codec, FrameWriter, Rounding, WireError, WirePolicy,
};
use rand::rngs::StdRng;
use std::sync::{mpsc, Arc};

/// Modeled upload time of an invited client that never offered: large
/// enough to lose every [`fastest`] comparison, finite so the sort never
/// sees a NaN/∞ ordering panic. It never enters the round's modeled
/// time, which covers only the kept clients that offered.
const MISSING_OFFER_SECS: f64 = 1e30;

/// An invited client's offer, as [`RoundIo::offers`] reports it: the
/// wire bytes it priced its upload at, or `None` if it never answered.
type Offer = Option<u64>;

/// What a round sends to every invited client.
#[derive(Debug, Clone, Copy)]
pub struct Broadcast<'a> {
    /// The serialized form: one dense `F32` model frame, then the
    /// strategy's mask frame if it ships one. Weights always travel at
    /// full precision — clients must train on the exact global weights
    /// the download accounting assumes — while the mask frame may take
    /// the RLE layout when the run's [`WirePolicy`] admits it.
    pub frames: &'a [u8],
    /// The global parameters inside the model frame, for an IO that
    /// shares the engine's address space and need not decode them.
    pub params: &'a [f32],
    /// The round mask inside the mask frame, likewise.
    pub mask: Option<&'a BitMask>,
}

/// One resolved kept slot, as reported by [`RoundIo::next_upload`]. The
/// index is the client's position in the round's invitation list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The client's upload bytes are in the payload buffer.
    Delivered(usize),
    /// The client will not deliver (never offered, disconnected, missed
    /// its deadline): fold without it.
    Lost(usize),
}

/// How the engine reaches a round's clients. One call per step per
/// round, in this order: [`invite`](Self::invite),
/// [`offers`](Self::offers), [`grant`](Self::grant), then
/// [`next_upload`](Self::next_upload) until it returns `None` — by which
/// time every granted slot must have been reported exactly once, as
/// [`Arrival::Delivered`] or [`Arrival::Lost`].
///
/// The trait is `Send` because the fold step is a two-stage pipeline:
/// [`next_upload`](Self::next_upload) and [`rejected`](Self::rejected)
/// run on a producer thread the engine spawns for that step, while the
/// engine thread decodes and folds the previous arrival. The other calls
/// run on the thread that called [`RoundEngine::step`]; no two calls
/// ever overlap.
pub trait RoundIo: Send {
    /// Whether client `id` can be invited at all (a socket IO answers
    /// "is its connection alive"). Queried during planning, only for the
    /// candidates the strategy considers.
    fn reachable(&self, id: ClientId) -> bool;

    /// Delivers the broadcast to every invited client, with its group
    /// tag. Nobody trains yet: the in-process IO holds the broadcast
    /// weights, and a socket IO sends the invitations, which each client
    /// holds until its `GRANT`.
    fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>);

    /// Collects the invited clients' offers: `offers[i]` becomes the
    /// wire bytes the `i`-th invited client priced its upload at, or
    /// stays `None` if it never answered. An offer is the nominal price
    /// the broadcast fixes ([`crate::ClientCompressor::shape_offer`]):
    /// the in-process IO reports that one price for everyone, a socket IO
    /// waits for the `OFFER`s. Offers rank the keep and set the modeled
    /// upload times; they are not the upload ledger, which counts only
    /// what is folded.
    fn offers(&mut self, round: u32, offers: &mut [Option<u64>]);

    /// Announces the keep decision: the invitation indices in `kept` are
    /// granted their upload slot, everyone else is dismissed. Only a kept
    /// client takes its turn ([`crate::ClientTurn::run`]) and banks the
    /// residual it leaves ([`crate::StagedTurn::keep`]); a dismissed one
    /// runs nothing, so its bank ends the round as it began. The
    /// in-process IO takes the kept clients' turns here, so the engine
    /// times this call as training.
    fn grant(&mut self, round: u32, kept: &[usize]);

    /// Waits for the next granted slot to resolve. On
    /// [`Arrival::Delivered`] the upload's bytes (upload frames, then the
    /// BN-statistic frame) have been placed in `payload`. `None` once
    /// every granted slot has been reported.
    fn next_upload(&mut self, round: u32, payload: &mut Vec<u8>) -> Option<Arrival>;

    /// The engine could not use the bytes delivered for invitation index
    /// `slot` and folded without them. Called exactly once per rejected
    /// delivery, in arrival order, and before [`RoundEngine::step`]
    /// returns — but not necessarily before the next
    /// [`next_upload`](Self::next_upload): the producer may already be
    /// waiting on a later arrival when the engine rejects this one.
    fn rejected(&mut self, round: u32, slot: usize, err: &WireError);
}

/// The attached recorder plus the instrument the round hot path records
/// through — pre-registered so the round never touches the recorder's
/// registry lock.
#[derive(Clone)]
struct EngineRecorder {
    hub: Arc<Telemetry>,
    /// Per folded upload, its payload bytes (upload + BN-statistic
    /// frames).
    wire_up_bytes: Histogram,
}

/// One step's phase table and the recorder clock it is charged from. The
/// recorder handle is cloned out of the engine (two `Arc` bumps), so
/// timing a phase never fights that phase's `&mut self` borrow. With no
/// recorder every reading is 0 — the whole cost of disabled
/// instrumentation is one untaken branch per phase boundary.
struct PhaseClock {
    tel: Option<EngineRecorder>,
    start: u64,
    ns: [u64; PHASE_COUNT],
}

impl PhaseClock {
    fn start(tel: Option<EngineRecorder>) -> Self {
        let start = tel.as_ref().map_or(0, |t| t.hub.now_nanos());
        let ns = [0; PHASE_COUNT];
        Self { tel, start, ns }
    }

    fn now(&self) -> u64 {
        self.tel.as_ref().map_or(0, |t| t.hub.now_nanos())
    }

    /// Runs `f` and charges its wall time to `phase`.
    fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.ns[phase.index()] += self.now().saturating_sub(start);
        out
    }

    /// Closes the step: the phase table and the step's wall time go into
    /// `rec`, and the recorder gets one span per non-[`Phase::Train`]
    /// phase — training spans are emitted by the training paths
    /// themselves, block by block.
    fn close(self, rec: &mut RoundRecord) {
        rec.phase_nanos = self.ns;
        rec.step_nanos = self.now().saturating_sub(self.start);
        if let Some(t) = &self.tel {
            for (p, n) in Phase::ALL.into_iter().zip(self.ns) {
                if n > 0 && p != Phase::Train {
                    t.hub.record_phase(p, n);
                }
            }
        }
    }
}

/// The server side of a run; see the [module docs](self).
pub struct RoundEngine {
    cfg: SimConfig,
    data: Arc<SyntheticFlDataset>,
    model: Mlp,
    sampler: Sampler,
    strategy: Strategy,
    staleness: StalenessTracker,
    /// On-demand per-client links; only participants are ever sampled.
    links: LinkCache,
    /// On-demand per-client compute speeds.
    speeds: SpeedCache,
    /// Lazy availability process; `None` means every client is always
    /// online. Clients are materialised on first touch, so the resident
    /// state is O(touched clients), not O(N).
    availability: Option<LazyAvailability>,
    /// Flat indices of BN-statistic positions.
    stats_positions: Vec<usize>,
    /// Multiplier applied to byte counts when computing transfer *times*
    /// (`reference_params / simulated_params`). Round timing is modelled
    /// at the reference architecture's scale, so the time-domain results
    /// (DT/TT, Figure 9, Table 3) stay comparable to the paper with a
    /// small stand-in model; byte *metrics* stay at simulated scale.
    time_byte_factor: f64,
    /// Parameter count used for compute-time estimation: the reference
    /// architecture's.
    time_params: usize,
    rng: StdRng,
    round: u32,
    skipped_uploads: usize,
    scratch: ScratchPool,
    /// Reused `(client, group)` invitation list.
    invited: Vec<(ClientId, Group)>,
    /// Decoded BN-statistic values of the round's kept uploads
    /// (kept × stats).
    stats_saved: Vec<f32>,
    /// Reused list of the BN-statistic positions a round's means moved.
    changed: Vec<usize>,
    tel: Option<EngineRecorder>,
}

impl RoundEngine {
    /// Builds the server side of `cfg`'s run from what [`RunSetup`]
    /// derived; every other piece of state (sampler, strategy, links,
    /// speeds, availability, RNG) derives deterministically from
    /// `cfg.seed`.
    ///
    /// The engine is the run's one holder of weights and its one
    /// evaluator, so the two things only those need are paid for here,
    /// at set-up: the initial weights are drawn from the `"model-init"`
    /// stream, and the dataset's test set is drawn now rather than by
    /// the first evaluation.
    #[must_use]
    pub fn new(cfg: SimConfig, setup: RunSetup) -> Self {
        let stats_excluded = setup.stats_excluded();
        let trainable = setup.trainable();
        let RunSetup {
            data,
            topology,
            stats_positions,
            ..
        } = setup;
        let model = Mlp::init(topology, &mut seeded_rng(cfg.seed, "model-init", 0));
        let _ = data.test_set();
        let n = data.num_clients();
        let dim = model.num_params();
        // The sticky group, then GlueFL's initial shared mask.
        let mut strat_rng = seeded_rng(cfg.seed, "strategy", 0);
        let sampler = Sampler::new(&cfg, data.client_weights(), &mut strat_rng);
        let strategy = Strategy::new(&cfg, trainable, dim, stats_excluded, &mut strat_rng);
        let availability = cfg.availability.map(|a| {
            LazyAvailability::new(
                n,
                a.online_fraction,
                a.mean_session_rounds,
                derive_seed(cfg.seed, "availability", 0),
            )
        });
        Self {
            links: LinkCache::new(cfg.network, derive_seed(cfg.seed, "network", 0)),
            speeds: SpeedCache::new(cfg.device, derive_seed(cfg.seed, "devices", 0)),
            staleness: StalenessTracker::new(dim, n),
            rng: seeded_rng(cfg.seed, "simulation", 0),
            time_byte_factor: cfg.model.paper_scale_factor(dim),
            time_params: cfg.model.reference_params as usize,
            cfg,
            data,
            model,
            sampler,
            strategy,
            availability,
            stats_positions,
            round: 0,
            skipped_uploads: 0,
            scratch: ScratchPool::new(),
            invited: Vec::new(),
            stats_saved: Vec::new(),
            changed: Vec::new(),
            tel: None,
        }
    }

    /// Attaches a telemetry recorder: every subsequent
    /// [`RoundEngine::step`] measures its phases into
    /// [`RoundRecord::phase_nanos`] and records them on the recorder's
    /// per-phase span table. Without a recorder all of that is skipped
    /// and the measured fields stay zero.
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.tel = Some(EngineRecorder {
            wire_up_bytes: tel.histogram("gluefl_wire_up_bytes", &[]),
            hub: tel,
        });
    }

    /// The attached recorder, if any.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.tel.as_ref().map(|t| &t.hub)
    }

    /// The run config.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current global model.
    #[must_use]
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// The dataset in use.
    #[must_use]
    pub fn data(&self) -> &SyntheticFlDataset {
        &self.data
    }

    /// The strategy's display name.
    #[must_use]
    pub fn strategy_name(&self) -> String {
        self.cfg.strategy.name()
    }

    /// The staleness tracker (position change history + client versions).
    #[must_use]
    pub fn staleness(&self) -> &StalenessTracker {
        &self.staleness
    }

    /// Kept uploads folded without so far: lost by the IO, or delivered
    /// as bytes the engine rejected. 0 in a failure-free run.
    #[must_use]
    pub fn skipped_uploads(&self) -> usize {
        self.skipped_uploads
    }

    /// Executes one round through `io` and returns its record.
    ///
    /// # Panics
    /// Panics if `io` breaks the [`RoundIo`] contract (a granted slot
    /// reported twice or never, an index outside the keep set) or the
    /// sampler invites a client twice — never on the *content* of
    /// delivered bytes. A panic inside the IO's [`RoundIo::next_upload`]
    /// or [`RoundIo::rejected`], which run on the fold step's producer
    /// thread, is re-raised here with the IO's own message.
    pub fn step(&mut self, io: &mut dyn RoundIo) -> RoundRecord {
        let round = self.round;
        self.round += 1;
        let mut clock = PhaseClock::start(self.tel.clone());
        let plan = clock.time(Phase::Draw, || self.plan(round, &*io));
        let mut rec = RoundRecord {
            round,
            invited: self.invited.len(),
            ..Default::default()
        };
        if !self.invited.is_empty() {
            let (down, frames) = clock.time(Phase::Broadcast, || self.broadcast(round, &mut rec));
            clock.time(Phase::Train, || self.invite(io, round, frames));
            let (times, offers) =
                clock.time(Phase::Encode, || self.collect_offers(io, round, &down));
            let kept = keep(&plan, &times);
            rec.kept = kept.len();
            // An IO may take the kept clients' turns only now that it
            // knows who they are, so the grant is training time.
            clock.time(Phase::Train, || io.grant(round, &kept));
            let (gate, slots) = self.fold(io, round, &kept, &mut clock, &mut rec);
            let update = clock.time(Phase::TopK, || {
                gate.finish(&mut self.strategy, &mut self.scratch)
            });
            clock.time(Phase::Apply, || self.apply(update, &slots, &mut rec));
            clock.time(Phase::Rebalance, || self.rebalance(&kept));
            model_time(&mut rec, &kept, &times, &offers);
        }
        clock.close(&mut rec);
        self.evaluate(&mut rec);
        rec
    }

    /// Draws the round's invitations into `self.invited`, sticky first.
    /// The sampler asks about exactly the candidates it considers, each
    /// answered by the IO and then by advancing that client's private
    /// availability trajectory to `round`; no per-round O(N) scan happens
    /// anywhere.
    fn plan(&mut self, round: u32, io: &dyn RoundIo) -> RoundPlan {
        let av = &mut self.availability;
        let mut query =
            |id: ClientId| io.reachable(id) && av.as_mut().is_none_or(|a| a.is_online(id, round));
        let plan = self.sampler.plan(&mut self.rng, &mut query);
        self.invited.clear();
        self.invited.extend(plan.invited());
        let mut ids: Vec<ClientId> = self.invited.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "the sampler invites each client at most once"
        );
        plan
    }

    /// Charges every invited client the positions it is stale on plus the
    /// strategy's mask, marks it synced, and serializes the broadcast once.
    /// Returns each invited client's download bytes and the frames.
    fn broadcast(&mut self, round: u32, rec: &mut RoundRecord) -> (Vec<u64>, Vec<u8>) {
        let mask = self.strategy.round_mask();
        let mask_bytes = mask.map_or(0, |m| legacy_mask_len(m.len()));
        let mut download = Vec::with_capacity(self.invited.len());
        for &(id, _) in &self.invited {
            download.push(self.staleness.download_bytes(id) + mask_bytes);
            self.staleness.mark_synced(id);
        }
        rec.down_bytes = download.iter().sum();
        let mut frames = self.scratch.take_bytes();
        let writer = FrameWriter::new(WirePolicy {
            codec: Codec::F32,
            ..self.cfg.wire
        });
        let _ = writer.dense(&mut frames, round, Rounding::Nearest, self.model.params());
        if let Some(mask) = mask {
            let _ = writer.mask(&mut frames, round, mask);
        }
        rec.wire_broadcast_bytes = frames.len() as u64;
        (download, frames)
    }

    /// Hands the broadcast to the invited clients, then the frames'
    /// buffer back to the pool.
    fn invite(&mut self, io: &mut dyn RoundIo, round: u32, frames: Vec<u8>) {
        let broadcast = Broadcast {
            frames: &frames,
            params: self.model.params(),
            mask: self.strategy.round_mask(),
        };
        io.invite(round, &self.invited, &broadcast);
        self.scratch.put_bytes(frames);
    }

    /// Collects the offers, then turns them into every invited client's
    /// modeled times; returns the times and the offers. Nothing is
    /// trained or serialized yet: an offer is the price the broadcast
    /// fixes, so the keep selection runs on offered lengths, the
    /// information order of a real server.
    fn collect_offers(
        &mut self,
        io: &mut dyn RoundIo,
        round: u32,
        download: &[u64],
    ) -> (Vec<ClientRoundTime>, Vec<Offer>) {
        let mut offers = vec![None; self.invited.len()];
        io.offers(round, &mut offers);
        let secs =
            |b: u64, mbps| seconds_for_bytes((b as f64 * self.time_byte_factor) as u64, mbps);
        let (steps, device) = (self.cfg.local_steps as f64, self.cfg.device);
        let times = self
            .invited
            .iter()
            .zip(download)
            .zip(&offers)
            .map(|((&(id, _), &down), offer)| {
                let (link, speed) = (self.links.get(id), self.speeds.get(id));
                ClientRoundTime {
                    download_secs: secs(down, link.down_mbps),
                    compute_secs: steps * device.step_seconds(self.time_params, speed),
                    upload_secs: offer.map_or(MISSING_OFFER_SECS, |wire| secs(wire, link.up_mbps)),
                }
            })
            .collect();
        (times, offers)
    }

    /// Folds each arrival the moment it resolves, while the IO produces
    /// the next one, and returns the gate with every kept slot resolved
    /// plus which kept slots delivered. Two stages, one arrival apart:
    /// the producer ([`produce`]) owns the IO and fills a payload buffer
    /// with the next arrival while this thread decodes, validates and
    /// folds the previous one, reading a dense upload in the buffer it
    /// arrived in; the two buffers cycle between them, each going back
    /// once its upload is folded or parked, and rejections travel back
    /// to the producer. Every channel end lives
    /// inside the scope, so a panic on either side drops the other side's
    /// peer and nothing stays blocked. Arrival order is whatever the IO
    /// produces; the gate parks early arrivals so the strategy folds in
    /// ascending client-id order regardless, each upload at its client's
    /// weight, and each folded upload enters `rec`'s upload ledger.
    fn fold(
        &mut self,
        io: &mut dyn RoundIo,
        round: u32,
        kept: &[usize],
        clock: &mut PhaseClock,
        rec: &mut RoundRecord,
    ) -> (StreamingAggregator, Vec<bool>) {
        let mut delivered = vec![false; kept.len()];
        let gate = std::thread::scope(|s| {
            let (arrival_tx, arrivals) = mpsc::sync_channel(1);
            let (empty_tx, empties) = mpsc::channel();
            let (reject_tx, rejections) = mpsc::channel();
            let (mut gate, producer) = clock.time(Phase::Fold, || {
                let gate = self.begin_fold(round, kept);
                for _ in 0..2 {
                    let _ = empty_tx.send(self.scratch.take_bytes());
                }
                let producer = s.spawn(move || produce(io, round, empties, arrival_tx, rejections));
                (gate, producer)
            });
            while let Ok((arrival, payload)) = clock.time(Phase::Encode, || arrivals.recv()) {
                let (i, upload) = clock.time(Phase::Decode, || match arrival {
                    Arrival::Delivered(i) => {
                        let slot = kept.iter().position(|&k| k == i);
                        let slot = slot.expect("RoundIo delivered a slot that was not kept");
                        let decoded = self.decode_arrival(&payload, slot);
                        match &decoded {
                            Ok(upload) => self.charge_upload(upload, payload.len(), rec),
                            Err(e) => {
                                let _ = reject_tx.send((i, *e));
                            }
                        }
                        delivered[slot] = decoded.is_ok();
                        (i, decoded.ok())
                    }
                    Arrival::Lost(i) => (i, None),
                });
                let id = self.invited[i].0;
                clock.time(Phase::Fold, || {
                    match upload {
                        Some(u) => gate.accept(&mut self.strategy, id, u, &mut self.scratch),
                        None => gate.skip(&mut self.strategy, id, &mut self.scratch),
                    }
                    .expect("RoundIo resolves each kept slot exactly once");
                });
                // Folded or parked, the upload no longer reads the bytes;
                // the producer may refill the buffer.
                let _ = empty_tx.send(payload);
            }
            // The producer ends once it holds every rejection and buffer.
            clock.time(Phase::Encode, || {
                drop((empty_tx, reject_tx));
                for buf in producer
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
                {
                    self.scratch.put_bytes(buf);
                }
            });
            gate
        });
        (gate, delivered)
    }

    /// Enters one folded upload into the round's upload ledger: the
    /// `len` bytes its payload took on the wire, and what the same upload
    /// and BN-statistic frame cost as legacy-F32 frames.
    fn charge_upload(&self, upload: &Upload, len: usize, rec: &mut RoundRecord) {
        let legacy = WirePolicy::legacy(Codec::F32);
        let stats = FrameWriter::new(legacy).known_mask_len(self.stats_positions.len());
        rec.up_bytes += wire_link::encoded_len(upload, &legacy) + stats;
        rec.wire_up_bytes += len as u64;
        if let Some(t) = &self.tel {
            t.wire_up_bytes.observe(len as u64);
        }
    }

    /// Opens the round's fold gate over the kept clients at their sampler
    /// weights, and zeroes one BN-statistic row per kept slot.
    fn begin_fold(&mut self, round: u32, kept: &[usize]) -> StreamingAggregator {
        let weights: Vec<(ClientId, f32)> = kept
            .iter()
            .map(|&i| self.invited[i])
            .map(|(id, group)| (id, self.sampler.weight(id, group) as f32))
            .collect();
        let rows = kept.len() * self.stats_positions.len();
        self.stats_saved.clear();
        self.stats_saved.resize(rows, 0.0);
        StreamingAggregator::begin(round, &weights, &mut self.strategy, &mut self.scratch)
    }

    /// Applies the finished update; the kept slots that did not deliver
    /// count as skipped uploads. A masking strategy's update covers
    /// O(q·d) positions; the word-level scatter / masked AXPY touches
    /// only those, and the changed-position scan walks the mask instead
    /// of the dense vector (a full-mask update's scan walks its values).
    /// BatchNorm statistics then get the plain mean over the delivered
    /// uploads' stats frames (Appendix D), added straight into the
    /// parameters, and the staleness tracker stamps every changed
    /// position straight from the scan.
    fn apply(&mut self, update: MaskedUpdate, delivered: &[bool], rec: &mut RoundRecord) {
        update.add_to(self.model.params_mut());
        self.changed.clear();
        let stats_len = self.stats_positions.len();
        let delivered_count = delivered.iter().filter(|&&d| d).count();
        if delivered_count > 0 && stats_len > 0 {
            // The delivered rows are summed into the first, row by row:
            // each statistic still adds up its values in slot order.
            let mut rows = (self.stats_saved.chunks_exact_mut(stats_len).zip(delivered))
                .filter_map(|(row, &d)| d.then_some(row));
            let sums = rows.next().expect("a kept slot delivered");
            for row in rows {
                vecops::add_assign(sums, row);
            }
            let inv_k = 1.0 / delivered_count as f32;
            let params = self.model.params_mut();
            for (&p, &sum) in self.stats_positions.iter().zip(&*sums) {
                let mean = sum * inv_k;
                params[p] += mean;
                if mean != 0.0 {
                    self.changed.push(p);
                }
            }
        }
        let stats_positions = &self.stats_positions;
        rec.changed_positions = self.staleness.record_update_with(|stamp| {
            update.for_each_nonzero(|j, _| {
                // Strategy contract: BN-statistic positions are uncovered
                // or carry exact zeros — a nonzero here would double-apply
                // with the Appendix-D mean above.
                debug_assert!(
                    stats_positions.binary_search(&j).is_err(),
                    "strategy update has a nonzero value at BN-statistic position {j}"
                );
                stamp.mark(j);
            });
            self.changed.iter().for_each(|&p| stamp.mark(p));
        });
        self.scratch.put_update(update);
        self.skipped_uploads += delivered.len() - delivered_count;
    }

    /// Rebalances the sticky group around the clients kept from each
    /// group.
    fn rebalance(&mut self, kept: &[usize]) {
        let ids =
            |kept: &[usize]| -> Vec<ClientId> { kept.iter().map(|&i| self.invited[i].0).collect() };
        let sticky = kept.partition_point(|&i| self.invited[i].1 == Group::Sticky);
        let (sticky, fresh) = kept.split_at(sticky);
        self.sampler
            .rebalance(&mut self.rng, &ids(sticky), &ids(fresh));
    }

    /// Evaluates the model into `rec` if the schedule asks for it, through
    /// a pooled slot so eval rounds reuse warm forward buffers. The test
    /// set streams through the same GEMM-backed forward pass training
    /// uses, one block of [`gluefl_ml::EVAL_BLOCK_ROWS`] rows at a time,
    /// so the slot keeps one block's activations; each block's larger
    /// layers shard GEMM row blocks across threads (bit-identical to one
    /// thread — rows never share an accumulator).
    fn evaluate(&mut self, rec: &mut RoundRecord) {
        let every = self.cfg.eval_every.max(1);
        if (rec.round + 1).is_multiple_of(every) || rec.round + 1 == self.cfg.rounds {
            let mut slot = self.scratch.take_train_slot();
            let (tx, ty) = self.data.test_set();
            let m = self.model.evaluate_into(tx, ty, &mut slot.scratch);
            self.scratch.put_train_slot(slot);
            rec.accuracy = Some(if self.cfg.use_top5 { m.top5 } else { m.top1 });
            rec.loss = Some(m.loss);
        }
    }

    /// Decodes one delivered payload and checks that the engine can use
    /// it: the upload variant is one the fold [`Strategy::accepts`],
    /// dimensions agree with the model, and the stats frame matches the
    /// BN-statistic layout. Explicit index lists need no check here: the
    /// frame decoder refuses unsorted and out-of-range positions, and
    /// [`wire_link::decode_upload_with_stats`] a split upload whose parts
    /// disagree on `dim`. On success the stats values are in kept slot
    /// `slot` of `stats_saved`.
    ///
    /// Every check runs here, before anything is folded, and a rejection
    /// is typed and counted once. A dense upload comes back as the
    /// verified frame's values ([`Upload::DenseFrame`], borrowing
    /// `payload`): the fold reads them in place, and only the gate's
    /// parking of an early arrival copies them.
    fn decode_arrival<'p>(
        &mut self,
        payload: &'p [u8],
        slot: usize,
    ) -> Result<Upload<'p>, WireError> {
        let dim = self.model.num_params();
        let stats_len = self.stats_positions.len();
        let (upload, stats_frame) = wire_link::decode_upload_with_stats(
            payload,
            self.strategy.round_mask(),
            &mut self.scratch,
        )?;
        let wrong_dim = [upload.dim(), stats_frame.dim]
            .into_iter()
            .find(|&d| d != dim);
        let err = if let Some(declared) = wrong_dim {
            Some(WireError::DimMismatch {
                declared,
                expected: dim,
            })
        } else if !self.strategy.accepts(&upload) {
            let arrived = frame_kind_from_header(payload)
                .expect("the payload's first frame decoded a moment ago");
            Some(WireError::UnexpectedKind(arrived.id()))
        } else if stats_frame.nnz != stats_len {
            Some(WireError::NnzMismatch {
                declared: stats_frame.nnz,
                actual: stats_len,
            })
        } else {
            None
        };
        if let Some(e) = err {
            // The frames decoded but the receiver can't use them: count
            // the rejection in the same typed-error table the wire layer
            // keeps.
            gluefl_wire::stats::record_decode_error(&e);
            self.scratch.reclaim_upload(upload);
            return Err(e);
        }
        stats_frame.values_to(&mut self.stats_saved[slot * stats_len..(slot + 1) * stats_len]);
        Ok(upload)
    }
}

impl std::fmt::Debug for RoundEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundEngine")
            .field("strategy", &self.cfg.strategy.name())
            .field("round", &self.round)
            .field("clients", &self.data.num_clients())
            .field("dim", &self.model.num_params())
            .finish()
    }
}

/// Keeps the fastest `C` sticky and `K − C` fresh offers
/// (over-commitment, §5.6); returns their invitation indices, the kept
/// sticky ones first.
fn keep(plan: &RoundPlan, times: &[ClientRoundTime]) -> Vec<usize> {
    let sticky_n = plan.sticky_invites.len();
    let (sticky, fresh) = times.split_at(sticky_n);
    let mut kept = fastest(sticky, plan.keep_sticky);
    kept.extend(fastest(fresh, plan.keep_fresh).iter().map(|i| i + sticky_n));
    kept
}

/// The fold's producer: pulls each arrival out of `io` into the next
/// empty buffer, and hands every rejection back to `io` before its next
/// [`RoundIo::next_upload`]. Once every arrival is out it delivers the
/// rejections still to come, then returns the buffers as the engine lets
/// go of them.
fn produce(
    io: &mut dyn RoundIo,
    round: u32,
    empties: mpsc::Receiver<Vec<u8>>,
    arrival_tx: mpsc::SyncSender<(Arrival, Vec<u8>)>,
    rejections: mpsc::Receiver<(usize, WireError)>,
) -> Vec<Vec<u8>> {
    let mut last = None;
    while let Ok(mut payload) = empties.recv() {
        for (slot, err) in rejections.try_iter() {
            io.rejected(round, slot, &err);
        }
        payload.clear();
        let Some(arrival) = io.next_upload(round, &mut payload) else {
            last = Some(payload);
            break;
        };
        if arrival_tx.send((arrival, payload)).is_err() {
            break;
        }
    }
    drop(arrival_tx);
    for (slot, err) in rejections {
        io.rejected(round, slot, &err);
    }
    last.into_iter().chain(empties).collect()
}

/// The round's modeled timing, over the kept clients that offered: the
/// round lasts as long as the slowest of them. A kept client that never
/// offered (a group with fewer offers than keeps) uploads nothing and
/// takes no time.
fn model_time(rec: &mut RoundRecord, kept: &[usize], times: &[ClientRoundTime], offers: &[Offer]) {
    let offered = kept.iter().filter(|&&i| offers[i].is_some());
    let kn = offered.clone().count().max(1) as f64;
    for t in offered.map(|&i| &times[i]) {
        rec.round_secs = rec.round_secs.max(t.total_secs());
        rec.slowest_download_secs = rec.slowest_download_secs.max(t.download_secs);
        rec.slowest_upload_secs = rec.slowest_upload_secs.max(t.upload_secs);
        rec.slowest_compute_secs = rec.slowest_compute_secs.max(t.compute_secs);
        rec.mean_download_secs += t.download_secs;
        rec.mean_upload_secs += t.upload_secs;
        rec.mean_compute_secs += t.compute_secs;
    }
    rec.mean_download_secs /= kn;
    rec.mean_upload_secs /= kn;
    rec.mean_compute_secs /= kn;
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlueFlParams, InProcessClients, StrategyConfig};
    use gluefl_data::DatasetProfile;
    use gluefl_ml::DatasetModel;

    /// The initial weights are drawn by the engine, not by [`RunSetup`];
    /// the fingerprint is the parameter bits a paper-shape run started
    /// from when `RunSetup` still drew them.
    #[test]
    fn initial_weights_are_the_model_init_draw() {
        let cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::FedAvg,
            0.1,
            1,
            31,
        );
        let engine = RoundEngine::new(cfg.clone(), RunSetup::new(&cfg));
        let params = engine.model().params();
        let fnv = params
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!((params.len(), fnv), (38_176, 0x79a0_562f_4922_5a8b));
    }

    /// Only the kept clients that offered time the round: a kept client
    /// without an offer (its placeholder upload time is
    /// [`MISSING_OFFER_SECS`]) and a client that offered but was not kept
    /// set neither the round's time nor its slowest or mean upload.
    #[test]
    fn model_time_covers_only_the_kept_clients_that_offered() {
        let time = |download_secs, compute_secs, upload_secs| ClientRoundTime {
            download_secs,
            compute_secs,
            upload_secs,
        };
        let times = [
            time(1.0, 2.0, 3.0),
            time(4.0, 1.0, 2.0),
            time(0.5, 0.5, MISSING_OFFER_SECS),
            time(9.0, 9.0, 9.0),
        ];
        let offers = [Some(10), Some(20), None, Some(30)];
        let mut rec = RoundRecord::default();
        model_time(&mut rec, &[0, 1, 2], &times, &offers);
        assert_eq!(rec.round_secs, 7.0);
        assert_eq!(rec.slowest_upload_secs, 3.0);
        assert_eq!(rec.mean_upload_secs, 2.5);
        assert_eq!(
            (rec.slowest_download_secs, rec.mean_download_secs),
            (4.0, 2.5)
        );
        assert_eq!(
            (rec.slowest_compute_secs, rec.mean_compute_secs),
            (2.0, 1.5)
        );
    }

    /// The in-process clients behind a switch: while `cut_off` is set
    /// nobody is reachable, and any call past planning in round 0 — the
    /// round run with the switch on — panics.
    struct Unreachable {
        clients: InProcessClients,
        cut_off: bool,
    }

    impl Unreachable {
        fn only_after_round_0(round: u32, call: &str) {
            assert!(round != 0, "{call} called in a round that invited nobody");
        }
    }

    impl RoundIo for Unreachable {
        fn reachable(&self, id: ClientId) -> bool {
            !self.cut_off && self.clients.reachable(id)
        }

        fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>) {
            Self::only_after_round_0(round, "invite");
            self.clients.invite(round, invited, broadcast);
        }

        fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
            Self::only_after_round_0(round, "offers");
            self.clients.offers(round, offers);
        }

        fn grant(&mut self, round: u32, kept: &[usize]) {
            Self::only_after_round_0(round, "grant");
            self.clients.grant(round, kept);
        }

        fn next_upload(&mut self, round: u32, payload: &mut Vec<u8>) -> Option<Arrival> {
            Self::only_after_round_0(round, "next_upload");
            self.clients.next_upload(round, payload)
        }

        fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
            self.clients.rejected(round, slot, err);
        }
    }

    /// A small FedAvg run: 16 hidden units, everyone always online.
    fn tiny_fedavg() -> SimConfig {
        let mut cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::FedAvg,
            0.02,
            3,
            11,
        );
        cfg.model.hidden = vec![16];
        cfg.dataset.feature_dim = 12;
        cfg.dataset.classes = 8;
        cfg.dataset.test_samples = 200;
        cfg.availability = None;
        cfg
    }

    /// The in-process clients, their uploads delivered in descending
    /// client id: every upload but a round's last arrives ahead of a
    /// lower id, so the gate parks it.
    struct Descending {
        clients: InProcessClients,
        /// The round's uploads, lowest id last, once the first is asked for.
        ready: Option<Vec<(Arrival, Vec<u8>)>>,
    }

    impl RoundIo for Descending {
        fn reachable(&self, id: ClientId) -> bool {
            self.clients.reachable(id)
        }

        fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>) {
            self.clients.invite(round, invited, broadcast);
        }

        fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
            self.clients.offers(round, offers);
        }

        fn grant(&mut self, round: u32, kept: &[usize]) {
            self.ready = None;
            self.clients.grant(round, kept);
        }

        fn next_upload(&mut self, round: u32, payload: &mut Vec<u8>) -> Option<Arrival> {
            let clients = &mut self.clients;
            let ready = self.ready.get_or_insert_with(|| {
                let mut bytes = Vec::new();
                std::iter::from_fn(|| {
                    Some((
                        clients.next_upload(round, &mut bytes)?,
                        std::mem::take(&mut bytes),
                    ))
                })
                .collect()
            });
            let (arrival, bytes) = ready.pop()?;
            payload.extend_from_slice(&bytes);
            Some(arrival)
        }

        fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
            self.clients.rejected(round, slot, err);
        }
    }

    /// A FedAvg round folded in client-id order — the in-process
    /// clients' order — folds every dense upload from its frame bytes:
    /// the only `f32` buffer the engine's pool ever lends is the round's
    /// accumulator, which comes back with the applied update.
    #[test]
    fn an_in_order_dense_round_takes_no_value_buffer_for_its_uploads() {
        let cfg = tiny_fedavg();
        let setup = RunSetup::new(&cfg);
        let mut io = InProcessClients::new(&cfg, &setup);
        let mut engine = RoundEngine::new(cfg.clone(), setup);
        for _ in 0..cfg.rounds {
            let rec = engine.step(&mut io);
            assert!(rec.kept > 1 && rec.changed_positions > 0);
            assert_eq!(engine.scratch.idle_buffers(), 1, "round {}", rec.round);
        }
    }

    /// Uploads arriving in descending client id are parked, each
    /// materialized into a pooled `f32` buffer, and folded in id order
    /// once the lowest arrives: the round's weights are the in-order
    /// round's bit for bit, and every buffer the round takes from the
    /// pool comes back — the fold's two payload buffers (one shared with
    /// the broadcast) and, beside the accumulator, one value buffer per
    /// parked upload, the same ones round after round.
    #[test]
    fn a_descending_round_returns_every_buffer_it_parks_in() {
        let cfg = tiny_fedavg();
        let setup = RunSetup::new(&cfg);
        let mut in_order = InProcessClients::new(&cfg, &setup);
        let mut reference = RoundEngine::new(cfg.clone(), setup);
        let setup = RunSetup::new(&cfg);
        let mut io = Descending {
            clients: InProcessClients::new(&cfg, &setup),
            ready: None,
        };
        let mut engine = RoundEngine::new(cfg.clone(), setup);
        for _ in 0..cfg.rounds {
            let _ = reference.step(&mut in_order);
            let rec = engine.step(&mut io);
            assert!(rec.kept > 1, "nothing was parked");
            let pooled = (
                engine.scratch.idle_byte_buffers(),
                engine.scratch.idle_buffers(),
            );
            assert_eq!(pooled, (2, rec.kept), "round {}", rec.round);
            assert!(param_bits(&engine) == param_bits(&reference));
        }
    }

    fn param_bits(engine: &RoundEngine) -> Vec<u32> {
        engine
            .model()
            .params()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// A round whose sampler invites nobody moves no byte and no weight,
    /// yet is still a round: it is numbered, evaluated on schedule, and
    /// the next round folds as usual.
    #[test]
    fn a_round_that_invites_nobody_changes_nothing() {
        let mut cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            StrategyConfig::FedAvg,
            0.02,
            2,
            7,
        );
        cfg.model.hidden = vec![16];
        cfg.dataset.feature_dim = 12;
        cfg.dataset.classes = 8;
        cfg.dataset.test_samples = 200;
        cfg.eval_every = 1;
        cfg.availability = None;
        let k = cfg.round_size;
        let strategies = [
            StrategyConfig::FedAvg,
            StrategyConfig::MdFedAvg,
            StrategyConfig::GlueFl(GlueFlParams {
                q: 0.2,
                q_shr: 0.16,
                sticky_group: 4 * k,
                sticky_draw: 4 * k / 5,
                regen_interval: Some(5),
                compensation: gluefl_compress::CompensationMode::Rescaled,
                equal_weights: false,
            }),
        ];
        for strategy in strategies {
            cfg.strategy = strategy;
            let name = cfg.strategy.name();
            let setup = RunSetup::new(&cfg);
            let mut io = Unreachable {
                clients: InProcessClients::new(&cfg, &setup),
                cut_off: true,
            };
            let mut engine = RoundEngine::new(cfg.clone(), setup);
            let before = param_bits(&engine);

            let rec = engine.step(&mut io);
            assert_eq!((rec.round, rec.invited, rec.kept), (0, 0, 0), "{name}");
            assert_eq!(
                (
                    rec.down_bytes,
                    rec.up_bytes,
                    rec.wire_up_bytes,
                    rec.wire_broadcast_bytes
                ),
                (0, 0, 0, 0),
                "{name}"
            );
            assert_eq!(rec.changed_positions, 0, "{name}");
            assert!(param_bits(&engine) == before, "{name}: weights moved");
            assert!(rec.accuracy.is_some(), "{name}: round 0 not evaluated");

            io.cut_off = false;
            let rec = engine.step(&mut io);
            assert_eq!(rec.round, 1, "{name}");
            assert!(rec.kept > 0 && rec.invited >= rec.kept, "{name}");
            assert!(rec.down_bytes > 0 && rec.up_bytes > 0, "{name}");
            assert!(rec.changed_positions > 0, "{name}");
            assert!(
                param_bits(&engine) != before,
                "{name}: round 1 folded nothing"
            );
            assert_eq!(engine.skipped_uploads(), 0, "{name}");
            assert!(rec.accuracy.is_some(), "{name}: round 1 not evaluated");
        }
    }
}
