//! The round engine: the server procedure of Algorithm 3, once.
//!
//! [`RoundEngine`] owns everything the server side of a run owns — the
//! global model, the client [`Sampler`] and the strategy's fold, the
//! staleness tracker, the link/speed/availability models, the run RNG
//! and the [`ScratchPool`] — and [`RoundEngine::step`] is the only place
//! a round is sequenced:
//!
//! 1. **plan** — the sampler draws invitations among clients that are
//!    both online (availability model) and reachable ([`RoundIo`]); no
//!    client is invited twice;
//! 2. **broadcast** — every invited client is charged the positions it
//!    is stale on plus the strategy's mask, and the broadcast (one dense
//!    `F32` model frame plus the mask frame, if any) is serialized once;
//! 3. **invite / offers** — [`RoundIo::invite`] hands the broadcast to
//!    all invited clients; [`RoundIo::offers`] collects each one's
//!    predicted upload byte counts, which are the round's upload volume
//!    and, over the sampled links, the modeled transfer times. A client's
//!    turn — train, compress, price ([`crate::ClientTurn::run`]) — runs
//!    when something first needs its result: at the invitation when only
//!    the trained upload can price the offer, or, when the broadcast
//!    alone prices it ([`crate::ClientCompressor::shape_offer`]), only
//!    once the client is kept;
//! 4. **keep** — the fastest `C` sticky / `K − C` fresh finishers are
//!    kept (§5.6); [`RoundIo::grant`] tells the clients, and only kept
//!    uploads are ever serialized. Both `invite` and `grant` are timed as
//!    [`Phase::Train`];
//! 5. **fold** — each arrival from [`RoundIo::next_upload`] is decoded
//!    through the one upload grammar
//!    ([`wire_link::decode_upload_with_stats`]), validated against the
//!    strategy, the model dimension and the BN-statistic layout, and
//!    folded on the spot, at the sampler's weight for its client,
//!    through the [`StreamingAggregator`] — decoded and folded while
//!    the IO produces the next arrival. A producer
//!    thread owns the IO for this step and runs at most one arrival
//!    ahead; arrivals are folded in the order the IO produces them, so
//!    the overlap changes no bit. A lost or invalid upload is skipped
//!    and the round completes without it;
//! 6. **finish** — the strategy's finishing step (top-k, mask shift)
//!    yields the [`gluefl_tensor::MaskedUpdate`], which is applied with
//!    the word-level masked kernels; BN statistics get the Appendix-D
//!    plain mean over the *delivered* uploads; the staleness tracker
//!    records the changed positions; the sampler rebalances; the
//!    modeled round time is the slowest kept client that offered; the
//!    model is evaluated on schedule.
//!
//! Who the clients are is the [`RoundIo`]'s business. Its steps are per
//! *round*, not per client, so an implementation is free to run a
//! round's turns in one call ([`crate::Simulation`]: every invited
//! client's at `invite`, or only the kept clients' at `grant`) or to
//! wait on sockets under deadlines (`gluefl-transport`'s server). The
//! engine never reads a clock except through the attached telemetry
//! recorder, and never blocks except inside the IO or on its producer.
//!
//! Because both drivers run this one sequence over the same client half
//! ([`crate::ClientCompressor`]), their [`RoundRecord`]s and final
//! parameters are equal bit for bit by construction; the loopback suite
//! checks that the socket IO delivers what the in-process one does.

use crate::client::RunSetup;
use crate::config::SimConfig;
use crate::metrics::RoundRecord;
use crate::scratch::ScratchPool;
use crate::staleness::StalenessTracker;
use crate::strategies::{Group, Sampler, Strategy, Upload};
use crate::stream::StreamingAggregator;
use crate::wire_link;
use gluefl_data::SyntheticFlDataset;
use gluefl_ml::Mlp;
use gluefl_net::timing::{fastest, seconds_for_bytes, ClientRoundTime};
use gluefl_net::{LazyAvailability, LinkCache, SpeedCache};
use gluefl_sampling::ClientId;
use gluefl_telemetry::{EventKind, Histogram, Phase, Telemetry, PHASE_COUNT};
use gluefl_tensor::rng::{derive_seed, seeded_rng};
use gluefl_tensor::BitMask;
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
    /// tag; a client takes its turn — trains, compresses its delta and
    /// prices the staged upload ([`crate::ClientTurn::run`]) — once its
    /// offer or its upload needs it. A socket IO only sends the
    /// invitations, and each client trains on receipt. The in-process IO
    /// runs every turn before returning, unless the broadcast alone
    /// prices every upload ([`crate::ClientCompressor::shape_offer`]):
    /// then it holds the broadcast weights and runs no turn yet.
    fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>);

    /// Collects the invited clients' offers: `offers[i]` becomes the
    /// `(analytic bytes, wire bytes)` the `i`-th invited client priced
    /// its upload at, or stays `None` if it never answered. `times[i]`
    /// holds that client's modeled download and compute seconds, for an
    /// IO that turns modeled time into patience. The in-process IO only
    /// copies the prices its turns staged, or reports the one shape price
    /// for everyone; a socket IO waits for the `OFFER`s.
    fn offers(&mut self, round: u32, times: &[ClientRoundTime], offers: &mut [Option<(u64, u64)>]);

    /// Announces the keep decision: the invitation indices in `kept` are
    /// granted their upload slot, everyone else is dismissed. `times`
    /// now carries the modeled upload seconds too. An IO whose turns
    /// waited for this decision takes the kept clients' turns here, so
    /// the engine times this call as training.
    fn grant(&mut self, round: u32, kept: &[usize], times: &[ClientRoundTime]);

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
    /// Per-upload offered wire bytes (upload + BN-statistic frames).
    wire_up_bytes: Histogram,
}

/// Reads the recorder clock, or 0 with no recorder attached — the whole
/// cost of disabled instrumentation is this one untaken branch per phase
/// boundary.
#[inline]
fn tick(tel: &Option<EngineRecorder>) -> u64 {
    match tel {
        Some(t) => t.hub.now_nanos(),
        None => 0,
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
    /// Reused list of changed positions per round.
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
        let time_byte_factor = cfg.model.paper_scale_factor(dim);
        let time_params = cfg.model.reference_params as usize;
        Self {
            links: LinkCache::new(cfg.network, derive_seed(cfg.seed, "network", 0)),
            speeds: SpeedCache::new(cfg.device, derive_seed(cfg.seed, "devices", 0)),
            staleness: StalenessTracker::new(dim, n),
            rng: seeded_rng(cfg.seed, "simulation", 0),
            cfg,
            data,
            model,
            sampler,
            strategy,
            availability,
            stats_positions,
            time_byte_factor,
            time_params,
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
    /// [`RoundRecord::phase_nanos`], records them on the recorder's
    /// per-phase span table, and journals a round-done event. Without a
    /// recorder all of that is skipped and the measured fields stay zero.
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
        // Phase boundaries accumulate into a local table; the recorder
        // handle is cloned out of `self` (two `Arc` bumps) so measurement
        // never fights the `&mut self` borrows below.
        let tel = self.tel.clone();
        let step_start = tick(&tel);
        let mut phase_ns = [0u64; PHASE_COUNT];

        // --- Plan: the sampler asks about exactly the candidates it
        // considers, each answered by the IO and by advancing that
        // client's private availability trajectory to `round`. No
        // per-round O(N) scan happens anywhere. ---
        let plan = {
            let io = &*io;
            match &mut self.availability {
                Some(av) => {
                    let mut query = |id: ClientId| io.reachable(id) && av.is_online(id, round);
                    self.sampler.plan(&mut self.rng, &mut query)
                }
                None => {
                    let mut query = |id: ClientId| io.reachable(id);
                    self.sampler.plan(&mut self.rng, &mut query)
                }
            }
        };
        let mut invited = std::mem::take(&mut self.invited);
        invited.clear();
        invited.extend(plan.invited());
        let mut sorted_ids: Vec<ClientId> = invited.iter().map(|&(id, _)| id).collect();
        sorted_ids.sort_unstable();
        assert!(
            sorted_ids.windows(2).all(|w| w[0] < w[1]),
            "the sampler invites each client at most once"
        );
        phase_ns[Phase::Draw.index()] = tick(&tel).saturating_sub(step_start);
        let mut rec = RoundRecord {
            round,
            invited: invited.len(),
            ..Default::default()
        };
        if invited.is_empty() {
            self.invited = invited;
            self.finish_record(&tel, step_start, phase_ns, 0, &mut rec);
            return rec;
        }

        // --- Download accounting (every invited client syncs) and the
        // broadcast frames. ---
        let broadcast_start = tick(&tel);
        let mask_bytes = self
            .strategy
            .round_mask()
            .map_or(0, |mask| legacy_mask_len(mask.len()));
        let download_bytes: Vec<u64> = invited
            .iter()
            .map(|&(id, _)| self.staleness.download_bytes(id) + mask_bytes)
            .collect();
        for &(id, _) in &invited {
            self.staleness.mark_synced(id);
        }
        rec.down_bytes = download_bytes.iter().sum();
        let mut frames = self.scratch.take_bytes();
        let writer = FrameWriter::new(WirePolicy {
            codec: Codec::F32,
            ..self.cfg.wire
        });
        let _ = writer.dense(&mut frames, round, Rounding::Nearest, self.model.params());
        if let Some(mask) = self.strategy.round_mask() {
            let _ = writer.mask(&mut frames, round, mask);
        }
        rec.wire_broadcast_bytes = frames.len() as u64;
        phase_ns[Phase::Broadcast.index()] = tick(&tel).saturating_sub(broadcast_start);

        // --- Invite: clients train, or wait to hear who is kept. ---
        let train_start = tick(&tel);
        io.invite(
            round,
            &invited,
            &Broadcast {
                frames: &frames,
                params: self.model.params(),
                mask: self.strategy.round_mask(),
            },
        );
        self.scratch.put_bytes(frames);
        phase_ns[Phase::Train.index()] = tick(&tel).saturating_sub(train_start);

        // --- Offers: predicted upload bytes → volume and modeled times.
        // Nothing is serialized yet: a frame's length depends only on the
        // upload's shape and index pattern, so the keep selection below
        // runs on offered lengths, the information order of a real
        // server. Every invited client's offered bytes count toward the
        // volume metrics, kept or not. ---
        let offer_start = tick(&tel);
        let mut times: Vec<ClientRoundTime> = invited
            .iter()
            .zip(&download_bytes)
            .map(|(&(id, _), &down)| ClientRoundTime {
                download_secs: seconds_for_bytes(
                    (down as f64 * self.time_byte_factor) as u64,
                    self.links.get(id).down_mbps,
                ),
                compute_secs: self.cfg.local_steps as f64
                    * self
                        .cfg
                        .device
                        .step_seconds(self.time_params, self.speeds.get(id)),
                upload_secs: MISSING_OFFER_SECS,
            })
            .collect();
        let mut offers: Vec<Option<(u64, u64)>> = vec![None; invited.len()];
        io.offers(round, &times, &mut offers);
        for ((&(id, _), time), offer) in invited.iter().zip(&mut times).zip(&offers) {
            if let Some((analytic, wire)) = *offer {
                // Offers are the IO's numbers, not the engine's.
                rec.up_bytes = rec.up_bytes.saturating_add(analytic);
                rec.wire_up_bytes = rec.wire_up_bytes.saturating_add(wire);
                if let Some(t) = &tel {
                    t.wire_up_bytes.observe(wire);
                }
                time.upload_secs = seconds_for_bytes(
                    (wire as f64 * self.time_byte_factor) as u64,
                    self.links.get(id).up_mbps,
                );
            }
        }
        phase_ns[Phase::Encode.index()] = tick(&tel).saturating_sub(offer_start);

        // --- Keep the fastest per group (over-commitment, §5.6). ---
        let sticky_n = plan.sticky_invites.len();
        let (sticky_times, fresh_times) = times.split_at(sticky_n);
        let kept_sticky = fastest(sticky_times, plan.keep_sticky);
        let mut kept_fresh = fastest(fresh_times, plan.keep_fresh);
        kept_fresh.iter_mut().for_each(|i| *i += sticky_n);
        let kept: Vec<usize> = kept_sticky.iter().chain(&kept_fresh).copied().collect();
        rec.kept = kept.len();
        // An IO may take the kept clients' turns only now that it knows
        // who they are, so the grant is training time.
        let grant_start = tick(&tel);
        io.grant(round, &kept, &times);
        phase_ns[Phase::Train.index()] += tick(&tel).saturating_sub(grant_start);

        // --- Fold each arrival the moment it resolves, while the IO
        // produces the next one. Arrival order is whatever the IO
        // produces; the gate parks early arrivals so the strategy folds
        // in ascending client-id order regardless, each upload at its
        // client's weight. ---
        let fold_start = tick(&tel);
        let kept_weights: Vec<(ClientId, f32)> = kept
            .iter()
            .map(|&i| {
                let (id, group) = invited[i];
                (id, self.sampler.weight(id, group) as f32)
            })
            .collect();
        let mut gate =
            StreamingAggregator::begin(round, &kept_weights, &mut self.strategy, &mut self.scratch);
        let stats_len = self.stats_positions.len();
        self.stats_saved.clear();
        self.stats_saved.resize(kept.len() * stats_len, 0.0);
        // Kept-slot number of each invitation index, `usize::MAX` when
        // not kept; a delivered slot is marked by `delivered`.
        let mut slot_of = vec![usize::MAX; invited.len()];
        for (slot, &i) in kept.iter().enumerate() {
            slot_of[i] = slot;
        }
        let mut delivered = vec![false; kept.len()];
        let payloads = [self.scratch.take_bytes(), self.scratch.take_bytes()];
        // Two stages, one arrival apart. The producer owns the IO and
        // fills a payload buffer with the next arrival while this thread
        // decodes, validates and folds the previous one; the two buffers
        // cycle between them, rejections travel back to the producer.
        // Every channel end lives inside the scope, so a panic on either
        // side drops the other side's peer and nothing stays blocked.
        std::thread::scope(|s| {
            let (arrival_tx, arrivals) = mpsc::sync_channel::<(Arrival, Vec<u8>)>(1);
            let (empty_tx, empties) = mpsc::channel::<Vec<u8>>();
            let (reject_tx, rejections) = mpsc::channel::<(usize, WireError)>();
            for buf in payloads {
                let _ = empty_tx.send(buf);
            }
            let producer = s.spawn(move || {
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
                // Every arrival is out: deliver the rejections still to
                // come, then collect the buffers as the engine lets go.
                drop(arrival_tx);
                for (slot, err) in rejections {
                    io.rejected(round, slot, &err);
                }
                last.into_iter().chain(empties).collect::<Vec<_>>()
            });
            phase_ns[Phase::Fold.index()] = tick(&tel).saturating_sub(fold_start);
            loop {
                let wait_start = tick(&tel);
                let next = arrivals.recv();
                let decode_start = tick(&tel);
                phase_ns[Phase::Encode.index()] += decode_start.saturating_sub(wait_start);
                let Ok((arrival, payload)) = next else {
                    break;
                };
                let (i, upload) = match arrival {
                    Arrival::Delivered(i) => {
                        let slot = slot_of[i];
                        assert!(
                            slot != usize::MAX,
                            "RoundIo delivered a slot that was not kept"
                        );
                        match self.decode_arrival(&payload, slot) {
                            Ok(upload) => {
                                delivered[slot] = true;
                                (i, Some(upload))
                            }
                            Err(e) => {
                                let _ = reject_tx.send((i, e));
                                (i, None)
                            }
                        }
                    }
                    Arrival::Lost(i) => (i, None),
                };
                // The bytes are spent; the producer may refill the buffer.
                let _ = empty_tx.send(payload);
                let fold_start = tick(&tel);
                phase_ns[Phase::Decode.index()] += fold_start.saturating_sub(decode_start);
                let id = invited[i].0;
                match upload {
                    Some(upload) => gate.accept(&mut self.strategy, id, upload, &mut self.scratch),
                    None => {
                        self.skipped_uploads += 1;
                        gate.skip(&mut self.strategy, id, &mut self.scratch)
                    }
                }
                .expect("RoundIo resolves each kept slot exactly once");
                phase_ns[Phase::Fold.index()] += tick(&tel).saturating_sub(fold_start);
            }
            // The producer ends once it holds every rejection and buffer.
            let join_start = tick(&tel);
            drop((empty_tx, reject_tx));
            let buffers = producer
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for buf in buffers {
                self.scratch.put_bytes(buf);
            }
            phase_ns[Phase::Encode.index()] += tick(&tel).saturating_sub(join_start);
        });
        let topk_start = tick(&tel);
        let update = gate.finish(&mut self.strategy, &mut self.scratch);
        phase_ns[Phase::TopK.index()] = tick(&tel).saturating_sub(topk_start);

        // --- Apply the masked update and record changed positions. A
        // masking strategy's update covers O(q·d) positions; the
        // word-level scatter / masked AXPY touches only those, and the
        // changed-position scan walks the mask instead of the dense
        // vector. ---
        let apply_start = tick(&tel);
        update.add_to(self.model.params_mut());
        let mut changed = std::mem::take(&mut self.changed);
        changed.clear();
        update.for_each_nonzero(|j, _| {
            // Strategy contract: BN-statistic positions are uncovered or
            // carry exact zeros — a nonzero here would double-apply with
            // the Appendix-D mean below.
            debug_assert!(
                self.stats_positions.binary_search(&j).is_err(),
                "strategy update has a nonzero value at BN-statistic position {j}"
            );
            changed.push(j);
        });
        // BatchNorm statistics: plain mean over the delivered uploads'
        // stats frames (Appendix D), added straight into the parameters.
        let delivered_count = delivered.iter().filter(|&&d| d).count();
        if delivered_count > 0 {
            let inv_k = 1.0 / delivered_count as f32;
            let params = self.model.params_mut();
            for (j, &p) in self.stats_positions.iter().enumerate() {
                let mean: f32 = (0..kept.len())
                    .filter(|&slot| delivered[slot])
                    .map(|slot| self.stats_saved[slot * stats_len + j])
                    .sum::<f32>()
                    * inv_k;
                params[p] += mean;
                if mean != 0.0 {
                    changed.push(p);
                }
            }
        }
        rec.changed_positions = changed.len();
        self.staleness.record_update(changed.iter().copied());
        self.changed = changed;
        self.scratch.put_update(update);
        phase_ns[Phase::Apply.index()] = tick(&tel).saturating_sub(apply_start);

        // --- Post-round bookkeeping (sticky rebalance). ---
        let rebalance_start = tick(&tel);
        let ids = |idx: &[usize]| -> Vec<ClientId> { idx.iter().map(|&i| invited[i].0).collect() };
        self.sampler
            .rebalance(&mut self.rng, &ids(&kept_sticky), &ids(&kept_fresh));
        phase_ns[Phase::Rebalance.index()] = tick(&tel).saturating_sub(rebalance_start);
        self.invited = invited;

        // --- Modeled timing over the kept clients that offered: the
        // round lasts as long as the slowest of them. A kept client that
        // never offered (a group with fewer offers than keeps) uploads
        // nothing and takes no time. ---
        let offered: Vec<&ClientRoundTime> = kept
            .iter()
            .filter(|&&i| offers[i].is_some())
            .map(|&i| &times[i])
            .collect();
        let kn = offered.len().max(1) as f64;
        for t in offered {
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

        self.finish_record(&tel, step_start, phase_ns, delivered_count, &mut rec);
        rec
    }

    /// Decodes one delivered payload and checks that the engine can use
    /// it: the upload variant is one the fold [`Strategy::accepts`],
    /// dimensions agree with the model, explicit index lists are strictly
    /// increasing and in range (the accumulation kernels index with
    /// them), and the stats frame matches the BN-statistic layout. On
    /// success the stats values are in kept slot `slot` of `stats_saved`.
    fn decode_arrival(&mut self, payload: &[u8], slot: usize) -> Result<Upload, WireError> {
        let dim = self.model.num_params();
        let stats_len = self.stats_positions.len();
        let (upload, stats_frame) = wire_link::decode_upload_with_stats(
            payload,
            self.strategy.round_mask(),
            &mut self.scratch,
        )?;
        let err = if upload.dim() != dim || stats_frame.dim != dim {
            Some(WireError::DimMismatch {
                declared: if upload.dim() != dim {
                    upload.dim()
                } else {
                    stats_frame.dim
                },
                expected: dim,
            })
        } else if !self.strategy.accepts(&upload) {
            let arrived = frame_kind_from_header(payload)
                .expect("the payload's first frame decoded a moment ago");
            Some(WireError::UnexpectedKind(arrived.id()))
        } else if let Err(e) = check_upload_indices(&upload, dim) {
            Some(e)
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

    /// Closes a round's record: publishes the measured phases (one span
    /// per non-[`Phase::Train`] phase — training spans are emitted by the
    /// training paths themselves, block by block) and a round-done
    /// journal event, then evaluates on schedule. Evaluation is outside
    /// [`RoundRecord::step_nanos`].
    fn finish_record(
        &mut self,
        tel: &Option<EngineRecorder>,
        step_start: u64,
        phase_ns: [u64; PHASE_COUNT],
        delivered: usize,
        rec: &mut RoundRecord,
    ) {
        rec.phase_nanos = phase_ns;
        rec.step_nanos = tick(tel).saturating_sub(step_start);
        if let Some(t) = tel {
            for p in Phase::ALL {
                let n = phase_ns[p.index()];
                if n > 0 && p != Phase::Train {
                    t.hub.record_phase(p, n, rec.round, -1);
                }
            }
            let kept = u32::try_from(delivered).unwrap_or(u32::MAX);
            t.hub.event(rec.round, -1, EventKind::RoundDone { kept });
        }
        let every = self.cfg.eval_every.max(1);
        if (rec.round + 1).is_multiple_of(every) || rec.round + 1 == self.cfg.rounds {
            // Evaluate through a pooled slot so eval rounds reuse warm
            // forward buffers. The forward pass is the same GEMM-backed
            // kernel path training uses; at test-set batch sizes it
            // shards GEMM row blocks across threads (bit-identical to one
            // thread — rows never share an accumulator).
            let mut slot = self.scratch.take_train_slot();
            let (tx, ty) = self.data.test_set();
            let m = self.model.evaluate_into(tx, ty, &mut slot.scratch);
            self.scratch.put_train_slot(slot);
            rec.accuracy = Some(if self.cfg.use_top5 { m.top5 } else { m.top1 });
            rec.loss = Some(m.loss);
        }
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

/// Every explicit-position index list inside an upload must be strictly
/// increasing and within the model dimension.
fn check_upload_indices(upload: &Upload, dim: usize) -> Result<(), WireError> {
    let check = |indices: &[u32]| {
        if let Some(at) = indices.windows(2).position(|w| w[0] >= w[1]) {
            return Err(WireError::IndicesNotIncreasing { position: at + 1 });
        }
        match indices.last() {
            Some(&index) if index as usize >= dim => Err(WireError::IndexOutOfRange { index, dim }),
            _ => Ok(()),
        }
    };
    match upload {
        Upload::Dense(_) | Upload::KnownMask(_) => Ok(()),
        Upload::Sparse(u) => check(u.indices()),
        Upload::Ternary(t) => check(&t.indices),
        Upload::MaskSplit(s) => check(s.unique.indices()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyConfig;
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
}
