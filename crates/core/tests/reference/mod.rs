//! One federated round as the GlueFL paper writes it, to hold the round
//! engine against (`plays_reference/`).
//!
//! [`Reference`] plays Algorithm 3 — sticky draw, broadcast, local
//! training, re-scaled error compensation (Eq. 7), the split along `M_t`,
//! keep-fastest over-commitment (§5.6), the weighted fold, mask shifting
//! and regeneration (§3.2–3.3) — and the FedAvg, MD-FedAvg, STC and APF
//! rounds, with the plainest data that holds them: dense `Vec<f32>`
//! vectors, `Vec<bool>` masks, a `BTreeMap` residual bank, staleness
//! recounted per position ([`stale_positions`]), top-k by sorting
//! ([`top_k`]), uploads folded in ascending client id ([`fold`]). Nothing
//! is pooled, packed, streamed, cached or threaded. Production code is
//! reused only where another suite pins it: the [`Sampler`] (on the
//! engine's seeded streams), the link, speed and eager availability
//! models, [`RunSetup`], local training ([`train_client_into`] on a fully
//! materialised shard), APF's freeze state ([`Apf::observe`]), and the
//! wire codec's frame lengths and shipped values.
//!
//! Three rulings the paper leaves open are written here as code, as
//! production stands today:
//! * **dismissed clients** — the keep is decided before anyone trains,
//!   on the nominal price of each upload: the length its count takes in
//!   the legacy layout under the run's codec, which the broadcast fixes.
//!   A kept STC or GlueFL client banks `Δ + s·h − sent` and folds its
//!   codec loss back; a dismissed client trains nothing, so its bank
//!   ends the round as it began ([`Reference::round`]);
//! * **the upload ledger** — only the kept uploads are sent, so only they
//!   count: each one's frames as `wire_up_bytes`, and the same upload's
//!   legacy-F32 frames as `up_bytes`;
//! * **unbiasedness** — a kept client folds at the sampler's designed
//!   inclusion weight ([`Sampler::weight`]), not at its probability of
//!   being invited *and* kept, so over-commitment leans the aggregate
//!   toward fast clients.

// Each suite that includes this module uses a different part of it.
#![allow(dead_code)]

use gluefl_compress::stc::keep_count;
use gluefl_compress::{Apf, CompensationMode};
use gluefl_core::strategies::{Group, Sampler};
use gluefl_core::{local_train_seed, train_client_into, RunSetup, SimConfig};
use gluefl_core::{RoundRecord, StrategyConfig as Strat, TrainSlot};
use gluefl_ml::TrainScratch;
use gluefl_net::timing::{seconds_for_bytes, ClientRoundTime};
use gluefl_net::AvailabilityTraceRef;
use gluefl_sampling::{ClientId, DenseOnline};
use gluefl_tensor::rng::{derive_seed, seeded_rng};
use gluefl_tensor::BitMask;
use gluefl_wire::{decode_frame_prefix, Codec, FrameWriter, Rounding, WirePolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;

/// The `k` in-scope positions of largest magnitude, ascending — larger
/// `|v|` first, then the smaller index, NaN last. When fewer than `k`
/// values are nonzero, zeros fill the selection in index order.
pub fn top_k(values: &[f32], k: usize, in_scope: impl Fn(usize) -> bool) -> Vec<usize> {
    let key = |v: f32| (!v.is_nan()).then(|| v.abs().to_bits());
    let mut order: Vec<usize> = (0..values.len()).filter(|&i| in_scope(i)).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(key(values[i])), i));
    order.truncate(k);
    order.sort_unstable();
    order
}

/// One upload as `(position, value, under GlueFL's shared mask)` entries.
pub type Entries = Vec<(usize, f32, bool)>;

/// The server's fold: `Σ w·v` per position, uploads in the order given
/// (ascending client id), each sum from `+0.0`. Values under GlueFL's
/// shared mask sum into the second vector, all others into the first.
pub fn fold<'a>(dim: usize, kept: impl IntoIterator<Item = (f32, &'a Entries)>) -> [Vec<f32>; 2] {
    let mut sums = [vec![0.0f32; dim], vec![0.0f32; dim]];
    for (w, entries) in kept {
        for &(i, v, shared) in entries {
            sums[usize::from(shared)][i] += w * v;
        }
    }
    sums
}

/// Positions changed after version `since`, given each position's
/// last-change version — what a client holding `since` downloads.
pub fn stale_positions(last_changed: &[u32], since: u32) -> Vec<u32> {
    let changed = |&j: &u32| last_changed[j as usize] > since;
    (0..last_changed.len() as u32).filter(changed).collect()
}

fn ones(mask: &[bool]) -> impl Iterator<Item = usize> + '_ {
    (0..mask.len()).filter(|&i| mask[i])
}

fn bools(mask: &BitMask) -> Vec<bool> {
    (0..mask.len()).map(|i| mask.get(i)).collect()
}

/// What a client sends, in the layout its frames carry.
#[derive(Debug, Clone)]
pub enum Sent {
    /// Every position (FedAvg, MD-FedAvg).
    Dense(Vec<f32>),
    /// Values at explicit positions (STC).
    Sparse(Vec<u32>, Vec<f32>),
    /// Signs at explicit positions and one magnitude `μ` (STC-quant).
    Ternary(Vec<u32>, Vec<bool>, f32),
    /// Values under the round mask (APF's active set).
    Known(Vec<f32>),
    /// GlueFL: values under `M_t`, then values at explicit positions.
    Split(Vec<f32>, Vec<u32>, Vec<f32>),
}

impl Sent {
    /// Every value sent, located; `mask` is the round's.
    pub fn entries(&self, mask: Option<&[bool]>) -> Entries {
        let under = |values: &[f32], shared| -> Entries {
            let at = ones(mask.expect("a mask-aligned part needs the round mask"));
            at.zip(values).map(|(i, &v)| (i, v, shared)).collect()
        };
        let at = |idx: &[u32], values: &[f32]| -> Entries {
            let at = idx.iter().map(|&i| i as usize);
            at.zip(values).map(|(i, &v)| (i, v, false)).collect()
        };
        match self {
            Sent::Dense(v) => v.iter().enumerate().map(|(i, &v)| (i, v, false)).collect(),
            Sent::Sparse(idx, v) => at(idx, v),
            Sent::Ternary(idx, signs, mu) => {
                let v: Vec<f32> = signs.iter().map(|&s| if s { *mu } else { -mu }).collect();
                at(idx, &v)
            }
            Sent::Known(v) => under(v, false),
            Sent::Split(shared, idx, v) => [under(shared, true), at(idx, v)].concat(),
        }
    }

    /// This upload's frames, then the BN-statistic frame, as `policy`
    /// writes them, quantized with the client's two seeds.
    fn encode(
        &self,
        stats: &[f32],
        dim: usize,
        round: u32,
        policy: WirePolicy,
        seeds: [u64; 2],
    ) -> Vec<u8> {
        let w = FrameWriter::new(policy);
        let rounding = |seed| match policy.codec {
            Codec::QuantU8 => Rounding::Stochastic { seed },
            Codec::F32 | Codec::F16 => Rounding::Nearest,
        };
        let (r, out) = (rounding(seeds[0]), &mut Vec::new());
        let _ = match self {
            Sent::Dense(v) => w.dense(out, round, r, v),
            Sent::Sparse(idx, v) => w.sparse(out, round, r, dim, idx, v),
            Sent::Ternary(idx, signs, mu) => w.ternary(out, round, dim, *mu, idx, signs),
            Sent::Known(v) => w.known_mask(out, round, r, dim, v),
            Sent::Split(shared, idx, v) => {
                w.known_mask(out, round, r, dim, shared) + w.sparse(out, round, r, dim, idx, v)
            }
        };
        let _ = w.known_mask(out, round, rounding(seeds[1]), dim, stats);
        std::mem::take(out)
    }
}

/// The values a receiver decodes from `frames`, in frame order — a
/// ternary frame's signs and `μ` travel exactly and are left out.
fn decoded(mut frames: &[u8]) -> Vec<f32> {
    let mut values = Vec::new();
    while !frames.is_empty() {
        let (frame, tail) = decode_frame_prefix(frames).expect("a frame just encoded decodes");
        if !frame.kind.is_ternary() {
            frame.values_into(&mut values);
        }
        frames = tail;
    }
    values
}

/// A client's upload, and the residual `h` and weight `ν` it banks if it
/// is kept (`None` for the strategies without error feedback).
type Turn = (Sent, Option<(Vec<f32>, f64)>);

/// What one reference round decided and priced.
#[derive(Debug, Default)]
pub struct Played {
    pub invited: Vec<(ClientId, Group)>,
    /// Invitation indices of the kept clients: sticky first, each group
    /// fastest first.
    pub kept: Vec<usize>,
    /// Every field a driver's record compares on: the bytes, the
    /// modeled seconds, the changed positions and the evaluation.
    pub record: RoundRecord,
}

/// A run of the paper's rounds; see the module docs.
pub struct Reference {
    cfg: SimConfig,
    setup: RunSetup,
    pub params: Vec<f32>,
    /// BN-statistic positions: no top-k and no mask selects them.
    stats: Vec<bool>,
    sampler: Sampler,
    rng: StdRng,
    availability: Option<AvailabilityTraceRef>,
    /// GlueFL's shared mask `M_t`, or APF's active mask.
    mask: Option<Vec<bool>>,
    apf: Option<Apf>,
    /// Each client's residual `h` and the weight `ν` it was banked at.
    pub bank: BTreeMap<ClientId, (Vec<f32>, f64)>,
    /// Per position, the model version that last changed it.
    last_changed: Vec<u32>,
    /// Per client, the version it last downloaded.
    synced: BTreeMap<ClientId, u32>,
    version: u32,
    round: u32,
}

impl Reference {
    /// The run of `cfg`, every random stream seeded as the engine seeds
    /// it. GlueFL's initial `M_t` is a random `q_shr` of the trainable
    /// positions, drawn after the sampler's sticky group.
    pub fn new(cfg: &SimConfig) -> Self {
        let setup = RunSetup::new(cfg);
        let init = &mut seeded_rng(cfg.seed, "model-init", 0);
        let params = gluefl_ml::Mlp::init(setup.topology.clone(), init)
            .params()
            .to_vec();
        let (stats, dim) = (bools(&setup.stats_excluded()), setup.topology.num_params());
        let mut strategy_rng = seeded_rng(cfg.seed, "strategy", 0);
        let sampler = Sampler::new(cfg, setup.data.client_weights(), &mut strategy_rng);
        let (mut mask, mut apf) = (None, None);
        if let Strat::GlueFl(p) = &cfg.strategy {
            let mut eligible: Vec<usize> = (0..dim).filter(|&i| !stats[i]).collect();
            let k = keep_count(setup.trainable(), p.q_shr);
            let (picked, _) = eligible.partial_shuffle(&mut strategy_rng, k);
            mask = Some((0..dim).map(|i| picked.contains(&i)).collect());
        } else if let Strat::Apf { config } = &cfg.strategy {
            let a = Apf::new(dim, *config);
            (mask, apf) = (Some(bools(&a.active_mask())), Some(a));
        }
        let n = setup.data.num_clients();
        let seed = derive_seed(cfg.seed, "availability", 0);
        let availability = cfg
            .availability
            .map(|a| AvailabilityTraceRef::new(n, a.online_fraction, a.mean_session_rounds, seed));
        Self {
            rng: seeded_rng(cfg.seed, "simulation", 0),
            cfg: cfg.clone(),
            last_changed: vec![0; dim],
            bank: BTreeMap::new(),
            synced: BTreeMap::new(),
            version: 0,
            round: 0,
            setup,
            params,
            stats,
            sampler,
            availability,
            mask,
            apf,
        }
    }

    /// Client `id`'s local training from the broadcast weights: its
    /// trainable delta (BN statistics zeroed) and its BN-statistic drift.
    fn train(&self, round: u32, id: ClientId) -> (Vec<f32>, Vec<f32>) {
        let (cfg, s) = (&self.cfg, &self.setup);
        let mut delta = vec![0.0; self.params.len()];
        let mut stats = vec![0.0; s.stats_positions.len()];
        train_client_into(
            &s.topology,
            &self.params,
            &s.data.client(id),
            cfg.local_steps,
            cfg.batch_size,
            cfg.lr_at_round(round),
            cfg.momentum,
            local_train_seed(cfg.seed, round, id),
            &mut delta,
            &s.stats_positions,
            &mut stats,
            &mut TrainSlot::default(),
        );
        (delta, stats)
    }

    /// Error feedback: `Δ ← Δ + s·h` with `s = 1` (raw) or `ν_old/ν`
    /// (re-scaled, Eq. 7), when the client banked a residual.
    fn compensate(&self, id: ClientId, delta: &mut [f32], weight: f64, mode: CompensationMode) {
        let Some((h, banked)) = self.bank.get(&id) else {
            return;
        };
        let s = match mode {
            CompensationMode::None => return,
            CompensationMode::Raw => 1.0,
            CompensationMode::Rescaled => (banked / weight) as f32,
        };
        delta.iter_mut().zip(h).for_each(|(d, h)| *d += s * h);
    }

    /// Client `id`'s upload for its trained `delta` at aggregation weight
    /// `weight`, and for the strategies with error feedback the residual
    /// `Δ − sent` and weight it banks if it is kept.
    fn compress(&self, round: u32, id: ClientId, weight: f64, mut delta: Vec<f32>) -> Turn {
        let (stats, trainable) = (&self.stats, self.setup.trainable());
        let under = |m: &[bool], delta: &[f32]| -> Vec<f32> { ones(m).map(|i| delta[i]).collect() };
        let at = |idx: Vec<usize>, delta: &[f32]| -> (Vec<u32>, Vec<f32>) {
            idx.into_iter().map(|i| (i as u32, delta[i])).unzip()
        };
        let (sent, banked) = match &self.cfg.strategy {
            Strat::FedAvg | Strat::MdFedAvg => return (Sent::Dense(delta), None),
            Strat::Apf { .. } => {
                return (
                    Sent::Known(under(self.mask.as_ref().expect("mask"), &delta)),
                    None,
                )
            }
            Strat::Stc { q } | Strat::StcQuantized { q } => {
                self.compensate(id, &mut delta, 1.0, CompensationMode::Raw);
                let top = top_k(&delta, keep_count(trainable, *q), |i| !stats[i]);
                let (idx, values) = at(top, &delta);
                let sent = if let Strat::Stc { .. } = self.cfg.strategy {
                    Sent::Sparse(idx, values)
                } else {
                    // Footnote 1: every kept value travels as sign·μ.
                    let n = values.len().max(1) as f32;
                    let mu = values.iter().map(|v| v.abs()).sum::<f32>() / n;
                    Sent::Ternary(idx, values.iter().map(|&v| v >= 0.0).collect(), mu)
                };
                (sent, Some(1.0))
            }
            Strat::GlueFl(p) => {
                self.compensate(id, &mut delta, weight, p.compensation);
                // Lines 16–17: the values under M_t (none when
                // regenerating) and the top q − q_shr outside it.
                let none = vec![false; delta.len()];
                let regen = p.is_regen_round(round);
                let m = if regen {
                    &none
                } else {
                    self.mask.as_ref().expect("M_t")
                };
                let k = p.unique_keep(trainable, round);
                let (idx, values) = at(top_k(&delta, k, |i| !stats[i] && !m[i]), &delta);
                let banked = (p.compensation != CompensationMode::None).then_some(weight);
                (Sent::Split(under(m, &delta), idx, values), banked)
            }
        };
        let banked = banked.map(|weight| {
            for (i, v, _) in sent.entries(self.mask.as_deref()) {
                delta[i] -= v;
            }
            (delta, weight)
        });
        (sent, banked)
    }

    /// Turns the round's sums ([`fold`]) into the update — its mask and
    /// its values, zero off the mask — and moves the broadcast mask.
    fn finish(&mut self, round: u32, [acc, shr]: [Vec<f32>; 2]) -> (Vec<bool>, Vec<f32>) {
        let (dim, stats, trainable) = (acc.len(), &self.stats, self.setup.trainable());
        let scope = |i: usize| !stats[i];
        let mut picked = vec![false; dim];
        let mut only = |idx: Vec<usize>| {
            idx.into_iter().for_each(|i| picked[i] = true);
            (0..dim)
                .map(|i| if picked[i] { acc[i] } else { 0.0 })
                .collect::<Vec<f32>>()
        };
        match &self.cfg.strategy {
            Strat::FedAvg | Strat::MdFedAvg => (vec![true; dim], acc),
            // Algorithm 1 line 17: the update is the top q of the sum.
            Strat::Stc { q } | Strat::StcQuantized { q } => {
                let values = only(top_k(&acc, keep_count(trainable, *q), scope));
                (picked, values)
            }
            Strat::Apf { .. } => {
                let apf = self.apf.as_mut().expect("APF's freeze state");
                apf.observe(&acc);
                let next = bools(&apf.active_mask());
                (self.mask.replace(next).expect("APF's mask"), acc)
            }
            Strat::GlueFl(p) => {
                // Lines 23–24: Δ̃ = Σ shared + top_{q−q_shr}(Σ unique); a
                // regeneration round keeps the unique part alone (§3.3).
                let regen = p.is_regen_round(round);
                let mut values = only(top_k(&acc, p.unique_keep(trainable, round), scope));
                let shared = self.mask.take().expect("M_t");
                for i in ones(&shared).filter(|_| !regen) {
                    (picked[i], values[i]) = (true, shr[i]);
                }
                // Line 26: M_{t+1} = top_{q_shr}(Δ̃). FINDING: the shift
                // keeps `q_shr` of all `d` positions, the initial mask
                // `q_shr` of the trainable ones.
                let next = top_k(&values, keep_count(dim, p.q_shr), scope);
                self.mask = Some((0..dim).map(|i| next.contains(&i)).collect());
                (picked, values)
            }
        }
    }

    /// Plays the next round, and evaluates the new model every
    /// `eval_every` rounds and after the last one.
    pub fn round(&mut self) -> Played {
        let round = self.round;
        self.round += 1;
        let mut played = self.play(round);
        let cfg = &self.cfg;
        if (round + 1).is_multiple_of(cfg.eval_every.max(1)) || round + 1 == cfg.rounds {
            let (x, y) = self.setup.data.test_set();
            let topology = &self.setup.topology;
            let m = topology.evaluate_into(&self.params, x, y, &mut TrainScratch::new());
            played.record.accuracy = Some(if cfg.use_top5 { m.top5 } else { m.top1 });
            played.record.loss = Some(m.loss);
        }
        played
    }

    /// Round `round`, up to the new model.
    fn play(&mut self, round: u32) -> Played {
        let (dim, cfg) = (self.params.len(), self.cfg.clone());
        let everyone = vec![true; self.setup.data.num_clients()];
        let online = self
            .availability
            .as_ref()
            .map_or(&everyone[..], |a| a.online());
        let plan = self.sampler.plan(&mut self.rng, &mut DenseOnline(online));
        if let Some(a) = &mut self.availability {
            a.advance();
        }
        let invited: Vec<(ClientId, Group)> = plan.invited().collect();
        let mut played = Played {
            invited: invited.clone(),
            ..Played::default()
        };
        (played.record.round, played.record.invited) = (round, invited.len());
        if invited.is_empty() {
            return played;
        }

        // Broadcast: each client downloads what changed since it last
        // synced, as one legacy-F32 frame, and the mask; the broadcast is
        // the model frame and the mask frame under the run's layouts.
        let mask = self
            .mask
            .as_deref()
            .map(|m| BitMask::from_indices(dim, ones(m)));
        let legacy = FrameWriter::new(WirePolicy::legacy(Codec::F32));
        let mut down = Vec::new();
        for &(id, _) in &invited {
            let since = self.synced.insert(id, self.version).unwrap_or(0);
            let stale = stale_positions(&self.last_changed, since);
            let all = stale.len() == dim;
            let frame = if all {
                legacy.dense_len(dim)
            } else {
                legacy.sparse_len(dim, &stale)
            };
            down.push(frame + mask.as_ref().map_or(0, |m| legacy.mask_len(m)));
        }
        let broadcast = FrameWriter::new(WirePolicy {
            codec: Codec::F32,
            ..cfg.wire
        });
        let masks = mask.as_ref().map_or(0, |m| broadcast.mask_len(m));
        let rec = &mut played.record;
        (rec.down_bytes, rec.wire_broadcast_bytes) =
            (down.iter().sum(), broadcast.dense_len(dim) + masks);

        // Every invited client is priced at its upload's nominal length
        // (the legacy layout of its count, under the run's codec); the
        // turn is played here for its shape, and what a client sends and
        // banks waits for the keep decision.
        let link_seed = derive_seed(cfg.seed, "network", 0);
        let speed_seed = derive_seed(cfg.seed, "devices", 0);
        let factor = cfg.model.paper_scale_factor(dim);
        let secs = |bytes: u64, mbps| seconds_for_bytes((bytes as f64 * factor) as u64, mbps);
        // The quantization seeds of client `id`'s two frames.
        let seeds = |id: ClientId| {
            let key = (u64::from(round) << 32) | id as u64;
            ["wire-quant", "wire-quant-stats"].map(|s| derive_seed(cfg.seed, s, key))
        };
        let mut turns = Vec::new();
        for (&(id, group), &down) in invited.iter().zip(&down) {
            let (delta, stats) = self.train(round, id);
            let (sent, banked) = self.compress(round, id, self.sampler.weight(id, group), delta);
            let nominal = WirePolicy::legacy(cfg.wire.codec);
            let nominal = sent.encode(&stats, dim, round, nominal, seeds(id)).len() as u64;
            let link = cfg.network.link_for(link_seed, id);
            let speed = cfg.device.speed_for(speed_seed, id);
            let step = cfg
                .device
                .step_seconds(cfg.model.reference_params as usize, speed);
            let time = ClientRoundTime {
                download_secs: secs(down, link.down_mbps),
                compute_secs: cfg.local_steps as f64 * step,
                upload_secs: secs(nominal, link.up_mbps),
            };
            turns.push((time, sent, stats, banked));
        }

        // Over-commitment (§5.6): the fastest C sticky and K − C fresh.
        let fastest = |from: usize, to: usize, keep: usize| {
            let mut order: Vec<usize> = (from..to).collect();
            let secs = |i: usize| turns[i].0.total_secs();
            order.sort_by(|&a, &b| secs(a).total_cmp(&secs(b)).then(a.cmp(&b)));
            order.into_iter().take(keep)
        };
        let sticky = plan.sticky_invites.len();
        played.kept = fastest(0, sticky, plan.keep_sticky).collect();
        played
            .kept
            .extend(fastest(sticky, invited.len(), plan.keep_fresh));

        // The round lasts as long as its slowest kept client.
        let rec = &mut played.record;
        rec.kept = played.kept.len();
        for t in played.kept.iter().map(|&i| &turns[i].0) {
            rec.round_secs = rec.round_secs.max(t.total_secs());
            rec.slowest_download_secs = rec.slowest_download_secs.max(t.download_secs);
            rec.slowest_upload_secs = rec.slowest_upload_secs.max(t.upload_secs);
            rec.slowest_compute_secs = rec.slowest_compute_secs.max(t.compute_secs);
            rec.mean_download_secs += t.download_secs;
            rec.mean_upload_secs += t.upload_secs;
            rec.mean_compute_secs += t.compute_secs;
        }
        let n_kept = rec.kept.max(1) as f64;
        rec.mean_download_secs /= n_kept;
        rec.mean_upload_secs /= n_kept;
        rec.mean_compute_secs /= n_kept;

        // Dismissed-client ruling: only the kept bank their residual and
        // send their uploads, which reach the server as decoded; a lossy
        // codec's loss goes back into their banks. Ledger ruling: only
        // the kept uploads count. Unbiasedness ruling: each folds at the
        // designed inclusion weight, whoever was dismissed.
        let mask = self.mask.clone();
        let lossy = cfg.wire.quant_ec && cfg.wire.codec != Codec::F32;
        let mut received = Vec::new();
        for &i in &played.kept {
            let (id, group) = invited[i];
            if let Some(banked) = turns[i].3.take() {
                self.bank.insert(id, banked);
            }
            let (sent, stats) = (&turns[i].1, &turns[i].2);
            let frames = sent.encode(stats, dim, round, cfg.wire, seeds(id));
            let legacy = WirePolicy::legacy(Codec::F32);
            let analytic = sent.encode(stats, dim, round, legacy, seeds(id));
            played.record.up_bytes += analytic.len() as u64;
            played.record.wire_up_bytes += frames.len() as u64;
            let (sent, mut shipped) = (sent.entries(mask.as_deref()), decoded(&frames));
            let stats = shipped.split_off(shipped.len() - self.setup.stats_positions.len());
            let entries: Entries = match turns[i].1 {
                Sent::Ternary(..) => sent.clone(),
                _ => sent
                    .iter()
                    .zip(shipped)
                    .map(|(e, d)| (e.0, d, e.2))
                    .collect(),
            };
            let feedback = matches!(turns[i].1, Sent::Sparse(..) | Sent::Split(..)) && lossy;
            if let (true, Some((h, _))) = (feedback, self.bank.get_mut(&id)) {
                for (&(i, s, _), &(_, d, _)) in sent.iter().zip(&entries) {
                    h[i] += s - d;
                }
            }
            received.push((id, self.sampler.weight(id, group) as f32, entries, stats));
        }

        // Fold in ascending client id, finish, apply; the BN statistics
        // take the plain mean over the kept (Appendix D), in keep order.
        let mut by_id: Vec<_> = received.iter().collect();
        by_id.sort_by_key(|r| r.0);
        let (update_mask, update) =
            self.finish(round, fold(dim, by_id.iter().map(|r| (r.1, &r.2))));
        let mut changed = Vec::new();
        for i in ones(&update_mask) {
            self.params[i] += update[i];
            changed.extend((update[i] != 0.0).then_some(i));
        }
        let inv = 1.0 / received.len() as f32;
        for (j, &p) in self.setup.stats_positions.iter().enumerate() {
            let mean = received.iter().map(|r| r.3[j]).sum::<f32>() * inv;
            self.params[p] += mean;
            changed.extend((mean != 0.0).then_some(p));
        }
        self.version += 1;
        for &j in &changed {
            self.last_changed[j] = self.version;
        }
        played.record.changed_positions = changed.len();

        // The kept fresh clients join the sticky group.
        let kept: Vec<ClientId> = played.kept.iter().map(|&i| invited[i].0).collect();
        let (sticky, fresh) = kept.split_at(played.kept.partition_point(|&i| i < sticky));
        self.sampler.rebalance(&mut self.rng, sticky, fresh);
        played
    }
}
