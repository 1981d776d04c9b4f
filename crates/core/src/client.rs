//! The client half of every strategy, and the state both halves derive
//! from a [`SimConfig`] alone.
//!
//! A strategy is split along the line FedScale draws between its
//! aggregator and its executors. The **server half** is the engine's
//! [`crate::strategies::Sampler`] (sampling and weights) and the
//! [`crate::strategies::Strategy`] fold (the round mask, the upload it
//! takes, the fold, the mask shift). The **client half** is [`ClientCompressor`]:
//! what a client does to its trained delta before it leaves the device —
//! re-scaled error compensation, the split along the broadcast mask
//! `M_t`, the unique top-k and the new residual, all in one walk of the
//! delta ([`gluefl_compress::ErrorCompensator::compress_split`]) — and
//! feeding the wire codec's loss back into the residual bank. The simulator holds one compressor for all `N`
//! simulated clients (the residual bank is keyed by client id), a socket
//! client holds one for itself; both run exactly this code, so there is
//! nothing to keep in step between them.
//!
//! The two halves share no mutable state. What they must agree on —
//! whether a round regenerates the shared mask, how large the unique
//! top-k is, the sticky/fresh propensity weight — are pure functions of
//! [`GlueFlParams`], and the round mask itself reaches the client inside
//! the broadcast.

use crate::config::{GlueFlParams, SimConfig, StrategyConfig};
use crate::scratch::ScratchPool;
use crate::strategies::{Group, Upload};
use crate::wire_link::{self, ShippedAt};
use gluefl_compress::stc::keep_count;
use gluefl_compress::{CompensationMode, ErrorCompensator, Residual, SplitWalk};
use gluefl_data::SyntheticFlDataset;
use gluefl_ml::MlpTopology;
use gluefl_sampling::ClientId;
use gluefl_tensor::rng::derive_seed;
use gluefl_tensor::{BitMask, MaskAligned};
use gluefl_wire::{Codec, FrameWriter, LayoutMenu, WirePolicy};
use std::sync::Arc;

/// What every participant of a run — the round engine, the in-process
/// clients, a socket client — derives from the [`SimConfig`] alone: the
/// synthetic population, the model's architecture, and the split of its
/// flat parameters into trainable positions and BatchNorm statistics.
/// Deterministic in `cfg.seed`, so two processes given the same config
/// hold bit-identical copies.
///
/// It is the *cheap, shared* part of a run: O(classes × features +
/// clients), no weights and no test set. The initial weights and the
/// held-out test set belong to the evaluator — [`crate::RoundEngine::new`]
/// draws both — so a socket client, which receives its weights in every
/// broadcast and never evaluates, pays for neither.
#[derive(Debug)]
pub struct RunSetup {
    /// The synthetic population (shared, never mutated; its test set is
    /// drawn on first use).
    pub data: Arc<SyntheticFlDataset>,
    /// The model's architecture: layout and flat offsets, no weights.
    pub topology: MlpTopology,
    /// Flat indices of the BN-statistic positions, ascending.
    pub stats_positions: Vec<usize>,
    /// Mask of trainable positions (complement of the BN statistics).
    pub trainable_mask: BitMask,
}

impl RunSetup {
    /// Generates the population and lays out the model for `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.batch_size` is zero: every step would train on an
    /// empty minibatch, a zero gradient, while the BatchNorm statistics
    /// still decay. (`local_steps == 0` is legal: a zero delta.)
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        assert!(cfg.batch_size > 0, "batch size must be positive");
        let data =
            SyntheticFlDataset::generate(cfg.dataset.clone(), derive_seed(cfg.seed, "data", 0));
        let topology = cfg.model.topology(data.feature_dim(), data.classes());
        let trainable_mask = topology.layout().trainable_mask();
        let stats_positions = trainable_mask.iter_zeros().collect();
        Self {
            data: Arc::new(data),
            topology,
            stats_positions,
            trainable_mask,
        }
    }

    /// Mask of the BN-statistic positions: what no strategy may select.
    #[must_use]
    pub fn stats_excluded(&self) -> BitMask {
        self.trainable_mask.not()
    }

    /// Number of trainable positions (the base of every `q` ratio).
    #[must_use]
    pub fn trainable(&self) -> usize {
        self.topology.layout().trainable_count()
    }
}

/// A masking strategy's client was asked to compress without the round
/// mask its upload is aligned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingRoundMask;

impl std::fmt::Display for MissingRoundMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "strategy requires a round mask; none was broadcast")
    }
}

impl std::error::Error for MissingRoundMask {}

/// Per-strategy compression state.
#[derive(Debug)]
enum Scheme {
    /// FedAvg / MD-FedAvg: the dense delta is the upload.
    Dense,
    /// STC: error feedback, top-`q` outside the BN statistics, optional
    /// ternary quantization.
    Stc {
        q: f64,
        quantize: bool,
        ec: ErrorCompensator,
    },
    /// APF: values under the broadcast active mask.
    Apf,
    /// GlueFL: re-scaled error compensation, shared part under the
    /// broadcast mask `M_t`, unique top-k outside `M_t ∪ stats`.
    GlueFl {
        params: GlueFlParams,
        /// Importance weights `p_i` of the whole population.
        weights: Vec<f64>,
        /// Round size `K`.
        k: usize,
        ec: ErrorCompensator,
    },
}

/// The client half of the configured strategy (see the module docs).
///
/// A driver answers an invitation with
/// [`shape_offer`](Self::shape_offer), the price the broadcast alone
/// fixes, and runs a client's turn only once the grant keeps it, through
/// a [`StagedTurn`]: [`StagedTurn::stage`] checks the client's residual
/// out, [`crate::ClientTurn::run`] trains and
/// [`compress`](Self::compress)es, and [`StagedTurn::keep`] banks the
/// residual and serializes the upload. A dismissed client runs no turn,
/// so its bank ends the round as it began. `compress` takes `&self`:
/// between check-out and [`StagedTurn::keep`], every kept client's turn
/// can run on its own thread.
#[derive(Debug)]
pub struct ClientCompressor {
    scheme: Scheme,
    /// Number of trainable positions (ratio base).
    trainable: usize,
    dim: usize,
    /// Positions no top-k may select (BN statistics).
    stats_excluded: BitMask,
    wire: WirePolicy,
    seed: u64,
    /// Dequantized values of the lossy frame just encoded (scratch for
    /// [`wire_link::encode_upload_with_feedback`]).
    shipped: Vec<f32>,
}

impl ClientCompressor {
    /// Builds the client half for `cfg.strategy` — the counterpart of
    /// [`crate::strategies::Sampler::new`] and
    /// [`crate::strategies::Strategy::new`], from the same arguments:
    /// the population's importance `weights`, the number of `trainable`
    /// positions, the model `dim`, and the BN-statistic mask.
    #[must_use]
    pub fn new(
        cfg: &SimConfig,
        weights: &[f64],
        trainable: usize,
        dim: usize,
        stats_excluded: BitMask,
    ) -> Self {
        let scheme = match &cfg.strategy {
            StrategyConfig::FedAvg | StrategyConfig::MdFedAvg => Scheme::Dense,
            StrategyConfig::Stc { q } | StrategyConfig::StcQuantized { q } => Scheme::Stc {
                q: *q,
                quantize: matches!(cfg.strategy, StrategyConfig::StcQuantized { .. }),
                ec: ErrorCompensator::new(CompensationMode::Raw, dim),
            },
            StrategyConfig::Apf { .. } => Scheme::Apf,
            StrategyConfig::GlueFl(params) => Scheme::GlueFl {
                params: params.clone(),
                weights: weights.to_vec(),
                k: cfg.round_size,
                ec: ErrorCompensator::new(params.compensation, dim),
            },
        };
        Self {
            scheme,
            trainable,
            dim,
            stats_excluded,
            wire: cfg.wire,
            seed: cfg.seed,
            shipped: Vec::new(),
        }
    }

    /// [`ClientCompressor::new`] over a [`RunSetup`].
    #[must_use]
    pub fn for_run(cfg: &SimConfig, setup: &RunSetup) -> Self {
        Self::new(
            cfg,
            setup.data.client_weights(),
            setup.trainable(),
            setup.topology.num_params(),
            setup.stats_excluded(),
        )
    }

    /// Takes client `id`'s error-feedback residual out of the bank for its
    /// turn (an empty [`Residual`] for schemes without a bank).
    ///
    /// # Panics
    /// Panics if the client's residual is already checked out.
    fn check_out(&mut self, id: ClientId) -> Residual {
        match &mut self.scheme {
            Scheme::Stc { ec, .. } | Scheme::GlueFl { ec, .. } => ec.check_out(id),
            Scheme::Dense | Scheme::Apf => Residual::default(),
        }
    }

    /// Returns client `id`'s residual to the bank after its turn, with
    /// what the turn banked.
    fn check_in(&mut self, id: ClientId, residual: Residual) {
        match &mut self.scheme {
            Scheme::Stc { ec, .. } | Scheme::GlueFl { ec, .. } => ec.check_in(id, residual),
            Scheme::Dense | Scheme::Apf => debug_assert!(residual.is_empty()),
        }
    }

    /// Compresses client `id`'s trainable delta (BN-statistic positions
    /// zeroed) into its upload, applying and recording error
    /// compensation in place on `residual`, the client's memory as
    /// [`StagedTurn::stage`] checked it out. `round_mask` is the
    /// mask the server broadcast for this round (`None` for strategies
    /// without one).
    ///
    /// A scheme with error feedback (STC, GlueFL) walks the delta
    /// **once**: adding the carried-over residual, peeling off the values
    /// under the round mask, listing the top-k candidates and leaving
    /// `Δ − sent` behind are the per-word steps of the one pass the
    /// selection makes ([`ErrorCompensator::compress_split`]). A
    /// mask-aligned part leaves as a plain value run ([`MaskAligned`]):
    /// its positions are the round mask's, which the server holds.
    ///
    /// The delta's buffer is **handed over**, never copied. The dense
    /// scheme moves it into the upload (it comes back through
    /// [`ScratchPool::reclaim_upload`]); a scheme with error feedback
    /// makes it the client's new residual. What `delta` holds on
    /// return is a buffer for the caller's *next* delta and nothing
    /// else: the client's previous residual (`dim` stale values), an
    /// empty vector when there was none or the buffer left with the
    /// upload, or — APF, compensation off — the delta itself. A caller
    /// reuses it when its length is `dim` and otherwise draws one with
    /// [`ScratchPool::take_full`].
    ///
    /// # Errors
    /// [`MissingRoundMask`] when a masking strategy gets no mask.
    #[allow(clippy::too_many_arguments)]
    pub fn compress(
        &self,
        round: u32,
        id: ClientId,
        group: Group,
        delta: &mut Vec<f32>,
        round_mask: Option<&BitMask>,
        residual: &mut Residual,
        scratch: &mut ScratchPool,
    ) -> Result<Upload<'static>, MissingRoundMask> {
        match &self.scheme {
            Scheme::Dense => Ok(Upload::Dense(std::mem::take(delta))),
            Scheme::Stc { q, quantize, ec } => {
                // Error feedback: add the residual from the client's
                // previous participation, sparsify, remember the new one.
                let walk = SplitWalk {
                    mask: None,
                    excluded: &self.stats_excluded,
                    unique_k: keep_count(self.trainable, *q),
                    unique: scratch.take_sparse(),
                    shared: Vec::new(),
                    topk: &mut scratch.topk,
                };
                if *quantize {
                    // The residual must reflect what the server receives
                    // (the dequantized values), so quantization loss is
                    // carried into the next round too.
                    Ok(Upload::Ternary(
                        ec.compress_ternary(residual, delta, 1.0, walk),
                    ))
                } else {
                    Ok(Upload::Sparse(
                        ec.compress_split(residual, delta, 1.0, walk).unique,
                    ))
                }
            }
            Scheme::Apf => {
                // Frozen parameters do not move locally; the upload
                // carries the active positions, which the server knows.
                let mask = round_mask.ok_or(MissingRoundMask)?;
                let values = scratch.take_cleared();
                Ok(Upload::KnownMask(MaskAligned::gather_in(
                    delta, mask, values,
                )))
            }
            Scheme::GlueFl {
                params,
                weights,
                k,
                ec,
            } => {
                let mask = round_mask.ok_or(MissingRoundMask)?;
                // Re-scaled error compensation (Equation 7) at this
                // weight; shared part: values under M_t (none when
                // regenerating); unique part: top-k outside M_t ∪ stats;
                // residual h = Δ − (Δ̃_shr + Δ̃_uni), left in the delta's
                // own buffer.
                let weight = params.client_weight(weights.len(), *k, group, weights[id]);
                let walk = SplitWalk {
                    mask: (!params.is_regen_round(round)).then_some(mask),
                    excluded: &self.stats_excluded,
                    unique_k: params.unique_keep(self.trainable, round),
                    shared: scratch.take_cleared(),
                    unique: scratch.take_sparse(),
                    topk: &mut scratch.topk,
                };
                Ok(Upload::MaskSplit(
                    ec.compress_split(residual, delta, weight, walk),
                ))
            }
        }
    }

    /// Number of clients whose residual the error-feedback bank holds —
    /// one dimension-sized buffer each (0 for schemes without a bank).
    #[must_use]
    pub fn tracked_residuals(&self) -> usize {
        match &self.scheme {
            Scheme::Stc { ec, .. } | Scheme::GlueFl { ec, .. } => ec.tracked_clients(),
            Scheme::Dense | Scheme::Apf => 0,
        }
    }

    /// Client `id`'s banked residual and the weight it was stored at.
    #[must_use]
    pub fn stored(&self, id: ClientId) -> Option<(&[f32], f64)> {
        match &self.scheme {
            Scheme::Stc { ec, .. } | Scheme::GlueFl { ec, .. } => ec.stored(id),
            Scheme::Dense | Scheme::Apf => None,
        }
    }

    /// The `(analytic, wire)` price of every client's upload plus its
    /// `stats_len`-value BN-statistic frame in `round`, known from the
    /// broadcast alone: the nominal offer a client answers an invitation
    /// with, before anyone trains. The analytic price is the ledger's
    /// ([`WirePolicy::legacy`], F32 values), the wire price the run's
    /// codec in the legacy layout. `None` only for a masking scheme
    /// without a `round_mask`, whose turn would fail with
    /// [`MissingRoundMask`].
    ///
    /// The broadcast fixes every upload's shape: the dense scheme's `dim`
    /// values, APF's values under `round_mask`, STC's top-k of
    /// `keep_count(trainable, q)` values (sparse or ternary), and
    /// GlueFL's values under `round_mask` (none in a regeneration round)
    /// plus its unique top-k of `unique_keep(trainable, round)` — a top-k
    /// never skips a zero, so it always lists that many, or the whole
    /// scope when the scope is smaller. Under the legacy layout menu,
    /// which prices positions by their count, the wire price is the
    /// encoded length exactly. Under the entropy menu it is an upper
    /// bound: the writer keeps a v1 section whenever that is cheaper.
    #[must_use]
    pub fn shape_offer(
        &self,
        round: u32,
        round_mask: Option<&BitMask>,
        stats_len: usize,
    ) -> Option<(u64, u64)> {
        let price = |policy: WirePolicy| {
            let w = FrameWriter::new(policy);
            let upload = match &self.scheme {
                Scheme::Dense => w.dense_len(self.dim),
                Scheme::Apf => w.known_mask_len(round_mask?.count_ones()),
                Scheme::Stc { q, quantize, .. } => {
                    let nnz = keep_count(self.trainable, *q);
                    if *quantize {
                        w.ternary_len_of_count(self.dim, nnz)
                    } else {
                        w.sparse_len_of_count(self.dim, nnz)
                    }
                }
                Scheme::GlueFl { params, .. } => {
                    let mask = round_mask?;
                    let shared = (!params.is_regen_round(round)).then_some(mask);
                    // The unique top-k's scope: the trainable positions
                    // outside the shared part.
                    let scope = self.trainable
                        - shared.map_or(0, |m| m.count_ones() - m.overlap(&self.stats_excluded));
                    let unique = params.unique_keep(self.trainable, round).min(scope);
                    w.known_mask_len(shared.map_or(0, BitMask::count_ones))
                        + w.sparse_len_of_count(self.dim, unique)
                }
            };
            Some(upload + w.known_mask_len(stats_len))
        };
        Some((price(WirePolicy::legacy(Codec::F32))?, price(self.wire)?))
    }

    /// Serializes client `id`'s granted upload and its BN-statistic
    /// values into `out` and returns the byte count, folding codec loss
    /// into the bank (see [`StagedTurn::keep`]). Only granted uploads are
    /// ever serialized, which is what keeps every driver's banks
    /// identical.
    ///
    /// # Panics
    /// Panics if a lossy mask-aligned frame was encoded and `round_mask`
    /// is not the mask its values are aligned to.
    fn encode_kept(
        &mut self,
        round: u32,
        id: ClientId,
        upload: &Upload,
        round_mask: Option<&BitMask>,
        stats: &[f32],
        out: &mut Vec<u8>,
    ) -> usize {
        let key = (u64::from(round) << 32) | id as u64;
        let scheme = &mut self.scheme;
        let ulen = wire_link::encode_upload_with_feedback(
            upload,
            round,
            &self.wire,
            derive_seed(self.seed, "wire-quant", key),
            out,
            &mut self.shipped,
            &mut |at, sent, shipped| match scheme {
                Scheme::Stc { ec, .. } | Scheme::GlueFl { ec, .. } => match at {
                    ShippedAt::Indices(indices) => {
                        let positions = indices.iter().map(|&i| i as usize);
                        ec.fold_shipped_error(id, positions, sent, shipped);
                    }
                    ShippedAt::RoundMask => {
                        let mask = round_mask.expect("a mask-aligned part was compressed");
                        ec.fold_shipped_error(id, mask.iter_ones(), sent, shipped);
                    }
                },
                Scheme::Dense | Scheme::Apf => {}
            },
        );
        let slen = FrameWriter::new(self.wire).known_mask(
            out,
            round,
            wire_link::rounding_for(
                self.wire.codec,
                derive_seed(self.seed, "wire-quant-stats", key),
            ),
            self.dim,
            stats,
        );
        ulen + slen
    }
}

/// One kept client's turn: the client's residual, checked out of the
/// bank; the delta buffer, which after the turn holds what compression
/// handed back; the BN-statistic drift; and the staged upload.
///
/// A driver stages a turn only once the grant keeps its client, so every
/// staged turn is kept: [`keep`](Self::keep) banks the residual as the
/// turn left it, serializes the upload and reclaims its buffers. Keeping
/// takes the turn's residual and upload; its buffers stay for the next
/// turn staged here, so a driver keeps one `StagedTurn` per turn it runs
/// at a time and allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct StagedTurn {
    /// The turn's round and client, and the client's residual, checked
    /// out of the bank until the turn is kept.
    pub(crate) held: Option<(u32, ClientId, Residual)>,
    /// The buffer the turn trains into; after it, what
    /// [`ClientCompressor::compress`] handed back.
    pub(crate) delta: Vec<f32>,
    pub(crate) stats: Vec<f32>,
    pub(crate) upload: Option<Upload<'static>>,
}

impl StagedTurn {
    /// Stages client `id`'s turn in `round`: checks its residual out of
    /// `compressor`'s bank and readies the buffers the turn fills — a
    /// delta buffer from `scratch` unless the last turn handed back one of
    /// the model's length. Storage that outlives the turn is allocated
    /// here, on the caller's thread, never on a worker running the turn.
    ///
    /// # Panics
    /// Panics if a turn is staged here and not yet kept, or if client
    /// `id`'s residual is already checked out.
    pub fn stage(
        &mut self,
        compressor: &mut ClientCompressor,
        round: u32,
        id: ClientId,
        scratch: &mut ScratchPool,
    ) {
        assert!(self.held.is_none(), "a staged turn was never kept");
        let dim = compressor.dim;
        if self.delta.len() != dim {
            self.delta = scratch.take_full(dim);
        }
        self.stats.resize(dim - compressor.trainable, 0.0);
        self.held = Some((round, id, compressor.check_out(id)));
    }

    /// Keeps the turn: checks the residual in as the turn left it, then
    /// serializes the upload and the BN-statistic drift into `out`
    /// (upload frame(s), then one mask-aligned stats frame) and reclaims
    /// the upload's buffers into `scratch`. Returns the byte count, which
    /// the turn's nominal wire price ([`ClientCompressor::shape_offer`])
    /// bounds, and equals under the legacy layout menu. Under a lossy
    /// codec with `quant_ec` on, what each frame failed to ship is folded
    /// into the client's bank, at the one-bits of `round_mask` (the mask
    /// the turn was given) for a mask-aligned frame. Quantization seeds
    /// derive from `(seed, round, id)`, never from processing order.
    ///
    /// # Panics
    /// Panics if no turn has run here since it was staged, or if the
    /// encoded length breaks its nominal price.
    pub fn keep(
        &mut self,
        compressor: &mut ClientCompressor,
        round_mask: Option<&BitMask>,
        out: &mut Vec<u8>,
        scratch: &mut ScratchPool,
    ) -> usize {
        let (round, id, residual) = self.held.take().expect("a turn is staged");
        compressor.check_in(id, residual);
        let upload = self.upload.take().expect("the staged turn ran");
        let len = compressor.encode_kept(round, id, &upload, round_mask, &self.stats, out);
        // The offer is a prediction; this is where it meets the encoder.
        let (_, nominal) = compressor
            .shape_offer(round, round_mask, self.stats.len())
            .expect("the turn ran, so its mask was broadcast");
        if compressor.wire.menu == LayoutMenu::Legacy {
            assert_eq!(len as u64, nominal, "encoded bytes diverged from the offer");
        } else {
            assert!(len as u64 <= nominal, "encoded bytes exceed the offer");
        }
        scratch.reclaim_upload(upload);
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluefl_data::DatasetProfile;
    use gluefl_ml::DatasetModel;

    fn compressor(strategy: StrategyConfig, dim: usize, excluded: BitMask) -> ClientCompressor {
        let mut cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            strategy,
            0.02,
            1,
            0,
        );
        cfg.round_size = 4;
        let trainable = dim - excluded.count_ones();
        ClientCompressor::new(&cfg, &[0.05; 20], trainable, dim, excluded)
    }

    /// One client's compress as a driver runs it: check-out, compress,
    /// check-in.
    fn compress(
        c: &mut ClientCompressor,
        round: u32,
        id: ClientId,
        group: Group,
        delta: &mut Vec<f32>,
        round_mask: Option<&BitMask>,
    ) -> Result<Upload<'static>, MissingRoundMask> {
        let mut residual = c.check_out(id);
        let mut pool = ScratchPool::new();
        let upload = c.compress(
            round,
            id,
            group,
            delta,
            round_mask,
            &mut residual,
            &mut pool,
        );
        c.check_in(id, residual);
        upload
    }

    fn gluefl_params() -> GlueFlParams {
        GlueFlParams {
            q: 0.3,
            q_shr: 0.2,
            sticky_group: 8,
            sticky_draw: 3,
            regen_interval: Some(5),
            compensation: CompensationMode::Rescaled,
            equal_weights: false,
        }
    }

    #[test]
    fn dense_upload_is_the_delta() {
        let mut c = compressor(StrategyConfig::FedAvg, 8, BitMask::zeros(8));
        let up = compress(&mut c, 0, 0, Group::Fresh, &mut vec![1.0; 8], None).unwrap();
        assert_eq!(up, Upload::Dense(vec![1.0; 8]));
        assert_eq!(
            wire_link::encoded_len(&up, &WirePolicy::default()),
            8 * 4 + 16
        );
    }

    #[test]
    fn stc_sends_top_q_and_carries_the_residual() {
        let mut c = compressor(StrategyConfig::Stc { q: 0.25 }, 8, BitMask::zeros(8));
        let mut d1 = vec![4.0f32, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let up = compress(&mut c, 0, 5, Group::Fresh, &mut d1, None).unwrap();
        assert!(matches!(&up, Upload::Sparse(u) if u.indices() == [0, 1]));
        // Zero fresh delta next time: compensation resurrects what the
        // first top-2 dropped.
        let up = compress(&mut c, 1, 5, Group::Fresh, &mut vec![0.0; 8], None).unwrap();
        match up {
            Upload::Sparse(u) => {
                assert_eq!(u.indices(), &[2, 3]);
                assert_eq!(u.values(), &[2.0, 1.0]);
            }
            other => panic!("expected sparse upload, got {other:?}"),
        }
    }

    #[test]
    fn stc_never_selects_statistic_positions() {
        let excluded = BitMask::from_indices(8, [0usize]);
        let mut c = compressor(StrategyConfig::Stc { q: 0.25 }, 8, excluded);
        let mut delta = vec![100.0f32, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0];
        let up = compress(&mut c, 0, 0, Group::Fresh, &mut delta, None).unwrap();
        assert!(matches!(&up, Upload::Sparse(u) if !u.indices().contains(&0)));
    }

    #[test]
    fn quantized_stc_keeps_signs_and_costs_fewer_bytes() {
        let delta = vec![4.0f32, -3.0, 2.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        let mut plain = compressor(StrategyConfig::Stc { q: 0.5 }, 8, BitMask::zeros(8));
        let mut quant = compressor(
            StrategyConfig::StcQuantized { q: 0.5 },
            8,
            BitMask::zeros(8),
        );
        let up_plain = compress(&mut plain, 0, 0, Group::Fresh, &mut delta.clone(), None).unwrap();
        let up_quant = compress(&mut quant, 0, 0, Group::Fresh, &mut delta.clone(), None).unwrap();
        let bytes = |u: &Upload| wire_link::encoded_len(u, &WirePolicy::default());
        assert!(bytes(&up_quant) < bytes(&up_plain));
        match up_quant {
            Upload::Ternary(t) => {
                let back = t.dequantize();
                assert_eq!(back.indices(), &[0, 1, 2, 3]);
                assert!(back.values()[0] > 0.0 && back.values()[1] < 0.0);
                // μ = mean(4, 3, 2, 1) = 2.5.
                assert!((t.mu - 2.5).abs() < 1e-6);
            }
            other => panic!("expected ternary upload, got {other:?}"),
        }
        // Sent sign·μ = ±2.5, so the residual (1.5, −0.5, −0.5, 1.5)
        // comes back on a zero delta with both signs present.
        let up = compress(&mut quant, 1, 0, Group::Fresh, &mut vec![0.0; 8], None).unwrap();
        let Upload::Ternary(t) = up else {
            panic!("expected ternary upload")
        };
        let back = t.dequantize();
        assert!(back.values().iter().any(|v| *v > 0.0));
        assert!(back.values().iter().any(|v| *v < 0.0));
    }

    #[test]
    fn masking_strategies_require_the_round_mask() {
        let apf = StrategyConfig::Apf {
            config: gluefl_compress::ApfConfig::default(),
        };
        for strategy in [apf, StrategyConfig::GlueFl(gluefl_params())] {
            let mut c = compressor(strategy, 20, BitMask::zeros(20));
            assert_eq!(
                compress(&mut c, 1, 0, Group::Fresh, &mut vec![1.0; 20], None),
                Err(MissingRoundMask)
            );
        }
    }

    #[test]
    fn gluefl_splits_along_the_mask() {
        let mut c = compressor(
            StrategyConfig::GlueFl(gluefl_params()),
            20,
            BitMask::zeros(20),
        );
        let mask = BitMask::from_indices(20, [1usize, 4, 9, 16]);
        let mut delta: Vec<f32> = (0..20).map(|i| i as f32 - 10.0).collect();
        let up = compress(&mut c, 1, 0, Group::Sticky, &mut delta, Some(&mask)).unwrap();
        let Upload::MaskSplit(split) = up else {
            panic!("expected mask split")
        };
        assert_eq!(split.shared.values(), [-9.0, -6.0, -1.0, 6.0]);
        assert_eq!(split.unique.support().overlap(&mask), 0);
        // q − q_shr = 10% of 20 = 2 unique coordinates.
        assert_eq!(split.unique.nnz(), 2);
        // Regeneration round: no shared part, the full q = 30% unique.
        let mut delta: Vec<f32> = (0..20).map(|i| i as f32 * 0.1).collect();
        let up = compress(&mut c, 5, 1, Group::Sticky, &mut delta, Some(&mask)).unwrap();
        let Upload::MaskSplit(split) = up else {
            panic!("expected mask split")
        };
        assert!(split.shared.is_empty());
        assert_eq!(split.unique.nnz(), 6);
    }

    #[test]
    fn rescaled_compensation_survives_group_switch() {
        let mut c = compressor(
            StrategyConfig::GlueFl(gluefl_params()),
            20,
            BitMask::zeros(20),
        );
        let mask = BitMask::from_indices(20, [0usize, 1, 2, 3]);
        // Fresh weight 12·0.05 = 0.6; three large values outside the
        // mask, top-2 keeps two and the third becomes residual.
        let mut d = vec![0.0f32; 20];
        d[10] = 5.0;
        d[11] = 4.0;
        d[12] = 3.0;
        let _ = compress(&mut c, 1, 0, Group::Fresh, &mut d, Some(&mask));
        // As a sticky client (weight 8/3·0.05) the residual returns
        // scaled by ν_fresh/ν_sticky = 4.5.
        let up = compress(&mut c, 2, 0, Group::Sticky, &mut vec![0.0; 20], Some(&mask)).unwrap();
        let Upload::MaskSplit(split) = up else {
            panic!("expected mask split")
        };
        let mut dense = split.shared.to_dense(&mask);
        split.unique.apply(&mut dense);
        let expected = 3.0 * (0.6 / (8.0 / 3.0 * 0.05));
        assert!(
            (dense[12] - expected as f32).abs() < 1e-3,
            "residual {} vs expected {expected}",
            dense[12]
        );
    }

    /// Under a lossy codec the residual ends up short of what was
    /// *shipped*, not of what was handed to the encoder — for the shared
    /// part too, whose loss is folded back by walking the round mask
    /// (the part itself names no positions): position by position,
    /// `residual += sent − shipped`, the receiver's decode being
    /// `shipped`.
    #[test]
    fn codec_loss_of_both_parts_is_folded_back_at_their_positions() {
        let dim = 200;
        let mut c = compressor(
            StrategyConfig::GlueFl(gluefl_params()),
            dim,
            BitMask::zeros(dim),
        );
        c.wire = WirePolicy::legacy(Codec::QuantU8);
        assert!(c.wire.quant_ec);
        let mask = BitMask::from_indices(dim, (0..dim).step_by(5));
        let mut pool = ScratchPool::new();
        let mut delta: Vec<f32> = (0..dim).map(|i| ((i as f32) * 0.73).sin()).collect();
        let upload = compress(&mut c, 1, 2, Group::Sticky, &mut delta, Some(&mask)).unwrap();
        let Upload::MaskSplit(sent) = &upload else {
            panic!("expected mask split")
        };
        let stored = |c: &ClientCompressor| c.stored(2).expect("banked").0.to_vec();
        let mut expected = stored(&c);
        let mut out = Vec::new();
        let _ = c.encode_kept(1, 2, &upload, Some(&mask), &[], &mut out);
        let (received, _) =
            wire_link::decode_upload_with_stats(&out, Some(&mask), &mut pool).unwrap();
        let Upload::MaskSplit(shipped) = received else {
            panic!("expected mask split")
        };
        let positions = mask
            .iter_ones()
            .chain(sent.unique.indices().iter().map(|&i| i as usize));
        let sent = sent.shared.values().iter().chain(sent.unique.values());
        let shipped = shipped
            .shared
            .values()
            .iter()
            .chain(shipped.unique.values());
        let mut lossy = 0;
        for (i, (sent, shipped)) in positions.zip(sent.zip(shipped)) {
            expected[i] += sent - shipped;
            lossy += usize::from(sent != shipped);
        }
        assert!(lossy > 0, "QuantU8 shipped every value exactly");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&stored(&c)), bits(&expected));
    }

    /// The nominal offer is the encoded length under the legacy menu,
    /// and bounds it under the entropy menu.
    #[test]
    fn offer_predicts_the_encoded_length() {
        for wire in [
            WirePolicy::legacy(Codec::F32),
            WirePolicy::entropy(Codec::F32),
        ] {
            let mut c = compressor(StrategyConfig::Stc { q: 0.25 }, 64, BitMask::zeros(64));
            c.wire = wire;
            let mut delta = vec![0.0f32; 64];
            (delta[3], delta[4], delta[5]) = (4.0, 3.0, 2.0);
            let up = compress(&mut c, 0, 3, Group::Fresh, &mut delta, None).unwrap();
            let stats = [0.5f32, -0.25];
            let (analytic, nominal) = c.shape_offer(0, None, stats.len()).unwrap();
            let mut out = Vec::new();
            let len = c.encode_kept(0, 3, &up, None, &stats, &mut out) as u64;
            assert_eq!(out.len() as u64, len);
            assert_eq!(
                analytic, nominal,
                "{wire:?}: F32 prices match the analytic model"
            );
            if wire.menu == LayoutMenu::Legacy {
                assert_eq!(len, nominal);
            } else {
                assert!(
                    len < nominal,
                    "{wire:?}: a run of indices costs less than its list"
                );
            }
        }
    }
}
