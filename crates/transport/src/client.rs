//! The client side of the round loop: a [`ClientNode`] — one client's
//! training and compression state — plus [`run_client`], the blocking
//! socket loop that speaks the envelope protocol.
//!
//! # Bit-exactness
//!
//! A real client computes, to the bit, what the in-process
//! [`gluefl_core::Simulation`] computes for the same `(seed, round, id)`,
//! because it runs the same code on the same inputs: the dataset shard
//! and model layout come from [`RunSetup`] (the initial weights and the
//! test set, which only the server's engine needs, it never builds),
//! the local-SGD delta from
//! [`gluefl_core::train_client_into`] with the `"local-train"` derived
//! seed, and the upload from the strategy's client half,
//! [`ClientCompressor`] — one instance here serving one client, one
//! instance in the simulator serving all of them. The server-side state
//! a client lacks (samplers, mask evolution) it never needs: the round's
//! mask arrives in every `INVITE`.

use crate::proto::{read_msg_blocking, write_msg, MsgKind, ProtoError, PROTO_VERSION};
use crate::TransportError;
use gluefl_core::strategies::{Group, Upload};
use gluefl_core::{
    local_train_seed, train_client_into, ClientCompressor, RunSetup, ScratchPool, SimConfig,
    TrainSlot,
};
use gluefl_data::ClientDataset;
use gluefl_ml::MlpTopology;
use gluefl_telemetry::{Counter, Phase, Telemetry};
use gluefl_tensor::BitMask;
use gluefl_wire::{decode_frame_prefix, FrameKind};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;

/// One real client: its data shard, model topology, training slot, and
/// compression state, all derived from the shared [`SimConfig`].
///
/// A node holds only its own slice of the run. Its weights arrive in
/// every `INVITE` and it never evaluates, so it has no initial weights
/// and no test set; of the population it keeps its own shard and the
/// population size, and the dataset itself is dropped once the shard is
/// drawn.
///
/// Public so the hostile test battery can drive an honest node and then
/// corrupt the bytes it produces.
pub struct ClientNode {
    cfg: SimConfig,
    id: usize,
    /// Size of the population the node was built for — checked against
    /// the server's `WELCOME`.
    population: usize,
    /// The model's architecture; the weights come from the server's
    /// broadcast every round.
    topology: MlpTopology,
    /// Flat indices of the BN-statistic positions, ascending.
    stats_positions: Vec<usize>,
    /// This client's shard, materialised once — synthesising it is a
    /// full pass over the client's samples, too much to repeat per invite.
    shard: ClientDataset,
    compressor: ClientCompressor,
    slot: TrainSlot,
    scratch: ScratchPool,
    /// The round's decoded global parameters.
    global: Vec<f32>,
    /// The round's decoded broadcast mask, if the strategy ships one.
    round_mask: Option<BitMask>,
    /// The trained delta; between rounds, the buffer
    /// [`ClientCompressor::compress`] handed back for the next one.
    delta: Vec<f32>,
    /// Reused BN-statistic drift buffer.
    stats_out: Vec<f32>,
    /// The compressed upload awaiting a `GRANT` decision.
    pending: Option<(u32, Upload)>,
}

impl ClientNode {
    /// Builds the client for `id` from the run config. Population and
    /// model layout derive from `cfg.seed` through the same [`RunSetup`]
    /// the server builds, so both sides agree on shards, shapes, and
    /// BN-statistic positions; the node keeps its shard and the layout
    /// and lets the population go.
    ///
    /// # Panics
    /// Panics if `id` is outside the configured population.
    #[must_use]
    pub fn new(cfg: SimConfig, id: usize) -> Self {
        let setup = RunSetup::new(&cfg);
        let population = setup.data.num_clients();
        assert!(id < population, "client id outside population");
        Self {
            compressor: ClientCompressor::for_run(&cfg, &setup),
            shard: setup.data.client(id),
            cfg,
            id,
            population,
            topology: setup.topology,
            stats_positions: setup.stats_positions,
            slot: TrainSlot::default(),
            scratch: ScratchPool::new(),
            global: Vec::new(),
            round_mask: None,
            delta: Vec::new(),
            stats_out: Vec::new(),
            pending: None,
        }
    }

    /// This client's id.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Decodes an `INVITE` payload (`[group u8]` + broadcast frames),
    /// trains locally, compresses, and stages the upload. Returns the
    /// offer pair `(analytic_bytes, wire_bytes)` — the exact values the
    /// simulator predicts for this upload.
    ///
    /// # Errors
    /// Typed errors on malformed broadcast frames.
    pub fn handle_invite(
        &mut self,
        round: u32,
        payload: &[u8],
    ) -> Result<(u64, u64), TransportError> {
        let (&group_byte, frames) = payload.split_first().ok_or(TransportError::EmptyInvite)?;
        let group = match group_byte {
            0 => Group::Fresh,
            1 => Group::Sticky,
            other => return Err(TransportError::BadGroup(other)),
        };
        let dim = self.topology.num_params();
        // Broadcast frame 1: the dense F32 global model.
        let (model_frame, rest) = decode_frame_prefix(frames)?;
        if model_frame.kind != FrameKind::Dense || model_frame.dim != dim {
            return Err(TransportError::BadBroadcast);
        }
        self.global.clear();
        model_frame.values_into(&mut self.global);
        // Broadcast frame 2 (optional): the strategy's round mask.
        self.round_mask = if rest.is_empty() {
            None
        } else {
            let (mask_frame, tail) = decode_frame_prefix(rest)?;
            if !matches!(mask_frame.kind, FrameKind::Mask | FrameKind::MaskRle)
                || mask_frame.dim != dim
                || !tail.is_empty()
            {
                return Err(TransportError::BadBroadcast);
            }
            let mut mask = self.round_mask.take().unwrap_or_else(|| BitMask::zeros(0));
            mask_frame.mask_into(&mut mask);
            Some(mask)
        };

        // Local training — identical inputs to the simulator's worker.
        // It overwrites every position of the delta buffer, so whatever
        // full-length buffer compression handed back is reused as it is.
        if self.delta.len() != dim {
            self.delta = self.scratch.take_full(dim);
        }
        self.stats_out.clear();
        self.stats_out.resize(self.stats_positions.len(), 0.0);
        train_client_into(
            &self.topology,
            &self.global,
            &self.shard,
            self.cfg.local_steps,
            self.cfg.batch_size,
            self.cfg.lr_at_round(round),
            self.cfg.momentum,
            local_train_seed(self.cfg.seed, round, self.id),
            &mut self.delta,
            &self.stats_positions,
            &mut self.stats_out,
            &mut self.slot,
        );

        // Compress and price the upload (discarding any stale pending
        // upload from a round whose grant never arrived).
        self.discard_pending();
        let upload = self
            .compressor
            .compress(
                round,
                self.id,
                group,
                &mut self.delta,
                self.round_mask.as_ref(),
                &mut self.scratch,
            )
            .map_err(|_| TransportError::MissingBroadcastMask)?;
        let offer = self.compressor.offer(&upload, self.stats_out.len());
        self.pending = Some((round, upload));
        Ok(offer)
    }

    /// Serializes the staged upload (frames + BN-statistics frame) into
    /// `out` — the byte-exact payload the simulator stages in-process —
    /// folding any lossy-codec residual into the client's own
    /// error-compensation bank: a grant means this upload is kept.
    /// Consumes the pending upload.
    ///
    /// # Errors
    /// [`TransportError::NoPendingUpload`] when no upload is staged for
    /// `round`.
    pub fn encode_granted(&mut self, round: u32, out: &mut Vec<u8>) -> Result<(), TransportError> {
        let staged = self.pending.take();
        let result = match &staged {
            Some((r, upload)) if *r == round => {
                let _ = self.compressor.encode_kept(
                    round,
                    self.id,
                    upload,
                    self.round_mask.as_ref(),
                    &self.stats_out,
                    out,
                );
                Ok(())
            }
            _ => Err(TransportError::NoPendingUpload),
        };
        if let Some((_, upload)) = staged {
            self.scratch.reclaim_upload(upload);
        }
        result
    }

    /// Discards the staged upload after a negative grant (the client was
    /// over-committed out of the keep set).
    pub fn discard_pending(&mut self) {
        if let Some((_, upload)) = self.pending.take() {
            self.scratch.reclaim_upload(upload);
        }
    }
}

/// The client's pre-registered telemetry handles: per-kind byte
/// counters plus the hub for the Train/Encode phase spans.
struct ClientRecorder {
    hub: Arc<Telemetry>,
    /// Bytes sent to / received from the server, indexed by
    /// `MsgKind::id() - 1`.
    bytes_up: Vec<Counter>,
    bytes_down: Vec<Counter>,
}

impl ClientRecorder {
    fn new(hub: Arc<Telemetry>) -> Self {
        let dir_counters = |dir: &'static str| -> Vec<Counter> {
            MsgKind::ALL
                .iter()
                .map(|k| {
                    hub.counter(
                        "gluefl_client_bytes_total",
                        &[("dir", dir), ("frame", k.name())],
                    )
                })
                .collect()
        };
        Self {
            bytes_up: dir_counters("up"),
            bytes_down: dir_counters("down"),
            hub,
        }
    }

    fn sent(&self, kind: MsgKind, payload_len: usize) {
        self.bytes_up[kind.id() as usize - 1]
            .add((crate::proto::ENVELOPE_BYTES + payload_len) as u64);
    }

    fn received(&self, kind: MsgKind, payload_len: usize) {
        self.bytes_down[kind.id() as usize - 1]
            .add((crate::proto::ENVELOPE_BYTES + payload_len) as u64);
    }
}

/// Connects to `addr` and runs the full client protocol until the server
/// sends `FIN`: `HELLO` → `WELCOME`, then per round `INVITE` → `OFFER`,
/// and on a positive `GRANT` the upload bytes.
///
/// # Errors
/// Any socket or protocol failure; a clean `FIN` returns `Ok(())`.
pub fn run_client(addr: &str, cfg: SimConfig, id: usize) -> Result<(), TransportError> {
    run_client_traced(addr, cfg, id, None)
}

/// [`run_client`] with an optional telemetry hub: per-kind byte
/// counters (`gluefl_client_bytes_total{dir,frame}`), a
/// [`Phase::Train`] span around each invite's local training and
/// compression, and a [`Phase::Encode`] span around each granted
/// upload's serialization. `tel: None` is the zero-overhead path
/// [`run_client`] takes.
///
/// # Errors
/// Any socket or protocol failure; a clean `FIN` returns `Ok(())`.
pub fn run_client_traced(
    addr: &str,
    cfg: SimConfig,
    id: usize,
    tel: Option<Arc<Telemetry>>,
) -> Result<(), TransportError> {
    let tel = tel.map(ClientRecorder::new);
    let mut node = ClientNode::new(cfg, id);
    let mut stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
    stream.set_nodelay(true).map_err(ProtoError::Io)?;

    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&PROTO_VERSION.to_le_bytes());
    hello[4..].copy_from_slice(&(u32::try_from(id).expect("id fits u32")).to_le_bytes());
    write_msg(&mut stream, MsgKind::Hello, 0, &hello)?;
    if let Some(t) = &tel {
        t.sent(MsgKind::Hello, hello.len());
    }

    let mut payload = Vec::new();
    let env = read_msg_blocking(&mut stream, &mut payload)?;
    if env.kind != MsgKind::Welcome {
        return Err(TransportError::UnexpectedMessage(env.kind));
    }
    if let Some(t) = &tel {
        t.received(MsgKind::Welcome, payload.len());
    }
    // The server announces the run it is about to drive; a client built
    // from a different config would train on a different population.
    if payload.len() != 8 {
        return Err(TransportError::UnexpectedMessage(env.kind));
    }
    let population = u32::from_le_bytes(payload[..4].try_into().expect("4 B"));
    let rounds = u32::from_le_bytes(payload[4..].try_into().expect("4 B"));
    for (field, ours, theirs) in [
        ("population", node.population as u64, u64::from(population)),
        ("rounds", u64::from(node.cfg.rounds), u64::from(rounds)),
    ] {
        if ours != theirs {
            return Err(TransportError::ConfigMismatch {
                field,
                ours,
                theirs,
            });
        }
    }

    let mut out = Vec::new();
    loop {
        let env = read_msg_blocking(&mut stream, &mut payload)?;
        if let Some(t) = &tel {
            t.received(env.kind, payload.len());
        }
        match env.kind {
            MsgKind::Invite => {
                let span = tel.as_ref().map(|t| t.hub.span(Phase::Train, env.round));
                let (analytic, wire) = node.handle_invite(env.round, &payload)?;
                drop(span);
                let mut offer = [0u8; 16];
                offer[..8].copy_from_slice(&analytic.to_le_bytes());
                offer[8..].copy_from_slice(&wire.to_le_bytes());
                write_msg(&mut stream, MsgKind::Offer, env.round, &offer)?;
                if let Some(t) = &tel {
                    t.sent(MsgKind::Offer, offer.len());
                }
            }
            MsgKind::Grant => {
                if payload.first() == Some(&1) {
                    out.clear();
                    let span = tel.as_ref().map(|t| t.hub.span(Phase::Encode, env.round));
                    node.encode_granted(env.round, &mut out)?;
                    drop(span);
                    write_msg(&mut stream, MsgKind::Upload, env.round, &out)?;
                    if let Some(t) = &tel {
                        t.sent(MsgKind::Upload, out.len());
                    }
                } else {
                    node.discard_pending();
                }
            }
            MsgKind::Fin => {
                let _ = stream.flush();
                return Ok(());
            }
            other => return Err(TransportError::UnexpectedMessage(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke_config;

    /// A node keeps exactly the slice of the server's [`RunSetup`] it
    /// trains with: the layout, the BN-statistic positions, its own shard
    /// and the population size.
    #[test]
    fn node_holds_the_run_setup_layout_and_its_own_shard() {
        for strategy in ["fedavg", "gluefl"] {
            let cfg = smoke_config(strategy, 6, 1, 31).expect("valid smoke config");
            let setup = RunSetup::new(&cfg);
            let node = ClientNode::new(cfg, 5);
            assert_eq!(node.topology, setup.topology);
            assert_eq!(node.topology.num_params(), setup.topology.num_params());
            assert_eq!(node.stats_positions, setup.stats_positions);
            assert_eq!(node.population, setup.data.num_clients());
            assert_eq!(node.shard, setup.data.client(5));
        }
    }
}
