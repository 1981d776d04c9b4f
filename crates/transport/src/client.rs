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
//! test set, which only the server's engine needs, it never builds), and
//! its turn — train, compress, price — is the simulator's per-client
//! routine, [`ClientTurn::run`], over the strategy's client half
//! [`ClientCompressor`]: one instance here serving one client, one
//! instance in the simulator serving all of them. It follows the
//! simulator's schedule too: an `INVITE` is answered with the nominal
//! price the broadcast fixes ([`ClientCompressor::shape_offer`]), and the
//! turn runs only on a positive `GRANT`, in a [`StagedTurn`] that is kept
//! as soon as it has run. A dismissed client never trains. The
//! server-side state a client lacks (samplers, mask evolution) it never
//! needs: the round's mask arrives in every `INVITE`.

use crate::proto::{
    offer_payload, read_msg_blocking, write_msg, MsgKind, ProtoError, PROTO_VERSION,
};
use crate::{ByteCounters, TransportError};
use gluefl_core::strategies::Group;
use gluefl_core::{ClientCompressor, ClientTurn, RunSetup, ScratchPool, SimConfig, StagedTurn};
use gluefl_data::ClientDataset;
use gluefl_ml::MlpTopology;
use gluefl_telemetry::{Phase, Telemetry};
use gluefl_tensor::BitMask;
use gluefl_wire::{decode_frame_prefix, FrameKind};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;

/// One real client: its data shard, model topology, scratch pool (its
/// training slot included), compression state and the buffers of its
/// turn, all derived from the shared [`SimConfig`].
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
    /// This client's shard, every row filled once at construction, so
    /// no `INVITE` pays for synthesis inside a timed round.
    shard: ClientDataset,
    compressor: ClientCompressor,
    scratch: ScratchPool,
    /// The round's decoded global parameters.
    global: Vec<f32>,
    /// The round's decoded broadcast mask, if the strategy ships one.
    round_mask: Option<BitMask>,
    /// The round and group of the invitation awaiting its `GRANT`, if
    /// any; the broadcast it carried is `global` and `round_mask`.
    invited: Option<(u32, Group)>,
    /// The buffers of the turn a `GRANT` runs, reused from turn to turn.
    turn: StagedTurn,
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
            scratch: ScratchPool::new(),
            global: Vec::new(),
            round_mask: None,
            invited: None,
            turn: StagedTurn::default(),
        }
    }

    /// This client's banked residual and weight; see
    /// [`ClientCompressor::stored`].
    #[must_use]
    pub fn stored(&self) -> Option<(&[f32], f64)> {
        self.compressor.stored(self.id)
    }

    /// Decodes an `INVITE` payload (`[group u8]` + broadcast frames) and
    /// holds the broadcast for the `GRANT`, forgetting any invitation
    /// whose grant never arrived. Returns the offer pair
    /// `(analytic_bytes, wire_bytes)`: the nominal price the broadcast
    /// fixes ([`ClientCompressor::shape_offer`]), the one the simulator
    /// offers for every invited client. Nothing is trained yet.
    ///
    /// # Errors
    /// Typed errors on malformed broadcast frames, and
    /// [`TransportError::MissingBroadcastMask`] when a masking strategy's
    /// broadcast carries no mask.
    pub fn handle_invite(
        &mut self,
        round: u32,
        payload: &[u8],
    ) -> Result<(u64, u64), TransportError> {
        self.discard_pending();
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

        let mask = self.round_mask.as_ref();
        let price = self
            .compressor
            .shape_offer(round, mask, self.stats_positions.len())
            .ok_or(TransportError::MissingBroadcastMask)?;
        self.invited = Some((round, group));
        Ok(price)
    }

    /// Runs the turn of the invitation granted for `round` — identical
    /// inputs to the simulator's worker ([`ClientTurn::run`]) — and keeps
    /// it ([`StagedTurn::keep`]): the residual it leaves is banked, and
    /// its upload (frames + BN-statistics frame) is serialized into
    /// `out`, the byte-exact payload the simulator produces in-process,
    /// with any lossy-codec residual folded into the client's own
    /// error-compensation bank.
    ///
    /// # Errors
    /// [`TransportError::NoPendingUpload`] when no invitation is held for
    /// `round`; one held for another round is forgotten.
    pub fn encode_granted(&mut self, round: u32, out: &mut Vec<u8>) -> Result<(), TransportError> {
        let Some((_, group)) = self.invited.take().filter(|&(r, _)| r == round) else {
            return Err(TransportError::NoPendingUpload);
        };
        let mask = self.round_mask.as_ref();
        self.turn
            .stage(&mut self.compressor, round, self.id, &mut self.scratch);
        let turn = ClientTurn {
            cfg: &self.cfg,
            topo: &self.topology,
            stats_positions: &self.stats_positions,
            compressor: &self.compressor,
            round,
            global: &self.global,
            round_mask: mask,
            update_norm: None,
        };
        turn.run(group, &self.shard, &mut self.turn, &mut self.scratch)
            .expect("the invitation was priced, so its mask was broadcast");
        self.turn
            .keep(&mut self.compressor, mask, out, &mut self.scratch);
        Ok(())
    }

    /// Forgets the held invitation after a negative grant (the client was
    /// over-committed out of the keep set): the client trains nothing, so
    /// its residual and weight stay as they were.
    pub fn discard_pending(&mut self) {
        self.invited = None;
    }
}

/// The client's pre-registered telemetry handles: per-kind byte
/// counters plus the hub for the Train phase spans.
struct ClientRecorder {
    hub: Arc<Telemetry>,
    bytes: ByteCounters,
}

/// Connects to `addr` and runs the full client protocol until the server
/// sends `FIN`: `HELLO` → `WELCOME`, then per round `INVITE` → `OFFER`
/// (the nominal price, nothing trained yet), and on a positive `GRANT`
/// the turn and its upload bytes.
///
/// # Errors
/// Any socket or protocol failure; a clean `FIN` returns `Ok(())`.
pub fn run_client(addr: &str, cfg: SimConfig, id: usize) -> Result<(), TransportError> {
    run_client_traced(addr, cfg, id, None)
}

/// [`run_client`] with an optional telemetry hub: per-kind byte
/// counters (`gluefl_client_bytes_total{dir,frame}`) and a
/// [`Phase::Train`] span around each granted turn: local training,
/// compression and the upload's serialization. `tel: None` is the
/// zero-overhead path [`run_client`] takes.
///
/// # Errors
/// Any socket or protocol failure; a clean `FIN` returns `Ok(())`.
pub fn run_client_traced(
    addr: &str,
    cfg: SimConfig,
    id: usize,
    tel: Option<Arc<Telemetry>>,
) -> Result<(), TransportError> {
    serve(addr, cfg, id, tel).map(drop)
}

/// [`run_client_traced`], returning the node as `FIN` left it.
pub(crate) fn serve(
    addr: &str,
    cfg: SimConfig,
    id: usize,
    tel: Option<Arc<Telemetry>>,
) -> Result<ClientNode, TransportError> {
    let tel = tel.map(|hub| ClientRecorder {
        bytes: ByteCounters::new(&hub, "gluefl_client_bytes_total"),
        hub,
    });
    let mut node = ClientNode::new(cfg, id);
    let mut stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
    stream.set_nodelay(true).map_err(ProtoError::Io)?;

    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&PROTO_VERSION.to_le_bytes());
    hello[4..].copy_from_slice(&(u32::try_from(id).expect("id fits u32")).to_le_bytes());
    write_msg(&mut stream, MsgKind::Hello, 0, &hello)?;
    if let Some(t) = &tel {
        t.bytes.up(MsgKind::Hello, hello.len());
    }

    let mut payload = Vec::new();
    let env = read_msg_blocking(&mut stream, &mut payload)?;
    if env.kind != MsgKind::Welcome {
        return Err(TransportError::UnexpectedMessage(env.kind));
    }
    if let Some(t) = &tel {
        t.bytes.down(MsgKind::Welcome, payload.len());
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
            t.bytes.down(env.kind, payload.len());
        }
        match env.kind {
            MsgKind::Invite => {
                let (analytic, wire) = node.handle_invite(env.round, &payload)?;
                let offer = offer_payload(analytic, wire);
                write_msg(&mut stream, MsgKind::Offer, env.round, &offer)?;
                if let Some(t) = &tel {
                    t.bytes.up(MsgKind::Offer, offer.len());
                }
            }
            MsgKind::Grant => {
                if payload.first() == Some(&1) {
                    out.clear();
                    let span = tel.as_ref().map(|t| t.hub.span(Phase::Train, env.round));
                    node.encode_granted(env.round, &mut out)?;
                    drop(span);
                    write_msg(&mut stream, MsgKind::Upload, env.round, &out)?;
                    if let Some(t) = &tel {
                        t.bytes.up(MsgKind::Upload, out.len());
                    }
                } else {
                    node.discard_pending();
                }
            }
            MsgKind::Fin => {
                let _ = stream.flush();
                return Ok(node);
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
