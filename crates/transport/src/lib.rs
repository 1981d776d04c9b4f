//! Real-socket federated rounds: a TCP server/client pair speaking
//! `gluefl-wire` frames. The server drives [`gluefl_core::RoundEngine`]
//! — the engine the in-process simulator drives — through a socket IO,
//! and each client runs the strategy's client half
//! ([`gluefl_core::ClientCompressor`]), so a socket run reproduces the
//! simulator bit for bit.
//!
//! # Framing
//!
//! Every message on the wire is a 10-byte [`proto`] envelope —
//! `[magic][kind][round u32][len u32]`, all little-endian — followed by
//! `len` payload bytes. Model, mask, upload, and BN-statistic payloads
//! are standard checksummed `gluefl-wire` frames, so corruption anywhere
//! in a payload surfaces as a typed [`gluefl_wire::WireError`], never as
//! a panic. The message sequence per connection is
//!
//! ```text
//! client:  HELLO ─────────────► server
//! client:  ◄───────────WELCOME  server
//! repeat per round (only when invited):
//! client:  ◄──────────── INVITE server   group tag + model/mask frames
//! client:  OFFER ─────────────► server   nominal upload byte counts
//! client:  ◄───────────── GRANT server   1 = train and send, 0 = dismissed
//! client:  UPLOAD ────────────► server   only when granted
//! finally: ◄─────────────── FIN server
//! ```
//!
//! # Deadline state machine
//!
//! The server never blocks indefinitely on a client, and during the
//! handshake never on one at all: each connection's `HELLO` is read on
//! its own thread, so a connection that stays silent past the stall
//! grace is turned away without delaying the others. Within a message, a
//! connection that stops making byte progress for longer than the stall
//! grace is cut off (slow-loris defense); between messages a connection
//! may idle forever.
//!
//! Each round phase arms one slot per invitation: what its client owes
//! and by when. The deadline is a flat floor (`offer_timeout`,
//! `upload_timeout`) plus the client's *modeled* phase time scaled by
//! `secs_per_modeled_sec` ([`gluefl_net::timing::wall_deadline`]); at the
//! default scale of 0 every deadline is the flat floor. One IO-free
//! table (`slots`) decides, from a clock reading and at most one reader
//! event, which slot is paid, which is lost and whom that kills: a client
//! that misses a deadline, disconnects, sends a message it does not owe
//! (an `UPLOAD` after `GRANT(0)`, say) or sends hostile bytes is cut
//! off, and skipped if it held a kept slot — the streaming aggregator
//! folds whoever remains and the round always completes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
mod slots;
#[cfg(test)]
mod socket_reference;

pub use client::{run_client, run_client_traced, ClientNode};
pub use proto::{MsgKind, ProtoError, ENVELOPE_BYTES, PROTO_MAGIC, PROTO_VERSION};
pub use server::{Server, ServerConfig, ServerReport};

use gluefl_core::SimConfig;
use gluefl_telemetry::{Counter, Telemetry};
use gluefl_wire::WireError;

/// Everything that can go wrong on a transport endpoint.
#[derive(Debug)]
pub enum TransportError {
    /// Envelope-level failure (socket error, bad magic, truncation, stall).
    Proto(ProtoError),
    /// A payload's wire frames failed to decode.
    Wire(WireError),
    /// A message kind arrived that the state machine does not expect here.
    UnexpectedMessage(MsgKind),
    /// An `INVITE` payload was empty (missing its group tag).
    EmptyInvite,
    /// An `INVITE` group tag was neither 0 (fresh) nor 1 (sticky).
    BadGroup(u8),
    /// The broadcast frames were not the dense model (+ optional mask)
    /// this client expects.
    BadBroadcast,
    /// The strategy requires a broadcast mask but the `INVITE` carried none.
    MissingBroadcastMask,
    /// A `GRANT` arrived for a round whose invitation this client does
    /// not hold.
    NoPendingUpload,
    /// The run the server announced in `WELCOME` is not the one this
    /// client was configured for.
    ConfigMismatch {
        /// Which announced value disagrees: `"population"` or `"rounds"`.
        field: &'static str,
        /// The value in this client's own config.
        ours: u64,
        /// The value the server announced.
        theirs: u64,
    },
    /// Fewer clients than expected completed `HELLO` in time.
    HandshakeTimeout {
        /// Clients that finished the handshake.
        connected: usize,
        /// Clients the server was configured to wait for.
        expected: usize,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Proto(e) => write!(f, "protocol error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::UnexpectedMessage(kind) => write!(f, "unexpected message kind {kind:?}"),
            Self::EmptyInvite => write!(f, "INVITE payload is empty"),
            Self::BadGroup(g) => write!(f, "INVITE group tag {g} is neither fresh nor sticky"),
            Self::BadBroadcast => write!(f, "broadcast frames do not match the model"),
            Self::MissingBroadcastMask => write!(f, "strategy requires a mask frame; none sent"),
            Self::NoPendingUpload => write!(f, "GRANT for a round with no held invitation"),
            Self::ConfigMismatch {
                field,
                ours,
                theirs,
            } => write!(
                f,
                "config mismatch: server runs {field} = {theirs}, this client was built for {ours}"
            ),
            Self::HandshakeTimeout {
                connected,
                expected,
            } => {
                write!(f, "only {connected}/{expected} clients completed HELLO")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Proto(e) => Some(e),
            Self::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> Self {
        Self::Proto(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Measured bytes (envelope + payload) per message kind and direction:
/// the `{dir, frame}` table of one endpoint's `…_bytes_total` family.
struct ByteCounters {
    /// Indexed by `MsgKind::id() - 1`.
    up: [Counter; MsgKind::ALL.len()],
    down: [Counter; MsgKind::ALL.len()],
}

impl ByteCounters {
    fn new(hub: &Telemetry, family: &str) -> Self {
        let dir =
            |dir| MsgKind::ALL.map(|k| hub.counter(family, &[("dir", dir), ("frame", k.name())]));
        Self {
            up: dir("up"),
            down: dir("down"),
        }
    }

    /// Counts one message sent up (client to server).
    fn up(&self, kind: MsgKind, payload_len: usize) {
        Self::add(&self.up, kind, payload_len);
    }

    /// Counts one message sent down (server to client).
    fn down(&self, kind: MsgKind, payload_len: usize) {
        Self::add(&self.down, kind, payload_len);
    }

    fn add(table: &[Counter], kind: MsgKind, payload_len: usize) {
        table[kind.id() as usize - 1].add((ENVELOPE_BYTES + payload_len) as u64);
    }
}

/// FNV-1a over the little-endian bit patterns of a parameter vector —
/// a compact fingerprint for "same model, bit for bit" assertions
/// across processes.
#[must_use]
pub fn fnv1a_f32_bits(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A small, fast [`SimConfig`] for transport smoke tests and the CLI
/// binaries: `clients` participants, keep-4 rounds with 1.25×
/// over-commitment, tiny model/dataset, no availability churn (every
/// configured client must actually connect), eval on the final round.
///
/// `strategy_name` is one of `fedavg`, `md`, `stc`, `stc-quant`, `apf`,
/// `gluefl`.
///
/// # Errors
/// An unknown strategy name, `clients == 0`, or `gluefl` with fewer
/// `clients` than its sticky group (6): the run could not be built, so
/// the CLI binaries reject it before they bind.
pub fn smoke_config(
    strategy_name: &str,
    clients: usize,
    rounds: u32,
    seed: u64,
) -> Result<SimConfig, String> {
    use gluefl_core::{GlueFlParams, StrategyConfig};
    let strategy = match strategy_name {
        "fedavg" => StrategyConfig::FedAvg,
        "md" => StrategyConfig::MdFedAvg,
        "stc" => StrategyConfig::Stc { q: 0.25 },
        "stc-quant" => StrategyConfig::StcQuantized { q: 0.25 },
        "apf" => StrategyConfig::Apf {
            config: gluefl_compress::ApfConfig::default(),
        },
        "gluefl" => StrategyConfig::GlueFl(GlueFlParams {
            q: 0.25,
            q_shr: 0.2,
            sticky_group: 6,
            sticky_draw: 3,
            regen_interval: Some(3),
            compensation: gluefl_compress::CompensationMode::Rescaled,
            equal_weights: false,
        }),
        other => {
            return Err(format!(
                "unknown strategy {other:?} (one of {})",
                STRATEGIES.join(", ")
            ))
        }
    };
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    if let StrategyConfig::GlueFl(p) = &strategy {
        if clients < p.sticky_group {
            return Err(format!(
                "--clients {clients} is below gluefl's sticky group of {}",
                p.sticky_group
            ));
        }
    }
    let mut cfg = SimConfig::paper_setup(
        gluefl_data::DatasetProfile::Femnist,
        gluefl_ml::DatasetModel::ShuffleNet,
        strategy,
        0.02,
        rounds,
        seed,
    );
    cfg.dataset.clients = clients;
    cfg.dataset.feature_dim = 12;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 128;
    cfg.model.hidden = vec![16];
    cfg.round_size = 4;
    cfg.oc = 1.25;
    cfg.local_steps = 2;
    cfg.batch_size = 8;
    cfg.availability = None;
    cfg.eval_every = rounds;
    Ok(cfg)
}

/// The strategy names [`smoke_config`] accepts.
const STRATEGIES: [&str; 6] = ["fedavg", "md", "stc", "stc-quant", "apf", "gluefl"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_accepts_every_listed_strategy() {
        let names = ["fedavg", "md-fedavg", "stc", "stc-quant", "apf", "gluefl"];
        for (flag, name) in STRATEGIES.into_iter().zip(names) {
            let cfg = smoke_config(flag, 8, 2, 1).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_eq!(cfg.strategy.name(), name);
            assert_eq!(cfg.dataset.clients, 8);
        }
    }

    #[test]
    fn smoke_config_rejects_an_unknown_strategy() {
        let err = smoke_config("bogus", 8, 2, 1).unwrap_err();
        assert!(err.contains("unknown strategy \"bogus\""), "{err}");
    }

    #[test]
    fn smoke_config_rejects_zero_clients() {
        for name in STRATEGIES {
            assert!(smoke_config(name, 0, 2, 1).is_err(), "{name}");
        }
    }

    #[test]
    fn smoke_config_rejects_gluefl_below_its_sticky_group() {
        for clients in 1..6 {
            let err = smoke_config("gluefl", clients, 2, 1).unwrap_err();
            assert!(err.contains("sticky group of 6"), "{err}");
        }
        assert!(smoke_config("gluefl", 6, 2, 1).is_ok());
    }
}
