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
use gluefl_core::strategies::Upload;
use gluefl_core::wire_link::encode_upload;
use gluefl_core::{
    GlueFlParams, InProcessClients, RoundRecord, RunSetup, SimConfig, StrategyConfig,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_net::timing::ClientRoundTime;
use gluefl_tensor::SparseUpdate;
use gluefl_wire::crc::{crc16, crc16_update};
use gluefl_wire::{
    frame_len_from_header, FrameWriter, Rounding, WireError, WirePolicy, HEADER_BYTES,
};
use std::collections::VecDeque;

const ROUNDS: u32 = 4;

/// What the lowest granted slot delivers instead of its upload.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Bytes that are no frame at all.
    Garbage,
    /// A well-formed STC upload (sparse + stats frames) sent to GlueFL.
    WrongVariant,
    /// Its own split upload, the unique part replaced by a
    /// checksum-valid index frame whose two indices are out of order.
    UnsortedIndices,
    /// Its own upload frames, then a stats frame one value too long.
    LongStats,
}

/// In-process clients with a fault script between them and the engine.
struct Scripted {
    clients: InProcessClients,
    fault: Fault,
    /// Model dimension and BN-statistic count, to forge frames with.
    dim: usize,
    stats_len: usize,
    reverse: bool,
    /// The invitation index whose offer is withheld (the last one) —
    /// or, with `absurd_offer`, replaced by `(u64::MAX, u64::MAX)`.
    silent: usize,
    absurd_offer: bool,
    /// The round's arrivals, collected from the clients up front (they
    /// deliver in ascending client-id order).
    queue: VecDeque<(usize, Vec<u8>)>,
    collected: bool,
    rejected: Vec<(u32, usize, WireError)>,
}

/// The frames of an upload payload, split at their boundaries.
fn frames(payload: &[u8]) -> Vec<&[u8]> {
    let mut rest = payload;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let len = frame_len_from_header(rest).expect("an honest payload") as usize;
        let (frame, tail) = rest.split_at(len);
        out.push(frame);
        rest = tail;
    }
    out
}

impl Scripted {
    /// What `fault` makes of the honest `payload` of `round`.
    fn forge(&self, round: u32, payload: &[u8]) -> Vec<u8> {
        let writer = FrameWriter::new(WirePolicy::default());
        let sparse = |pairs| Upload::Sparse(SparseUpdate::from_pairs(self.dim, pairs));
        let mut out = Vec::new();
        match self.fault {
            Fault::Garbage => out = vec![0xA5; 64],
            Fault::WrongVariant => {
                let upload = sparse(vec![(1, 1.0), (5, 2.0)]);
                let _ = encode_upload(&upload, round, &WirePolicy::default(), 0, &mut out);
                let stats = vec![0.0; self.stats_len];
                let _ = writer.known_mask(&mut out, round, Rounding::Nearest, self.dim, &stats);
            }
            Fault::UnsortedIndices => {
                let honest = frames(payload);
                assert_eq!(honest.len(), 3, "shared, unique, stats");
                let mut unique = Vec::new();
                let upload = sparse(vec![(3, 1.0), (9, 2.0)]);
                let _ = encode_upload(&upload, round, &WirePolicy::default(), 0, &mut unique);
                // Two explicit u32 positions follow the header: swap
                // them and re-seal the checksum.
                let (a, b) = (HEADER_BYTES, HEADER_BYTES + 4);
                for i in 0..4 {
                    unique.swap(a + i, b + i);
                }
                let crc = crc16_update(crc16(&unique[..14]), &unique[HEADER_BYTES..]);
                unique[14..16].copy_from_slice(&crc.to_le_bytes());
                out.extend_from_slice(honest[0]);
                out.extend_from_slice(&unique);
                out.extend_from_slice(honest[2]);
            }
            Fault::LongStats => {
                let honest = frames(payload);
                out.extend_from_slice(&payload[..payload.len() - honest[2].len()]);
                let stats = vec![0.0; self.stats_len + 1];
                let _ = writer.known_mask(&mut out, round, Rounding::Nearest, self.dim, &stats);
            }
        }
        out
    }
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
        // (a) one client never answers, or answers nonsense.
        offers[self.silent] = self.absurd_offer.then_some((u64::MAX, u64::MAX));
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
            // (b) the lowest granted slot delivers the scripted fault.
            let at = (0..self.queue.len())
                .min_by_key(|&at| self.queue[at].0)
                .expect("kept");
            self.queue[at].1 = self.forge(round, &self.queue[at].1);
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

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        self.rejected.push((round, slot, *err));
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

fn scripted(cfg: &SimConfig, setup: &RunSetup, fault: Fault, reverse: bool) -> Scripted {
    Scripted {
        clients: InProcessClients::new(cfg, setup),
        fault,
        dim: setup.topology.num_params(),
        stats_len: setup.stats_positions.len(),
        reverse,
        silent: 0,
        absurd_offer: false,
        queue: VecDeque::new(),
        collected: false,
        rejected: Vec::new(),
    }
}

/// Runs every round under the fault script; returns the records and the
/// final parameter bits.
fn run_scripted(reverse: bool) -> (Vec<RoundRecord>, Vec<u32>) {
    run_scripted_with(reverse, false)
}

fn run_scripted_with(reverse: bool, absurd_offer: bool) -> (Vec<RoundRecord>, Vec<u32>) {
    let cfg = tiny_gluefl();
    let keep = cfg.round_size;
    let setup = RunSetup::new(&cfg);
    let mut io = scripted(&cfg, &setup, Fault::Garbage, reverse);
    io.absurd_offer = absurd_offer;
    let mut engine = RoundEngine::new(cfg, setup);
    run_rounds(&mut engine, &mut io, keep)
}

fn run_rounds(
    engine: &mut RoundEngine,
    io: &mut Scripted,
    keep: usize,
) -> (Vec<RoundRecord>, Vec<u32>) {
    let mut records = Vec::new();
    for round in 0..ROUNDS {
        let rec = engine.step(io);
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

/// An offer is two numbers from the other side of the IO. The socket
/// server refuses one no upload could honour
/// (`gluefl_transport::proto::parse_offer`); an IO that lets
/// `(u64::MAX, u64::MAX)` through must still get a finished round out of
/// a debug build: the sums saturate, the sender prices itself out of the
/// keep set, and everyone else's round is the one they would have had
/// with that client silent.
#[test]
fn an_absurd_offer_saturates_the_ledger_and_changes_nothing_else() {
    let (silent_recs, silent_bits) = run_scripted(false);
    let (absurd_recs, absurd_bits) = run_scripted_with(false, true);
    assert_eq!(silent_bits, absurd_bits, "the offer moved the parameters");
    for (silent, absurd) in silent_recs.iter().zip(&absurd_recs) {
        assert_eq!(
            (absurd.up_bytes, absurd.wire_up_bytes),
            (u64::MAX, u64::MAX)
        );
        let rest = RoundRecord {
            up_bytes: silent.up_bytes,
            wire_up_bytes: silent.wire_up_bytes,
            ..*absurd
        };
        assert_eq!(rest, *silent, "round {}", silent.round);
    }
}

/// Frames that decode but that the engine cannot use are rejected with
/// the error that names the fault — the kind that arrived, the index
/// that is out of order, the stats count that is off — counted once each
/// in the wire layer's decode-error table, and the round folds without
/// the slot.
#[test]
fn each_unusable_upload_is_rejected_with_its_own_typed_error() {
    let count = |name: &str| {
        gluefl_wire::stats::decode_errors()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, c)| c)
    };
    let cfg = tiny_gluefl();
    let stats_len = RunSetup::new(&cfg).stats_positions.len();
    let cases = [
        (
            Fault::WrongVariant,
            // Two indices over a 300-odd-position model: the v1 index
            // layout, kind id 2 — not the id of a dense frame.
            WireError::UnexpectedKind(2),
        ),
        (
            Fault::UnsortedIndices,
            WireError::IndicesNotIncreasing { position: 1 },
        ),
        (
            Fault::LongStats,
            WireError::NnzMismatch {
                declared: stats_len + 1,
                actual: stats_len,
            },
        ),
    ];
    for (fault, expected) in cases {
        let before = count(expected.stat_name());
        let setup = RunSetup::new(&cfg);
        let mut io = scripted(&cfg, &setup, fault, false);
        let mut engine = RoundEngine::new(cfg.clone(), setup);
        let _ = run_rounds(&mut engine, &mut io, cfg.round_size);
        for (round, rejection) in io.rejected.iter().enumerate() {
            assert_eq!(rejection.2, expected, "{fault:?}, round {round}");
        }
        assert_eq!(
            count(expected.stat_name()) - before,
            u64::from(ROUNDS),
            "{fault:?}: one count per rejection"
        );
    }
}
