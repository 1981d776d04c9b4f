//! The round engine under a scripted IO: no sockets, no sleeps.
//!
//! [`Scripted`] wraps the in-process clients and decides what the engine
//! gets to see of them: it withholds one invited client's offer, hands
//! over garbage instead of one granted upload, and delivers the rest in
//! a chosen order. The engine must complete every round, skip exactly
//! the corrupted slot, and land on the same parameters — bit for bit —
//! whatever the delivery order, run after run.
//!
//! The engine folds one arrival while the IO, on a producer thread,
//! delivers the next into the engine's sink, so the script also probes
//! that pipeline's edges: a rejection of the round's last arrival, two
//! rejections in one round, an IO that breaks its contract, one that
//! panics, and one that panics holding payload buffers it took. Those
//! cases run on a thread of their own under a deadline, so a deadlock
//! fails the test instead of stalling the suite.

use gluefl_compress::mask_shift::ClientSplit;
use gluefl_compress::stc::TernaryUpdate;
use gluefl_compress::ApfConfig;
use gluefl_core::engine::{Arrival, Broadcast, RoundEngine, RoundIo, UploadSink};
use gluefl_core::strategies::Group;
use gluefl_core::strategies::Upload;
use gluefl_core::wire_link::encode_upload;
use gluefl_core::{
    GlueFlParams, InProcessClients, RoundRecord, RunSetup, SimConfig, StrategyConfig,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_tensor::{BitMask, MaskAligned, SparseUpdate};
use gluefl_wire::crc::{crc16, crc16_update};
use gluefl_wire::{
    frame_kind_from_header, frame_len_from_header, FrameWriter, Rounding, WireError, WirePolicy,
    HEADER_BYTES,
};
use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

const ROUNDS: u32 = 4;

/// Held by the tests that reject uploads as a kind the strategy does not
/// fold: the wire layer's decode-error table is one per process, and one
/// of them counts its `UnexpectedKind` entries.
static UNEXPECTED_KIND: Mutex<()> = Mutex::new(());

/// What [`Scripted::uploads`] panics with when told to.
const IO_PANIC: &str = "scripted IO lost its connection table";

/// The five kinds of [`Upload`] a client can send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Dense,
    Sparse,
    Ternary,
    KnownMask,
    MaskSplit,
}

const VARIANTS: [Variant; 5] = [
    Variant::Dense,
    Variant::Sparse,
    Variant::Ternary,
    Variant::KnownMask,
    Variant::MaskSplit,
];

/// What the lowest granted slot delivers instead of its upload.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Bytes that are no frame at all.
    Garbage,
    /// A well-formed upload of this variant, then a well-formed stats
    /// frame. Mask-aligned parts follow the round's broadcast mask (an
    /// empty one when the round broadcasts none), so only the variant
    /// itself can be wrong.
    WrongVariant(Variant),
    /// Its own split upload, the unique part replaced by a
    /// checksum-valid index frame whose two indices are out of order.
    UnsortedIndices,
    /// Its own upload frames, then a stats frame one value too long.
    LongStats,
    /// Its own split upload, the unique part replaced by a sparse frame
    /// that declares a `dim` 64 wider than the model's, every index
    /// still below the model's `dim`.
    SplitDim,
}

/// In-process clients with a fault script between them and the engine.
struct Scripted {
    clients: InProcessClients,
    fault: Fault,
    /// Model dimension and BN-statistic count, to forge frames with.
    dim: usize,
    stats_len: usize,
    reverse: bool,
    /// The round's broadcast mask, if it carried one.
    mask: Option<BitMask>,
    /// Whether the last invitation's offer is withheld: off for a
    /// sampler without spares, which keeps every client it invites.
    withhold: bool,
    /// The invitation index whose offer is withheld (the last one) —
    /// or, with `absurd_offer`, replaced by `u64::MAX`.
    silent: usize,
    absurd_offer: bool,
    /// The round's arrivals, collected from the clients up front (they
    /// deliver in ascending client-id order).
    queue: VecDeque<(usize, Vec<u8>)>,
    rejected: Vec<(u32, usize, WireError)>,
    /// How many of the lowest granted slots deliver the fault (1) — or,
    /// with `fault_last`, how many of the round's last arrivals.
    faults: usize,
    fault_last: bool,
    /// Breaks the contract: the round's last arrival is delivered twice.
    twice: bool,
    /// Panics with [`IO_PANIC`] before this delivery of a round (one
    /// past the last: once every arrival is out).
    panic_at: Option<usize>,
    /// Payload buffers taken from the engine's sink before the round's
    /// first delivery and held, never delivered.
    hoard: usize,
    /// The round's forged slots, its arrivals in delivery order, and its
    /// deliveries so far, the next one included.
    forged: Vec<usize>,
    arrived: Vec<usize>,
    calls: usize,
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
            Fault::WrongVariant(variant) => {
                let dim = self.dim;
                let shared = || {
                    let nnz = self.mask.as_ref().map_or(0, BitMask::count_ones);
                    MaskAligned::new(dim, vec![0.5; nnz])
                };
                let upload = match variant {
                    Variant::Dense => Upload::Dense(vec![0.5; dim]),
                    Variant::Sparse => sparse(vec![(1, 1.0), (5, 2.0)]),
                    Variant::Ternary => Upload::Ternary(TernaryUpdate::quantize(
                        &SparseUpdate::from_pairs(dim, vec![(1, 1.0), (5, -2.0)]),
                    )),
                    Variant::KnownMask => Upload::KnownMask(shared()),
                    Variant::MaskSplit => Upload::MaskSplit(ClientSplit {
                        shared: shared(),
                        unique: SparseUpdate::from_pairs(dim, vec![(1, 1.0), (5, 2.0)]),
                    }),
                };
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
            Fault::SplitDim => {
                let honest = frames(payload);
                assert_eq!(honest.len(), 3, "shared, unique, stats");
                let wide = Upload::Sparse(SparseUpdate::from_pairs(
                    self.dim + 64,
                    vec![(3, 1.0), (9, 2.0)],
                ));
                out.extend_from_slice(honest[0]);
                let _ = encode_upload(&wide, round, &WirePolicy::default(), 0, &mut out);
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
        self.mask = broadcast.mask.cloned();
        self.forged.clear();
        self.arrived.clear();
        self.calls = 0;
        self.clients.invite(round, invited, broadcast);
    }

    fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
        self.clients.offers(round, offers);
        // (a) one client never answers, or answers nonsense.
        if self.withhold {
            offers[self.silent] = self.absurd_offer.then_some(u64::MAX);
        }
    }

    fn grant(&mut self, round: u32, kept: &[usize]) {
        assert!(
            !self.withhold || !kept.contains(&self.silent),
            "a client without an offer must lose to the over-committed spares"
        );
        self.clients.grant(round, kept);
    }

    fn uploads(&mut self, round: u32, sink: &dyn UploadSink) {
        let collected = Collect::default();
        self.clients.uploads(round, &collected);
        for (arrival, bytes) in collected.0.into_inner().unwrap() {
            let Arrival::Delivered(i) = arrival else {
                panic!("the in-process clients lose nothing")
            };
            self.queue.push_back((i, bytes));
        }
        // (b) the lowest granted slots (or the last arrivals) deliver the
        // scripted fault.
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        if !self.fault_last {
            order.sort_unstable_by_key(|&at| self.queue[at].0);
        } else if !self.reverse {
            order.reverse();
        }
        for &at in &order[..self.faults] {
            self.queue[at].1 = self.forge(round, &self.queue[at].1);
            self.forged.push(self.queue[at].0);
        }
        if self.twice {
            let again = self.queue.back().expect("kept").clone();
            self.queue.push_back(again);
        }
        let hoard: Vec<Vec<u8>> = (0..self.hoard).map(|_| sink.buffer()).collect();
        // (c) the rest arrive in the scripted order, each serialized into
        // a buffer of the engine's.
        loop {
            self.calls += 1;
            if self.panic_at == Some(self.calls) {
                panic!("{IO_PANIC} (holding {} buffers)", hoard.len());
            }
            let next = if self.reverse {
                self.queue.pop_back()
            } else {
                self.queue.pop_front()
            };
            let Some((i, bytes)) = next else { break };
            let mut payload = sink.buffer();
            payload.extend_from_slice(&bytes);
            self.arrived.push(i);
            sink.deliver(Arrival::Delivered(i), payload);
        }
        for buf in hoard {
            sink.recycle(buf);
        }
    }

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        self.rejected.push((round, slot, *err));
    }
}

/// A small always-online run of `strategy`.
fn tiny(strategy: StrategyConfig) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.02,
        ROUNDS,
        7,
    );
    cfg.model.hidden = vec![16];
    cfg.dataset.feature_dim = 12;
    cfg.dataset.classes = 8;
    cfg.dataset.test_samples = 200;
    cfg.availability = None;
    cfg
}

fn tiny_gluefl() -> SimConfig {
    let mut cfg = tiny(StrategyConfig::FedAvg);
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
    cfg
}

fn scripted(cfg: &SimConfig, setup: &RunSetup, fault: Fault, reverse: bool) -> Scripted {
    Scripted {
        clients: InProcessClients::new(cfg, setup),
        fault,
        dim: setup.topology.num_params(),
        stats_len: setup.stats_positions.len(),
        reverse,
        mask: None,
        withhold: true,
        silent: 0,
        absurd_offer: false,
        queue: VecDeque::new(),
        rejected: Vec::new(),
        faults: 1,
        fault_last: false,
        twice: false,
        panic_at: None,
        hoard: 0,
        forged: Vec::new(),
        arrived: Vec::new(),
        calls: 0,
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

/// An offer is a number from the other side of the IO. The socket
/// server refuses one no upload could honour
/// (`gluefl_transport::proto::parse_offer`); an IO that lets `u64::MAX`
/// through must still get a finished round out of a debug build. Offers rank the keep and set the modeled times, but the
/// upload ledger counts only the uploads the engine folds: the sender
/// prices itself out of the keep set, and the whole round, bytes
/// included, is the one everyone would have had with that client silent.
#[test]
fn an_absurd_offer_changes_nothing() {
    let (silent_recs, silent_bits) = run_scripted(false);
    let (absurd_recs, absurd_bits) = run_scripted_with(false, true);
    assert_eq!(silent_bits, absurd_bits, "the offer moved the parameters");
    assert_eq!(silent_recs, absurd_recs, "the offer moved a record");
}

/// Frames that decode but that the engine cannot use are rejected with
/// the error that names the fault — the kind that arrived, the index
/// that is out of order, the stats count that is off, the split part
/// whose `dim` disagrees with its sibling's — counted once each
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
    let _counting = UNEXPECTED_KIND.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = tiny_gluefl();
    let setup = RunSetup::new(&cfg);
    let (dim, stats_len) = (setup.topology.num_params(), setup.stats_positions.len());
    let cases = [
        (
            Fault::WrongVariant(Variant::Sparse),
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
        (
            Fault::SplitDim,
            WireError::DimMismatch {
                declared: dim + 64,
                expected: dim,
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

/// Each strategy folds exactly one upload variant. Every other variant
/// — well-formed, at the model's `dim`, mask-aligned to the round's
/// broadcast — is rejected as the kind its first frame declares, and the
/// round folds without it.
#[test]
fn each_strategy_rejects_every_upload_variant_it_does_not_fold() {
    let apf = StrategyConfig::Apf {
        config: ApfConfig {
            threshold: 0.5,
            ema_beta: 0.5,
            initial_period: 1,
            max_period: 4,
            warmup_rounds: 1,
        },
    };
    let configs = [
        (tiny(StrategyConfig::FedAvg), Variant::Dense),
        (tiny(StrategyConfig::MdFedAvg), Variant::Dense),
        (tiny(StrategyConfig::Stc { q: 0.25 }), Variant::Sparse),
        (
            tiny(StrategyConfig::StcQuantized { q: 0.25 }),
            Variant::Ternary,
        ),
        (tiny(apf), Variant::KnownMask),
        (tiny_gluefl(), Variant::MaskSplit),
    ];
    let _counting = UNEXPECTED_KIND.lock().unwrap_or_else(|e| e.into_inner());
    for (cfg, folds) in configs {
        let name = cfg.strategy.name();
        // Multinomial sampling invites no spares and keeps everyone.
        let withhold = cfg.strategy != StrategyConfig::MdFedAvg;
        for forged in VARIANTS.into_iter().filter(|&v| v != folds) {
            let setup = RunSetup::new(&cfg);
            let mut io = scripted(&cfg, &setup, Fault::WrongVariant(forged), false);
            io.withhold = withhold;
            let mut engine = RoundEngine::new(cfg.clone(), setup);
            for round in 0..ROUNDS {
                let _ = engine.step(&mut io);
                let bytes = io.forge(round, &[]);
                let kind = frame_kind_from_header(&bytes).expect("a forged frame");
                assert_eq!(io.forged.len(), 1, "{name}, {forged:?}, round {round}");
                assert_eq!(
                    io.rejected.get(round as usize),
                    Some(&(round, io.forged[0], WireError::UnexpectedKind(kind.id()))),
                    "{name}, {forged:?}, round {round}"
                );
                assert_eq!(io.rejected.len(), round as usize + 1);
                assert_eq!(
                    engine.skipped_uploads(),
                    round as usize + 1,
                    "{name}, {forged:?}, round {round}: the forged slot alone is skipped"
                );
            }
        }
    }
}

/// How long a pipeline-edge case may take before it counts as hung; a
/// case takes about a second unoptimised.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `case` on a thread of its own and returns how it ended, or fails
/// once [`DEADLINE`] passes without an outcome: a deadlock between the
/// engine and its producer must fail the test, not stall the suite.
fn within_deadline(case: impl FnOnce() + Send + 'static) -> std::thread::Result<()> {
    let (done, outcome) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(case)));
    });
    let outcome = outcome
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("no outcome within {DEADLINE:?}: the step hung"));
    worker.join().expect("the case's panic was caught");
    outcome
}

/// Runs `case` under [`within_deadline`]; it must pass.
fn passes(case: impl FnOnce() + Send + 'static) {
    within_deadline(case).unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

/// Runs `case` under [`within_deadline`]; it must panic, and this is the
/// message it panicked with.
fn panic_message(case: impl FnOnce() + Send + 'static) -> String {
    let payload = within_deadline(case).expect_err("the step returned instead of panicking");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("a panic with a message")
}

/// The faulty slot is the round's last arrival, so no later delivery
/// follows its rejection — it still reaches the IO, once, before `step`
/// returns.
#[test]
fn the_last_arrivals_rejection_lands_before_the_step_returns() {
    for reverse in [false, true] {
        passes(move || {
            let cfg = tiny_gluefl();
            let setup = RunSetup::new(&cfg);
            let mut io = scripted(&cfg, &setup, Fault::Garbage, reverse);
            io.fault_last = true;
            let mut engine = RoundEngine::new(cfg, setup);
            for round in 0..ROUNDS {
                let _ = engine.step(&mut io);
                let last = *io.arrived.last().expect("kept slots arrive");
                assert_eq!(io.forged, [last], "round {round}: the fault arrives last");
                assert_eq!(io.rejected.len(), round as usize + 1, "round {round}");
                let (at, slot, _) = io.rejected[round as usize];
                assert_eq!((at, slot), (round, last));
            }
        });
    }
}

/// Two unusable uploads in one round are rejected exactly once each, in
/// the order they arrived, and both count as skipped.
#[test]
fn two_faulty_slots_are_rejected_once_each_in_arrival_order() {
    for reverse in [false, true] {
        passes(move || {
            let cfg = tiny_gluefl();
            let keep = cfg.round_size;
            let setup = RunSetup::new(&cfg);
            let mut io = scripted(&cfg, &setup, Fault::Garbage, reverse);
            io.faults = 2;
            let mut engine = RoundEngine::new(cfg, setup);
            for round in 0..ROUNDS {
                let before = io.rejected.len();
                let rec = engine.step(&mut io);
                assert_eq!(rec.kept, keep);
                let slots: Vec<usize> = io.rejected[before..]
                    .iter()
                    .map(|&(at, slot, _)| {
                        assert_eq!(at, round);
                        slot
                    })
                    .collect();
                let forged_in_arrival_order: Vec<usize> = io
                    .arrived
                    .iter()
                    .copied()
                    .filter(|i| io.forged.contains(i))
                    .collect();
                assert_eq!(forged_in_arrival_order.len(), 2);
                assert_eq!(
                    slots, forged_in_arrival_order,
                    "reverse {reverse}, round {round}"
                );
                assert_eq!(engine.skipped_uploads(), 2 * (round as usize + 1));
            }
        });
    }
}

/// An IO that delivers one slot twice breaks the contract, whether the
/// copy arrives first or last: the step panics on the engine thread and
/// the producer, wherever it is blocked, lets go.
#[test]
fn an_io_that_delivers_a_slot_twice_panics_the_step() {
    for reverse in [false, true] {
        let message = panic_message(move || {
            let cfg = tiny_gluefl();
            let setup = RunSetup::new(&cfg);
            let mut io = scripted(&cfg, &setup, Fault::Garbage, reverse);
            io.twice = true;
            let mut engine = RoundEngine::new(cfg, setup);
            let _ = engine.step(&mut io);
        });
        assert!(
            message.contains("RoundIo resolves each kept slot exactly once"),
            "reverse {reverse}: {message}"
        );
    }
}

/// A panic inside the IO's `uploads` runs on the producer thread;
/// `step` re-raises it with the IO's own message — before the first
/// arrival, mid-round, and once every arrival is out.
#[test]
fn a_panic_inside_the_io_surfaces_with_its_own_message() {
    let keep = tiny_gluefl().round_size;
    for call in [1, 2, keep + 1] {
        let message = panic_message(move || {
            let cfg = tiny_gluefl();
            let setup = RunSetup::new(&cfg);
            let mut io = scripted(&cfg, &setup, Fault::Garbage, false);
            io.panic_at = Some(call);
            let mut engine = RoundEngine::new(cfg, setup);
            let _ = engine.step(&mut io);
        });
        assert!(message.contains(IO_PANIC), "call {call}: {message}");
    }
}

/// An IO that panics after delivering some arrivals while it still
/// holds payload buffers it took from the engine's sink: the buffers
/// never come back, yet the engine — which folds what arrived and then
/// finds the producer gone — waits for nothing, and `step` re-raises the
/// IO's own message.
#[test]
fn a_panic_holding_payload_buffers_surfaces_and_blocks_nothing() {
    for call in [1, 3] {
        let message = panic_message(move || {
            let cfg = tiny_gluefl();
            let setup = RunSetup::new(&cfg);
            let mut io = scripted(&cfg, &setup, Fault::Garbage, false);
            (io.hoard, io.panic_at) = (2, Some(call));
            let mut engine = RoundEngine::new(cfg, setup);
            let _ = engine.step(&mut io);
        });
        assert!(message.contains(IO_PANIC), "call {call}: {message}");
        assert!(
            message.contains("holding 2 buffers"),
            "call {call}: {message}"
        );
    }
}

/// In-process clients whose fresh group never offers: the fresh keep
/// slots go to clients without an offer, which then deliver nothing.
struct SilentFresh {
    clients: InProcessClients,
    /// The round's fresh invitation indices.
    silent: Vec<usize>,
    /// Granted clients that never offered.
    granted_silent: usize,
}

impl RoundIo for SilentFresh {
    fn reachable(&self, id: usize) -> bool {
        self.clients.reachable(id)
    }

    fn invite(&mut self, round: u32, invited: &[(usize, Group)], broadcast: &Broadcast<'_>) {
        self.silent = (0..invited.len())
            .filter(|&i| invited[i].1 == Group::Fresh)
            .collect();
        self.clients.invite(round, invited, broadcast);
    }

    fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
        self.clients.offers(round, offers);
        for &i in &self.silent {
            offers[i] = None;
        }
    }

    fn grant(&mut self, round: u32, kept: &[usize]) {
        self.granted_silent = kept.iter().filter(|i| self.silent.contains(i)).count();
        self.clients.grant(round, kept);
    }

    fn uploads(&mut self, round: u32, sink: &dyn UploadSink) {
        let silencing = Silencing {
            sink,
            silent: &self.silent,
        };
        self.clients.uploads(round, &silencing);
    }

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        self.clients.rejected(round, slot, err);
    }
}

/// The engine's sink as the silent clients' uploads reach it: each one
/// becomes a lost slot, its payload buffer going back to the budget.
struct Silencing<'a> {
    sink: &'a dyn UploadSink,
    silent: &'a [usize],
}

impl UploadSink for Silencing<'_> {
    fn buffer(&self) -> Vec<u8> {
        self.sink.buffer()
    }

    fn deliver(&self, arrival: Arrival, payload: Vec<u8>) {
        match arrival {
            Arrival::Delivered(i) if self.silent.contains(&i) => {
                self.sink.deliver(Arrival::Lost(i), payload);
            }
            arrival => self.sink.deliver(arrival, payload),
        }
    }

    fn recycle(&self, payload: Vec<u8>) {
        self.sink.recycle(payload);
    }
}

/// A group with fewer offers than keep slots keeps clients that never
/// offered. They are granted, counted as kept and skipped, but the
/// round's modeled time covers only the kept clients that offered: no
/// silent client's placeholder upload time (`1e30` s) reaches the
/// record. The engine's `model_time` unit test pins the exact values.
#[test]
fn a_kept_client_without_an_offer_takes_no_modeled_time() {
    let cfg = tiny_gluefl();
    let keep = cfg.round_size;
    let setup = RunSetup::new(&cfg);
    let mut io = SilentFresh {
        clients: InProcessClients::new(&cfg, &setup),
        silent: Vec::new(),
        granted_silent: 0,
    };
    let mut engine = RoundEngine::new(cfg, setup);
    for round in 0..ROUNDS {
        let rec = engine.step(&mut io);
        assert_eq!(rec.kept, keep, "round {round}");
        assert!(
            io.granted_silent > 0,
            "round {round}: no silent client kept"
        );
        assert_eq!(
            engine.skipped_uploads(),
            (round as usize + 1) * io.granted_silent
        );
        for secs in [
            rec.round_secs,
            rec.slowest_upload_secs,
            rec.mean_upload_secs,
        ] {
            assert!(secs > 0.0 && secs < 1e6, "round {round}: {secs} s");
        }
    }
}
