//! Adversarial battery for the transport layer.
//!
//! Two fronts:
//!
//! 1. **Decoder fuzz** (no sockets): ≥4096 mutations of valid upload
//!    payloads — truncation at *every* byte offset (which subsumes every
//!    frame cut) and deterministic bit flips — must come back as typed
//!    `Result`s, never a panic. Every strict prefix of a valid payload
//!    must be an error (the grammar requires a complete stats frame).
//! 2. **Socket adversaries**: a real server run where rogue clients
//!    truncate mid-frame, flip checksummed bytes, slow-loris the
//!    envelope, disconnect mid-upload or send a mask frame as an
//!    upload. The server must finish every round, the honest clients
//!    must finish cleanly, and each rogue must show up as a skipped
//!    upload or dead connection — never a panic or a stalled round.
//!    Three of them run alone too, to pin their counters to the wiring
//!    (decode error, stall), and so does a rogue that goes silent once
//!    granted, to let an upload deadline pass on a real socket. Before
//!    the rounds, connections that never
//!    say `HELLO` or say it wrong are turned away, counted by reason,
//!    and delay no one.
//!
//! Which schedule costs whom what — a silent invitee, a granted client
//! that never uploads, a duplicate upload, an absurd offer, an upload
//! after `GRANT(0)` — is the server's slot machine's rule, pinned
//! without sockets or sleeps by its own tests (`src/slots.rs`); the
//! reader's halves of the slow-loris, truncation and disconnect rogues
//! are pinned by `src/proto.rs`'s scripted-reader tests.

use gluefl_compress::mask_shift::client_split;
use gluefl_compress::stc::{sparsify, TernaryUpdate};
use gluefl_core::strategies::Upload;
use gluefl_core::wire_link::{decode_upload_with_stats, encode_upload};
use gluefl_core::ScratchPool;
use gluefl_telemetry::Telemetry;
use gluefl_tensor::{BitMask, MaskAligned};
use gluefl_transport::proto::{
    offer_payload, write_msg, MsgKind, ENVELOPE_BYTES, PROTO_MAGIC, PROTO_VERSION,
};
use gluefl_transport::{
    run_client, smoke_config, ClientNode, Server, ServerConfig, TransportError,
};
use gluefl_wire::{frame_len_from_header, Codec, FrameWriter, Rounding, WireError, WirePolicy};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One valid wire payload (upload frames + stats frame) and the round
/// mask its decode requires.
struct Corpus {
    payload: Vec<u8>,
    mask: Option<BitMask>,
}

fn encode_entry(upload: &Upload, mask: Option<BitMask>, stats: &[f32], dim: usize) -> Corpus {
    encode_entry_with(upload, mask, stats, dim, WirePolicy::legacy(Codec::F32))
}

fn encode_entry_with(
    upload: &Upload,
    mask: Option<BitMask>,
    stats: &[f32],
    dim: usize,
    policy: WirePolicy,
) -> Corpus {
    let mut payload = Vec::new();
    let _ = encode_upload(upload, 3, &policy, 0, &mut payload);
    let _ = FrameWriter::new(policy).known_mask(&mut payload, 3, Rounding::Nearest, dim, stats);
    Corpus { payload, mask }
}

fn corpus() -> Vec<Corpus> {
    let stats = [0.25f32, -1.0, 3.5, 0.0, 7.25, -0.125];
    let dense: Vec<f32> = (0..400).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
    let wide: Vec<f32> = (0..4000).map(|i| ((i * 31) % 7) as f32 - 3.0).collect();
    let split_dense: Vec<f32> = (0..600).map(|i| ((i * 13) % 29) as f32 - 14.0).collect();
    let km_mask = BitMask::from_indices(50, [3usize, 17, 40]);
    let split_mask = BitMask::from_indices(600, (0..600).step_by(4));
    vec![
        encode_entry(
            &Upload::Dense((0..130).map(|i| (i as f32).sin()).collect()),
            None,
            &stats,
            130,
        ),
        encode_entry(&Upload::Sparse(sparsify(&dense, 0.05)), None, &stats, 400),
        encode_entry(
            &Upload::Ternary(TernaryUpdate::quantize(&sparsify(&wide, 0.01))),
            None,
            &stats,
            4000,
        ),
        encode_entry(
            &Upload::KnownMask(MaskAligned::gather(
                &(0..50).map(|i| i as f32).collect::<Vec<_>>(),
                &km_mask,
            )),
            Some(km_mask),
            &stats,
            50,
        ),
        encode_entry(
            &Upload::MaskSplit(client_split(&split_dense, &split_mask, 30)),
            Some(split_mask.clone()),
            &stats,
            600,
        ),
        // The entropy layouts (delta-varint indices, RLE sections) face
        // the same mutation battery: their self-delimiting sections are
        // exactly where truncation and bit flips bite differently.
        encode_entry_with(
            &Upload::Sparse(sparsify(&wide, 0.04)),
            None,
            &stats,
            4000,
            WirePolicy::entropy(Codec::F32),
        ),
        encode_entry_with(
            &Upload::MaskSplit(client_split(&split_dense, &split_mask, 30)),
            Some(split_mask),
            &stats,
            600,
            WirePolicy::entropy(Codec::QuantU8),
        ),
        // A ≥ 16 KB frame: its checksum runs through the CRC fold, not
        // the short-input table the entries above stay inside.
        encode_entry(
            &Upload::Dense((0..4200).map(|i| (i as f32 * 0.37).cos()).collect()),
            None,
            &stats,
            4200,
        ),
    ]
}

#[test]
fn fuzz_mutated_payloads_yield_typed_errors_never_panics() {
    let entries = corpus();
    let mut scratch = ScratchPool::new();
    let mut cases = 0usize;

    for entry in &entries {
        let full = &entry.payload;
        let mask = entry.mask.as_ref();

        // The untouched payload must decode (sanity for the corpus).
        let (upload, _) = decode_upload_with_stats(full, mask, &mut scratch)
            .expect("unmutated corpus entry decodes");
        scratch.reclaim_upload(upload);

        // Truncation at every offset — including every frame cut.
        for cut in 0..full.len() {
            match decode_upload_with_stats(&full[..cut], mask, &mut scratch) {
                Ok(_) => panic!("strict prefix of length {cut} decoded as complete"),
                Err(_) => cases += 1,
            }
        }

        // Deterministic bit flips all over the checksummed frames.
        let mut mutated = full.clone();
        for i in 0..512usize {
            let pos = (i * 7919) % full.len();
            let bit = 1u8 << (i % 8);
            mutated[pos] ^= bit;
            // Typed result either way; a panic fails the test.
            let _ = decode_upload_with_stats(&mutated, mask, &mut scratch).map(|(u, _)| {
                scratch.reclaim_upload(u);
            });
            mutated[pos] ^= bit;
            cases += 1;
        }
    }

    // A mask frame arriving where an upload belongs is a typed error.
    let mut mask_payload = Vec::new();
    let _ = FrameWriter::new(WirePolicy::default()).mask(
        &mut mask_payload,
        3,
        &BitMask::from_indices(64, [1usize, 5, 9]),
    );
    for cut in 0..=mask_payload.len() {
        assert!(
            decode_upload_with_stats(&mask_payload[..cut], None, &mut scratch).is_err(),
            "mask frame (or a prefix) must never decode as an upload"
        );
        cases += 1;
    }

    assert!(cases >= 4096, "fuzz loop ran only {cases} cases");
}

/// A mask-aligned part names no positions, so nothing in the frame can
/// vouch for them: checksum-valid known-mask and split payloads decoded
/// by a receiver that holds no mask, a mask of another popcount, or a
/// mask over another dimension are typed errors — and with the right
/// mask the part comes back as the values alone.
#[test]
fn mask_aligned_frames_against_the_wrong_mask_yield_typed_errors() {
    let mut scratch = ScratchPool::new();
    let stats = [0.5f32, -2.0];
    let dense: Vec<f32> = (0..600).map(|i| ((i * 13) % 29) as f32 - 14.0).collect();
    let mask = BitMask::from_indices(600, (0..600).step_by(4));
    let fewer = BitMask::from_indices(600, (0..600).step_by(5));
    let longer = BitMask::from_indices(640, (0..600).step_by(4));
    let uploads = [
        Upload::KnownMask(MaskAligned::gather(&dense, &mask)),
        Upload::MaskSplit(client_split(&dense, &mask, 30)),
    ];
    for policy in [
        WirePolicy::legacy(Codec::F32),
        WirePolicy::entropy(Codec::QuantU8),
    ] {
        for upload in &uploads {
            let entry = encode_entry_with(upload, None, &stats, 600, policy);
            let decode = |m, scratch: &mut ScratchPool| {
                decode_upload_with_stats(&entry.payload, m, scratch).map(|(u, _)| u)
            };
            assert!(matches!(
                decode(None, &mut scratch),
                Err(WireError::UnexpectedKind(3))
            ));
            assert!(matches!(
                decode(Some(&fewer), &mut scratch),
                Err(WireError::NnzMismatch {
                    declared: 150,
                    actual: 120
                })
            ));
            assert!(matches!(
                decode(Some(&longer), &mut scratch),
                Err(WireError::DimMismatch {
                    declared: 600,
                    expected: 640
                })
            ));
            let back = decode(Some(&mask), &mut scratch).expect("the mask it was built under");
            let (Upload::KnownMask(part)
            | Upload::MaskSplit(gluefl_compress::mask_shift::ClientSplit {
                shared: part, ..
            })) = &back
            else {
                panic!("expected a mask-aligned upload, got {back:?}")
            };
            assert_eq!((part.dim(), part.nnz()), (600, 150));
            scratch.reclaim_upload(back);
        }
    }
}

/// How a rogue client misbehaves once granted its upload slot.
#[derive(Clone, Copy, Debug)]
enum Rogue {
    /// Sends the envelope plus the payload only up to the first frame
    /// cut, then closes: mid-stream truncation at a frame boundary.
    TruncateAtFrameCut,
    /// Flips one byte inside a checksummed frame and sends the rest
    /// faithfully.
    FlipByte,
    /// Sends 4 bytes of the envelope header and goes silent past the
    /// stall grace.
    SlowLoris,
    /// Disconnects abruptly halfway through the payload.
    DisconnectMidUpload,
    /// Sends a wire *mask* frame where an upload belongs.
    MaskFrameAsUpload,
    /// Sends nothing and keeps the connection open, blocked on a read,
    /// until the server shuts it: its upload deadline expires, where a
    /// close would be a disconnect.
    SilentAfterGrant,
}

fn raw_envelope(kind: MsgKind, round: u32, len: usize) -> [u8; ENVELOPE_BYTES] {
    let mut h = [0u8; ENVELOPE_BYTES];
    h[0] = PROTO_MAGIC;
    h[1] = kind.id();
    h[2..6].copy_from_slice(&round.to_le_bytes());
    h[6..10].copy_from_slice(&u32::try_from(len).expect("payload fits u32").to_le_bytes());
    h
}

/// Plays the protocol honestly until the first granted upload, then
/// executes `mode`. Returns once the corruption is delivered (or at FIN
/// if never granted).
fn run_rogue(addr: &str, cfg: gluefl_core::SimConfig, id: usize, mode: Rogue) {
    let mut node = ClientNode::new(cfg, id);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&PROTO_VERSION.to_le_bytes());
    hello[4..].copy_from_slice(&u32::try_from(id).expect("id fits u32").to_le_bytes());
    write_msg(&mut stream, MsgKind::Hello, 0, &hello).expect("hello");
    let mut payload = Vec::new();
    let env =
        gluefl_transport::proto::read_msg_blocking(&mut stream, &mut payload).expect("welcome");
    assert_eq!(env.kind, MsgKind::Welcome);
    let mut upload_buf = Vec::new();
    loop {
        let env = match gluefl_transport::proto::read_msg_blocking(&mut stream, &mut payload) {
            Ok(env) => env,
            // The server may cut us off right after the corruption lands.
            Err(_) => return,
        };
        match env.kind {
            MsgKind::Invite => {
                let (analytic, wire) = node
                    .handle_invite(env.round, &payload)
                    .expect("rogue trains honestly");
                let offer = offer_payload(analytic, wire);
                if write_msg(&mut stream, MsgKind::Offer, env.round, &offer).is_err() {
                    return;
                }
            }
            MsgKind::Grant => {
                if payload.first() != Some(&1) {
                    node.discard_pending();
                    continue;
                }
                upload_buf.clear();
                node.encode_granted(env.round, &mut upload_buf)
                    .expect("granted upload encodes");
                match mode {
                    Rogue::TruncateAtFrameCut => {
                        let cut = usize::try_from(
                            frame_len_from_header(&upload_buf).expect("valid first frame"),
                        )
                        .expect("frame length fits usize");
                        let hdr = raw_envelope(MsgKind::Upload, env.round, upload_buf.len());
                        let _ = stream.write_all(&hdr);
                        let _ = stream.write_all(&upload_buf[..cut]);
                        let _ = stream.flush();
                        let _ = stream.shutdown(Shutdown::Write);
                    }
                    Rogue::FlipByte => {
                        let mid = upload_buf.len() / 2;
                        upload_buf[mid] ^= 0x40;
                        let _ = write_msg(&mut stream, MsgKind::Upload, env.round, &upload_buf);
                    }
                    Rogue::SlowLoris => {
                        let hdr = raw_envelope(MsgKind::Upload, env.round, upload_buf.len());
                        let _ = stream.write_all(&hdr[..4]);
                        let _ = stream.flush();
                        std::thread::sleep(Duration::from_millis(1200));
                    }
                    Rogue::DisconnectMidUpload => {
                        let hdr = raw_envelope(MsgKind::Upload, env.round, upload_buf.len());
                        let _ = stream.write_all(&hdr);
                        let _ = stream.write_all(&upload_buf[..upload_buf.len() / 2]);
                        let _ = stream.flush();
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    Rogue::MaskFrameAsUpload => {
                        let mut buf = Vec::new();
                        let _ = FrameWriter::new(WirePolicy::default()).mask(
                            &mut buf,
                            env.round,
                            &BitMask::from_indices(64, [1usize, 5, 9]),
                        );
                        let _ = write_msg(&mut stream, MsgKind::Upload, env.round, &buf);
                    }
                    Rogue::SilentAfterGrant => {
                        let _ = stream.read(&mut [0u8; 1]);
                    }
                }
                return;
            }
            MsgKind::Fin => return,
            other => panic!("rogue got unexpected {other:?}"),
        }
    }
}

const MODES: [Rogue; 5] = [
    Rogue::TruncateAtFrameCut,
    Rogue::FlipByte,
    Rogue::SlowLoris,
    Rogue::DisconnectMidUpload,
    Rogue::MaskFrameAsUpload,
];

/// Runs `clients` participants where the last `MODES.len()` are rogues,
/// asserting the server completes all rounds and every honest client
/// exits cleanly. Returns (skipped_uploads, dead_clients).
fn run_adversarial(strategy: &str, clients: usize, rounds: u32, seed: u64) -> (usize, usize) {
    let mut cfg = smoke_config(strategy, clients, rounds, seed).expect("valid smoke config");
    // Invite exactly the keep set so every invited rogue is granted.
    cfg.oc = 1.0;
    let tel = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(clients);
    net.offer_timeout = Duration::from_secs(10);
    net.upload_timeout = Duration::from_secs(3);
    net.stall_grace = Duration::from_millis(300);
    net.read_tick = Duration::from_millis(50);
    net.telemetry = Some(Arc::clone(&tel));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();

    let honest_n = clients - MODES.len();
    let honest: Vec<_> = (0..honest_n)
        .map(|id| {
            let addr = addr.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || run_client(&addr, cfg, id))
        })
        .collect();
    let rogues: Vec<_> = MODES
        .iter()
        .enumerate()
        .map(|(k, &mode)| {
            let addr = addr.clone();
            let cfg = cfg.clone();
            let id = honest_n + k;
            std::thread::spawn(move || run_rogue(&addr, cfg, id, mode))
        })
        .collect();

    let report = server.run().expect("server completes despite adversaries");
    assert_eq!(
        report.records.len(),
        rounds as usize,
        "every round must complete"
    );
    for (id, h) in honest.into_iter().enumerate() {
        match h.join().expect("honest client must not panic") {
            Ok(()) => {}
            // An honest client can lose its FIN when the run ends while
            // the socket is being torn down; any earlier failure is real.
            Err(TransportError::Proto(_)) => {}
            Err(e) => panic!("honest client {id} failed: {e}"),
        }
    }
    for r in rogues {
        r.join().expect("rogue thread must not panic");
    }

    // The emitted counters must agree exactly with the report: skip and
    // kill events fire at the same program points that bump the
    // report's fields, so any drift between the two is a bug.
    let snap = tel.snapshot();
    let counter = |name: &str| {
        snap.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert_eq!(
        counter("gluefl_server_uploads_skipped_total") as usize,
        report.skipped_uploads,
        "skip counter must match the report"
    );
    assert_eq!(
        counter("gluefl_server_clients_killed_total") as usize,
        report.dead_clients,
        "kill counter must match the report"
    );
    // Which rogues fire depends on the round draws, so the typed
    // decode-error and stall counts are bounded, not pinned: every
    // decode error skips exactly one upload, and every stall kills one
    // connection. (The single-rogue tests below pin exact counts for
    // three of them, and an upload deadline passing for a rogue kept out
    // of `MODES`, where it would add the upload timeout to every round
    // it is granted in; the slot machine's own tests pin every schedule.)
    assert!(
        counter("gluefl_server_decode_errors_total") <= report.skipped_uploads as f64,
        "more decode errors than skipped uploads"
    );
    assert!(
        counter("gluefl_server_stalls_total") <= report.dead_clients as f64,
        "more stalls than dead connections"
    );

    (report.skipped_uploads, report.dead_clients)
}

/// Runs one honest client and one rogue with `round_size == clients`,
/// so the rogue is granted deterministically in round 0. Returns the
/// final metrics snapshot for exact counter assertions.
fn run_single_rogue(mode: Rogue, seed: u64) -> gluefl_telemetry::Snapshot {
    let mut cfg = smoke_config("fedavg", 2, 2, seed).expect("valid smoke config");
    cfg.round_size = 2;
    cfg.oc = 1.0;
    let tel = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(2);
    net.offer_timeout = Duration::from_secs(10);
    net.upload_timeout = Duration::from_secs(3);
    net.stall_grace = Duration::from_millis(300);
    net.read_tick = Duration::from_millis(50);
    net.telemetry = Some(Arc::clone(&tel));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();

    let honest = {
        let (addr, cfg) = (addr.clone(), cfg.clone());
        std::thread::spawn(move || run_client(&addr, cfg, 0))
    };
    let rogue = std::thread::spawn(move || run_rogue(&addr, cfg, 1, mode));

    let report = server.run().expect("server completes");
    assert_eq!(report.records.len(), 2, "both rounds must complete");
    match honest.join().expect("honest client must not panic") {
        Ok(()) | Err(TransportError::Proto(_)) => {}
        Err(e) => panic!("honest client failed: {e}"),
    }
    rogue.join().expect("rogue thread must not panic");
    tel.snapshot()
}

/// A client built for a different population (`--clients 9` against a
/// `--clients 8` server, say) must not train along on a different
/// synthetic dataset: it learns the server's run from `WELCOME`, refuses
/// with a typed error, and the server carries on without it.
#[test]
fn client_with_a_different_config_refuses_the_run() {
    let clients = 4;
    let mut cfg = smoke_config("fedavg", clients, 2, 45).expect("valid smoke config");
    // Everyone is invited every round, so the server notices the drifted
    // client's closed connection in round 0.
    cfg.round_size = clients;
    cfg.oc = 1.0;
    let server = Server::bind(cfg.clone(), ServerConfig::local(clients)).expect("bind");
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let (addr, mut cfg) = (addr.clone(), cfg.clone());
            if id == 2 {
                cfg.dataset.clients += 1;
            }
            std::thread::spawn(move || run_client(&addr, cfg, id))
        })
        .collect();
    let report = server.run().expect("server completes");
    assert_eq!(report.records.len(), 2, "both rounds must complete");
    assert_eq!(report.dead_clients, 1, "only the drifted client is lost");
    for (id, h) in handles.into_iter().enumerate() {
        match h.join().expect("client must not panic") {
            Err(TransportError::ConfigMismatch {
                field,
                ours,
                theirs,
            }) => {
                assert_eq!((id, field), (2, "population"));
                assert_eq!((ours, theirs), (clients as u64 + 1, clients as u64));
            }
            Ok(()) | Err(TransportError::Proto(_)) if id != 2 => {}
            other => panic!("client {id}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn granted_mask_frame_counts_one_unexpected_kind_decode_error() {
    let snap = run_single_rogue(Rogue::MaskFrameAsUpload, 42);
    assert_eq!(
        snap.value(
            "gluefl_server_decode_errors_total",
            &[("kind", "unexpected_kind")],
        ),
        Some(1.0),
        "the mask-as-upload rogue must count exactly one unexpected_kind"
    );
}

#[test]
fn granted_byte_flip_counts_one_typed_decode_error() {
    let snap = run_single_rogue(Rogue::FlipByte, 43);
    let total: f64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "gluefl_server_decode_errors_total")
        .map(|s| s.value)
        .sum();
    assert_eq!(
        total, 1.0,
        "one corrupted upload must count exactly one typed decode error"
    );
}

#[test]
fn slow_loris_counts_one_stall() {
    let snap = run_single_rogue(Rogue::SlowLoris, 44);
    assert_eq!(
        snap.value("gluefl_server_stalls_total", &[]),
        Some(1.0),
        "the mid-envelope stall must register exactly once"
    );
}

/// A granted client that holds its connection open and never uploads
/// expires exactly one upload deadline: it is killed and its slot
/// skipped, and the round completes without it.
#[test]
fn a_silent_granted_client_expires_one_upload_deadline() {
    let snap = run_single_rogue(Rogue::SilentAfterGrant, 46);
    let expired = |phase| snap.value("gluefl_server_deadlines_expired_total", &[("phase", phase)]);
    assert_eq!(
        (expired("upload"), expired("offer")),
        (Some(1.0), Some(0.0))
    );
    assert_eq!(
        (
            snap.value("gluefl_server_clients_killed_total", &[]),
            snap.value("gluefl_server_uploads_skipped_total", &[]),
        ),
        (Some(1.0), Some(1.0))
    );
}

#[test]
fn socket_adversaries_cannot_stall_fedavg_rounds() {
    let (skipped, dead) = run_adversarial("fedavg", 16, 4, 1234);
    assert!(skipped >= 1, "no rogue upload was ever skipped");
    assert!(dead >= 1, "no rogue connection was ever declared dead");
}

#[test]
fn socket_adversaries_cannot_stall_gluefl_rounds() {
    let (skipped, dead) = run_adversarial("gluefl", 16, 4, 77);
    assert!(skipped >= 1, "no rogue upload was ever skipped");
    assert!(dead >= 1, "no rogue connection was ever declared dead");
}

/// `gluefl_server_handshakes_refused_total{reason}` for every reason.
fn refusals(snap: &gluefl_telemetry::Snapshot) -> Vec<(&'static str, f64)> {
    [
        "silent",
        "malformed",
        "version",
        "id_out_of_range",
        "duplicate_id",
    ]
    .into_iter()
    .map(|reason| {
        let n = snap.value(
            "gluefl_server_handshakes_refused_total",
            &[("reason", reason)],
        );
        (reason, n.expect("refusal counters are registered up front"))
    })
    .collect()
}

/// Connections that open and never speak are read on threads of their
/// own, so however many there are, no honest client's handshake waits
/// behind them. With `K · stall_grace` past `hello_timeout`, a server
/// that read each `HELLO` in turn would give up before reaching the
/// honest clients, which connect after the silent ones.
#[test]
fn silent_connections_cannot_block_the_handshake() {
    const K: u32 = 4;
    let clients = 2;
    let mut cfg = smoke_config("fedavg", clients, 2, 48).expect("valid smoke config");
    cfg.round_size = clients;
    cfg.oc = 1.0;
    let tel = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(clients);
    net.stall_grace = Duration::from_secs(1);
    net.hello_timeout = Duration::from_secs(3);
    assert!(net.hello_timeout < net.stall_grace * K);
    net.telemetry = Some(Arc::clone(&tel));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();

    // Queued on the listener ahead of every honest client.
    let silent: Vec<TcpStream> = (0..K)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    let honest: Vec<_> = (0..clients)
        .map(|id| {
            let (addr, cfg) = (addr.clone(), cfg.clone());
            std::thread::spawn(move || run_client(&addr, cfg, id))
        })
        .collect();
    let report = server
        .run()
        .expect("silent connections must not deny the run");
    assert_eq!(report.records.len(), 2, "both rounds must complete");
    assert_eq!((report.skipped_uploads, report.dead_clients), (0, 0));
    for (id, h) in honest.into_iter().enumerate() {
        match h.join().expect("honest client must not panic") {
            Ok(()) | Err(TransportError::Proto(_)) => {}
            Err(e) => panic!("honest client {id} failed: {e}"),
        }
    }
    drop(silent);

    let snap = tel.snapshot();
    let want: Vec<_> = refusals(&snap)
        .into_iter()
        .map(|(reason, _)| (reason, if reason == "silent" { K.into() } else { 0.0 }))
        .collect();
    assert_eq!(refusals(&snap), want);
    assert_eq!(snap.value("gluefl_server_stalls_total", &[]), Some(0.0));
}

/// Each way a `HELLO` can be refused is counted once under its own
/// reason, and the run goes on with whoever was welcomed. The server
/// shuts a refused connection down, so reading it to EOF is how the
/// test knows each refusal landed before the handshake phase ends.
#[test]
fn every_refused_handshake_is_counted_by_reason() {
    let clients = 2;
    let mut cfg = smoke_config("fedavg", clients, 2, 49).expect("valid smoke config");
    cfg.round_size = clients;
    cfg.oc = 1.0;
    let tel = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(clients);
    net.telemetry = Some(Arc::clone(&tel));
    let server = Server::bind(cfg.clone(), net).expect("bind");
    let addr = server.local_addr().to_string();
    let server = std::thread::spawn(move || server.run());

    let hello = |version: u32, id: u32| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut body = [0u8; 8];
        body[..4].copy_from_slice(&version.to_le_bytes());
        body[4..].copy_from_slice(&id.to_le_bytes());
        write_msg(&mut stream, MsgKind::Hello, 0, &body).expect("hello");
        stream
    };
    let refused = |mut stream: TcpStream| {
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(
            rest.is_empty(),
            "a refused connection got {} bytes",
            rest.len()
        );
    };
    let mut garbage = TcpStream::connect(&addr).expect("connect");
    garbage.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("write");
    refused(garbage);
    refused(hello(PROTO_VERSION + 1, 0));
    refused(hello(PROTO_VERSION, clients as u32));
    // Client 1's id is taken by a connection that then hangs up.
    let mut first = hello(PROTO_VERSION, 1);
    let mut payload = Vec::new();
    let env =
        gluefl_transport::proto::read_msg_blocking(&mut first, &mut payload).expect("welcome");
    assert_eq!(env.kind, MsgKind::Welcome);
    refused(hello(PROTO_VERSION, 1));
    drop(first);
    match run_client(&addr, cfg, 0) {
        Ok(()) | Err(TransportError::Proto(_)) => {}
        Err(e) => panic!("honest client failed: {e}"),
    }

    let report = server
        .join()
        .expect("server thread")
        .expect("server completes");
    assert_eq!(report.records.len(), 2, "both rounds must complete");
    assert_eq!(
        report.dead_clients, 1,
        "only the client that hung up is lost"
    );
    assert_eq!(
        refusals(&tel.snapshot()),
        [
            ("silent", 0.0),
            ("malformed", 1.0),
            ("version", 1.0),
            ("id_out_of_range", 1.0),
            ("duplicate_id", 1.0),
        ]
    );
}
