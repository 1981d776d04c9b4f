//! The transport envelope: message framing on top of TCP.
//!
//! Every message is a 10-byte envelope header followed by `len` payload
//! bytes:
//!
//! ```text
//! [magic 0x9B] [kind u8] [round u32 LE] [len u32 LE] [payload ...]
//! ```
//!
//! Payloads are opaque to this layer. `INVITE` and `UPLOAD` payloads are
//! [`gluefl_wire`] frames (which carry their own checksums); the small
//! control payloads (`HELLO`, `OFFER`, `GRANT`, `WELCOME`) are fixed-size
//! little-endian structs documented on [`MsgKind`].
//!
//! # Reading under hostility
//!
//! [`read_exact_classified`] distinguishes the three ways a read can fail
//! to complete, because a server must react differently to each:
//!
//! - **idle** — a quiet connection that has sent *no* byte of the next
//!   envelope. Legitimate: an un-invited client says nothing for whole
//!   rounds. The reader keeps waiting.
//! - **stalled** — bytes of a message arrived and then progress stopped
//!   for longer than the grace budget (a slow-loris partial header, a
//!   disconnect-without-FIN mid-payload). The connection is declared
//!   failed; the round completes without it.
//! - **EOF** — the peer closed. Clean between messages, a truncation
//!   error inside one.

use std::io::{self, Read, Write};
use std::time::Duration;

/// Envelope magic byte (distinct from the wire-frame magic).
pub const PROTO_MAGIC: u8 = 0x9B;
/// Protocol version carried in `HELLO`.
pub const PROTO_VERSION: u32 = 1;
/// Envelope header length in bytes.
pub const ENVELOPE_BYTES: usize = 10;
/// Upper bound on a payload length; larger declared lengths are rejected
/// before any allocation, so a hostile header cannot balloon memory.
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// Message kinds, with their payload layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Client → server, once per connection:
    /// `[proto_version u32 LE][client_id u32 LE]`.
    Hello,
    /// Server → client, accepting a `HELLO`:
    /// `[population u32 LE][rounds u32 LE]`.
    Welcome,
    /// Server → client, inviting the client into the envelope's round:
    /// `[group u8]` (0 = fresh, 1 = sticky) followed by the broadcast —
    /// one dense F32 model frame plus the strategy's mask frame, if any.
    Invite,
    /// Client → server, answering an `INVITE` before training: the
    /// nominal price the broadcast fixes for the client's upload
    /// (`gluefl_core::ClientCompressor::shape_offer`),
    /// `[analytic_bytes u64 LE][wire_bytes u64 LE]`. The server ranks the
    /// keep and models upload times by it.
    Offer,
    /// Server → client, the keep decision: `[granted u8]` (1 = train and
    /// send the upload, 0 = forget the invitation — the over-committed
    /// remainder, which trains nothing).
    Grant,
    /// Client → server: the upload frames followed by the BN-statistics
    /// known-mask frame — exactly the payload
    /// [`gluefl_core::wire_link::decode_upload_with_stats`] parses.
    Upload,
    /// Server → client: the run is over; close the connection.
    Fin,
}

impl MsgKind {
    /// Every kind, in wire-id order — iterated when pre-registering one
    /// byte counter per message kind.
    pub const ALL: [MsgKind; 7] = [
        MsgKind::Hello,
        MsgKind::Welcome,
        MsgKind::Invite,
        MsgKind::Offer,
        MsgKind::Grant,
        MsgKind::Upload,
        MsgKind::Fin,
    ];

    /// A stable snake_case name, used as the metric label value in
    /// exported per-message byte counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MsgKind::Hello => "hello",
            MsgKind::Welcome => "welcome",
            MsgKind::Invite => "invite",
            MsgKind::Offer => "offer",
            MsgKind::Grant => "grant",
            MsgKind::Upload => "upload",
            MsgKind::Fin => "fin",
        }
    }

    /// Wire id of the kind.
    #[must_use]
    pub fn id(self) -> u8 {
        match self {
            MsgKind::Hello => 1,
            MsgKind::Welcome => 2,
            MsgKind::Invite => 3,
            MsgKind::Offer => 4,
            MsgKind::Grant => 5,
            MsgKind::Upload => 6,
            MsgKind::Fin => 7,
        }
    }

    /// Parses a wire id.
    #[must_use]
    pub fn from_id(id: u8) -> Option<Self> {
        Some(match id {
            1 => MsgKind::Hello,
            2 => MsgKind::Welcome,
            3 => MsgKind::Invite,
            4 => MsgKind::Offer,
            5 => MsgKind::Grant,
            6 => MsgKind::Upload,
            7 => MsgKind::Fin,
            _ => return None,
        })
    }
}

/// A parsed envelope header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Message kind.
    pub kind: MsgKind,
    /// Round the message belongs to (0 for connection-setup messages).
    pub round: u32,
    /// Payload length in bytes.
    pub len: u32,
}

/// A typed envelope-layer failure.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket error (other than timeouts, which are
    /// classified into [`ProtoError::Stalled`] or an idle outcome).
    Io(io::Error),
    /// First envelope byte was not [`PROTO_MAGIC`].
    BadMagic(u8),
    /// Unknown message-kind id.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared length.
        len: u32,
    },
    /// The peer closed mid-message.
    Truncated {
        /// Bytes received of the current unit.
        got: usize,
        /// Bytes the unit needed.
        needed: usize,
    },
    /// Bytes of a message arrived, then progress stopped past the grace
    /// budget (slow-loris / silent death mid-message).
    Stalled {
        /// Bytes received of the current unit.
        got: usize,
        /// Bytes the unit needed.
        needed: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::BadMagic(b) => write!(f, "bad envelope magic 0x{b:02X}"),
            Self::BadKind(k) => write!(f, "unknown message kind {k}"),
            Self::Oversized { len } => {
                write!(f, "declared payload {len} exceeds cap {MAX_PAYLOAD}")
            }
            Self::Truncated { got, needed } => {
                write!(f, "peer closed mid-message ({got}/{needed} bytes)")
            }
            Self::Stalled { got, needed } => {
                write!(f, "peer stalled mid-message ({got}/{needed} bytes)")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// How a classified exact-read ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// Clean EOF before any byte of the unit (only when `allow_idle`).
    Eof,
}

/// Writes one message (envelope + payload) and flushes.
///
/// # Errors
/// [`ProtoError::Oversized`] if the payload exceeds [`MAX_PAYLOAD`];
/// otherwise any socket error.
pub fn write_msg(
    w: &mut impl Write,
    kind: MsgKind,
    round: u32,
    payload: &[u8],
) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtoError::Oversized { len: u32::MAX })?;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized { len });
    }
    let mut header = [0u8; ENVELOPE_BYTES];
    header[0] = PROTO_MAGIC;
    header[1] = kind.id();
    header[2..6].copy_from_slice(&round.to_le_bytes());
    header[6..10].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Parses an envelope header from its 10 raw bytes.
///
/// # Errors
/// [`ProtoError::BadMagic`], [`ProtoError::BadKind`], or
/// [`ProtoError::Oversized`] on a malformed header.
pub fn parse_envelope(header: &[u8; ENVELOPE_BYTES]) -> Result<Envelope, ProtoError> {
    if header[0] != PROTO_MAGIC {
        return Err(ProtoError::BadMagic(header[0]));
    }
    let kind = MsgKind::from_id(header[1]).ok_or(ProtoError::BadKind(header[1]))?;
    let round = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized { len });
    }
    Ok(Envelope { kind, round, len })
}

/// The `OFFER` payload pricing an upload at `analytic` and `wire` bytes.
#[must_use]
pub fn offer_payload(analytic: u64, wire: u64) -> [u8; 16] {
    let mut offer = [0u8; 16];
    offer[..8].copy_from_slice(&analytic.to_le_bytes());
    offer[8..].copy_from_slice(&wire.to_le_bytes());
    offer
}

/// Parses an `OFFER` payload into `(analytic bytes, wire bytes)`.
/// `None` — a protocol violation — unless it is exactly two `u64`s,
/// neither above [`MAX_PAYLOAD`]: an upload that large could never be
/// read.
#[must_use]
pub fn parse_offer(payload: &[u8]) -> Option<(u64, u64)> {
    let (analytic, wire) = payload.split_first_chunk::<8>()?;
    let analytic = u64::from_le_bytes(*analytic);
    let wire = u64::from_le_bytes(wire.try_into().ok()?);
    (analytic.max(wire) <= u64::from(MAX_PAYLOAD)).then_some((analytic, wire))
}

/// Reads exactly `buf.len()` bytes, classifying the failure modes a
/// hostile or dying peer can produce (see the module docs).
///
/// The stream's read timeout (if set) defines one *tick*. A tick that
/// makes no progress while the unit is untouched and `allow_idle` holds
/// is ignored — quiet connections wait forever. Once the first byte of
/// the unit has arrived (or when `allow_idle` is false), each
/// zero-progress tick spends one of `stall_ticks`; exhausting the budget
/// is [`ProtoError::Stalled`].
///
/// # Errors
/// [`ProtoError::Truncated`] on EOF inside the unit (or at its start
/// when `allow_idle` is false), [`ProtoError::Stalled`] as above, and
/// [`ProtoError::Io`] for any other socket error.
pub fn read_exact_classified(
    r: &mut impl Read,
    buf: &mut [u8],
    allow_idle: bool,
    stall_ticks: u32,
) -> Result<ReadOutcome, ProtoError> {
    let needed = buf.len();
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < needed {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && allow_idle {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(ProtoError::Truncated { got, needed })
                };
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 && allow_idle {
                    continue;
                }
                stalls += 1;
                if stalls >= stall_ticks.max(1) {
                    return Err(ProtoError::Stalled { got, needed });
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// The payload buffer's first size; it doubles from there as bytes
/// arrive, up to the header's `len`.
const FIRST_CHUNK: usize = 64 << 10;

/// Reads one full message: envelope, then payload into `payload`
/// (cleared, then grown as its bytes arrive). `Ok(None)` is a clean close
/// between messages.
///
/// `allow_idle`/`stall_ticks` follow [`read_exact_classified`]; the
/// payload section never allows idling (its bytes were promised by the
/// header). The buffer grows with the bytes received — 64 KiB first,
/// then never more than twice what has arrived — so a header that claims
/// [`MAX_PAYLOAD`] and stalls holds 64 KiB, not the claim.
///
/// # Errors
/// Every [`ProtoError`]; a malformed header fails before any payload
/// allocation. [`ProtoError::Truncated`] and [`ProtoError::Stalled`]
/// count the payload's bytes against its `len`.
pub fn read_msg(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    allow_idle: bool,
    stall_ticks: u32,
) -> Result<Option<Envelope>, ProtoError> {
    let mut header = [0u8; ENVELOPE_BYTES];
    match read_exact_classified(r, &mut header, allow_idle, stall_ticks)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Full => {}
    }
    let env = parse_envelope(&header)?;
    let needed = env.len as usize;
    payload.clear();
    while payload.len() < needed {
        let got = payload.len();
        payload.resize(needed.min((2 * got).max(FIRST_CHUNK)), 0);
        read_exact_classified(r, &mut payload[got..], false, stall_ticks).map_err(|e| match e {
            ProtoError::Truncated { got: n, .. } => ProtoError::Truncated {
                got: got + n,
                needed,
            },
            ProtoError::Stalled { got: n, .. } => ProtoError::Stalled {
                got: got + n,
                needed,
            },
            other => other,
        })?;
    }
    Ok(Some(env))
}

/// Convenience: a simple blocking read of one message with no timeout
/// classification (client side, where the socket has no read timeout):
/// [`read_msg`] without idling, whose one-tick stall budget is never
/// spent because such a socket never ticks.
///
/// # Errors
/// Every [`ProtoError`]; an EOF between messages is
/// [`ProtoError::Truncated`] with `got == 0` (clients are always owed a
/// next message until `FIN`).
pub fn read_msg_blocking(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<Envelope, ProtoError> {
    // A read that may not idle reports an EOF before the header as this
    // very error, never as a clean close.
    read_msg(r, payload, false, 1)?.ok_or(ProtoError::Truncated {
        got: 0,
        needed: ENVELOPE_BYTES,
    })
}

/// Derives the per-tick stall budget from a grace duration and the
/// socket's read-timeout tick.
#[must_use]
pub fn stall_ticks_for(grace: Duration, tick: Duration) -> u32 {
    let t = tick.as_millis().max(1);
    u32::try_from(grace.as_millis().div_ceil(t))
        .unwrap_or(u32::MAX)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let mut buf = Vec::new();
        write_msg(&mut buf, MsgKind::Offer, 42, &[1, 2, 3]).unwrap();
        assert_eq!(buf.len(), ENVELOPE_BYTES + 3);
        let mut r = &buf[..];
        let mut payload = Vec::new();
        let env = read_msg_blocking(&mut r, &mut payload).unwrap();
        assert_eq!(
            env,
            Envelope {
                kind: MsgKind::Offer,
                round: 42,
                len: 3
            }
        );
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn offers_are_two_bounded_u64s() {
        let offer = |analytic, wire| offer_payload(analytic, wire).to_vec();
        let cap = u64::from(MAX_PAYLOAD);
        assert_eq!(parse_offer(&offer(1200, 800)), Some((1200, 800)));
        assert_eq!(parse_offer(&offer(cap, cap)), Some((cap, cap)));
        assert_eq!(parse_offer(&offer(cap + 1, 0)), None);
        assert_eq!(parse_offer(&offer(0, u64::MAX)), None);
        assert_eq!(parse_offer(&offer(1, 1)[..15]), None);
        assert_eq!(parse_offer(&[offer(1, 1), vec![0]].concat()), None);
    }

    #[test]
    fn malformed_headers_are_typed() {
        let mut h = [0u8; ENVELOPE_BYTES];
        assert!(matches!(parse_envelope(&h), Err(ProtoError::BadMagic(0))));
        h[0] = PROTO_MAGIC;
        h[1] = 99;
        assert!(matches!(parse_envelope(&h), Err(ProtoError::BadKind(99))));
        h[1] = MsgKind::Upload.id();
        h[6..10].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            parse_envelope(&h),
            Err(ProtoError::Oversized { .. })
        ));
    }

    /// EOF inside the envelope truncates the envelope; EOF at any cut
    /// inside the payload (the disconnect rogue's half) truncates that.
    #[test]
    fn truncated_message_is_typed() {
        let mut buf = Vec::new();
        write_msg(&mut buf, MsgKind::Upload, 0, &[0xAB; 32]).unwrap();
        // (cut, got, needed): a cut envelope, then payload cuts.
        for (cut, got, needed) in [
            (3, 3, ENVELOPE_BYTES),
            (10, 0, 32),
            (20, 10, 32),
            (41, 31, 32),
        ] {
            let mut r = &buf[..cut];
            assert!(
                matches!(
                    read_msg_blocking(&mut r, &mut Vec::new()),
                    Err(ProtoError::Truncated { got: g, needed: n }) if (g, n) == (got, needed)
                ),
                "cut at {cut}"
            );
        }
    }

    /// One scripted `read` result: bytes, a read-timeout tick with no
    /// progress, or EOF (also once the script runs out).
    enum Step {
        Bytes(Vec<u8>),
        Tick,
    }

    /// A `Read` that plays its steps in order, counting the ticks it gave.
    struct Script {
        steps: std::collections::VecDeque<Step>,
        ticks: u32,
    }

    impl Script {
        fn new(steps: impl IntoIterator<Item = Step>) -> Self {
            Self {
                steps: steps.into_iter().collect(),
                ticks: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Tick) => {
                    self.ticks += 1;
                    Err(io::ErrorKind::WouldBlock.into())
                }
                Some(Step::Bytes(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Step::Bytes(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn message(kind: MsgKind, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_msg(&mut buf, kind, 7, payload).unwrap();
        buf
    }

    /// A header that claims the cap and then dies grows the buffer only
    /// as far as the bytes that came: the read fails typed, holding
    /// kilobytes, not the 256 MiB it was promised.
    #[test]
    fn a_huge_claim_that_stops_short_holds_no_huge_buffer() {
        let mut header = message(MsgKind::Upload, &[])[..ENVELOPE_BYTES].to_vec();
        header[6..10].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        let mut r = Script::new([Step::Bytes(header), Step::Bytes(vec![0xAB; 100])]);
        let mut payload = Vec::new();
        let needed = MAX_PAYLOAD as usize;
        assert!(matches!(
            read_msg(&mut r, &mut payload, true, 4),
            Err(ProtoError::Truncated { got: 100, needed: n }) if n == needed
        ));
        assert!(payload.capacity() <= 1 << 20, "{}", payload.capacity());
    }

    /// Payloads past the first chunk arrive whole, however they are cut.
    #[test]
    fn a_payload_past_the_first_chunk_arrives_whole() {
        let body: Vec<u8> = (0..3 * FIRST_CHUNK + 5).map(|i| i as u8).collect();
        let wire = message(MsgKind::Invite, &body);
        let (a, b) = wire.split_at(FIRST_CHUNK + 17);
        let mut r = Script::new([Step::Bytes(a.to_vec()), Step::Tick, Step::Bytes(b.to_vec())]);
        let mut payload = Vec::new();
        let env = read_msg(&mut r, &mut payload, true, 2).unwrap().unwrap();
        assert_eq!((env.kind, env.len as usize), (MsgKind::Invite, body.len()));
        assert_eq!(payload, body);
        assert!(matches!(read_msg(&mut r, &mut payload, true, 2), Ok(None)));
    }

    /// The slow-loris half of a reader: once an envelope has begun, the
    /// `stall_ticks`-th tick without progress fails it, and not before.
    #[test]
    fn a_stall_inside_the_envelope_fails_after_the_grace_ticks() {
        let start = message(MsgKind::Upload, &[1; 8])[..4].to_vec();
        let stalled = |ticks| {
            let mut steps = vec![Step::Bytes(start.clone())];
            steps.extend((0..ticks).map(|_| Step::Tick));
            steps.push(Step::Bytes(message(MsgKind::Upload, &[1; 8])[4..].to_vec()));
            let mut r = Script::new(steps);
            (read_msg(&mut r, &mut Vec::new(), true, 3), r.ticks)
        };
        assert!(matches!(stalled(2), (Ok(Some(_)), 2)));
        assert!(matches!(
            stalled(3),
            (
                Err(ProtoError::Stalled {
                    got: 4,
                    needed: ENVELOPE_BYTES
                }),
                3
            )
        ));
    }

    /// Between messages a connection may stay quiet for any number of
    /// ticks: idling spends no stall budget.
    #[test]
    fn a_connection_idle_between_messages_never_stalls() {
        let mut steps = vec![Step::Bytes(message(MsgKind::Offer, &[2; 16]))];
        steps.extend((0..1000).map(|_| Step::Tick));
        steps.push(Step::Bytes(message(MsgKind::Offer, &[3; 16])));
        let mut r = Script::new(steps);
        let mut payload = Vec::new();
        for fill in [2u8, 3] {
            let env = read_msg(&mut r, &mut payload, true, 1).unwrap().unwrap();
            assert_eq!((env.kind, &payload[..]), (MsgKind::Offer, &[fill; 16][..]));
        }
        assert_eq!(r.ticks, 1000);
        assert!(matches!(read_msg(&mut r, &mut payload, true, 1), Ok(None)));
    }

    #[test]
    fn every_kind_round_trips_its_id() {
        for kind in MsgKind::ALL {
            assert_eq!(MsgKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(MsgKind::from_id(0), None);
        assert_eq!(MsgKind::from_id(8), None);
    }

    #[test]
    fn stall_budget_is_at_least_one_tick() {
        assert_eq!(
            stall_ticks_for(Duration::from_millis(0), Duration::from_millis(200)),
            1
        );
        assert_eq!(
            stall_ticks_for(Duration::from_millis(1000), Duration::from_millis(200)),
            5
        );
    }
}
