//! The orchestrating server: [`gluefl_core::RoundEngine`] driven over
//! real sockets.
//!
//! [`Server::run`] accepts the configured clients (`HELLO`/`WELCOME`),
//! then steps the engine once per round through a socket
//! [`RoundIo`] and finally sends `FIN`. The engine sequences the round
//! (see [`gluefl_core::engine`]); this module owns everything that is
//! about connections rather than about federated learning:
//!
//! * one reader thread per connection, started the moment it is
//!   accepted: it reads the connection's `HELLO` and then feeds complete
//!   messages (or the connection's failure) into one channel, so the
//!   accept loop only validates and answers and never waits on a client
//!   — connections that stay silent, or say something other than a
//!   valid `HELLO`, are turned away and counted by reason;
//! * `INVITE`: the engine's broadcast frames behind a group tag, written
//!   to every invited client;
//! * one slot per invitation, recording what its client owes next and by
//!   when: this round's `OFFER`, under a wall-clock deadline derived
//!   from the *modeled* download and compute times ([`wall_deadline`]),
//!   then, if granted, its `UPLOAD` under one derived from the modeled
//!   upload time. Both waits of the round go through one routine
//!   (`SocketIo::settle`);
//! * `GRANT` to exactly the keep set — the over-committed remainder is
//!   told to discard, so it owes nothing more this round and its upload
//!   bytes never reach the decoder;
//! * `UPLOAD` arrivals handed to the engine **as they arrive** — there
//!   is no collect-then-aggregate staging;
//! * the failure policy: a connection that closes, stalls mid-message,
//!   misses a deadline, sends a message no slot owes (a second upload,
//!   an upload after `GRANT(0)`, a message from another round) or
//!   delivers bytes the engine rejects is shut down and never invited
//!   again, its kept slot is reported lost, and the round completes
//!   without it. Kill, skip, stall, deadline and decode-error counters
//!   fire at exactly those points.

use crate::proto::{
    parse_envelope, parse_offer, read_exact_classified, read_msg, stall_ticks_for, write_msg,
    MsgKind, ProtoError, ENVELOPE_BYTES, PROTO_VERSION,
};
use crate::TransportError;
use gluefl_core::engine::{Arrival, Broadcast, RoundIo};
use gluefl_core::strategies::Group;
use gluefl_core::{RoundEngine, RoundRecord, RunSetup, SimConfig};
use gluefl_net::timing::{wall_deadline, ClientRoundTime};
use gluefl_telemetry::{Counter, Dir, EventKind, Telemetry};
use gluefl_wire::WireError;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `HELLO` payload length: `[proto_version u32][client_id u32]`.
const HELLO_BYTES: usize = 8;

/// Transport-level knobs of the server (the training run itself is fully
/// described by the [`SimConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Expected number of connecting clients; `HELLO` ids must be unique
    /// and below this.
    pub clients: usize,
    /// How long to wait for all clients to say `HELLO`.
    pub hello_timeout: Duration,
    /// Flat floor of every offer deadline.
    pub offer_timeout: Duration,
    /// Flat floor of every upload deadline.
    pub upload_timeout: Duration,
    /// Wall seconds of extra patience per *modeled* second
    /// ([`wall_deadline`]'s `scale`); 0 keeps deadlines flat — right for
    /// loopback, where modeled hours must not become real ones.
    pub secs_per_modeled_sec: f64,
    /// Grace budget for a connection that started a message and stopped
    /// making progress (slow-loris kill threshold), and for a new
    /// connection that has sent no byte of its `HELLO`.
    pub stall_grace: Duration,
    /// Socket read-timeout tick of the per-connection reader threads.
    pub read_tick: Duration,
    /// Telemetry hub the run reports into: per-round / per-connection
    /// journal events (offers granted, expired deadlines, mid-message
    /// stalls, skips and kills) and counters, including measured bytes
    /// up and down by envelope message kind. `None` (the default) skips
    /// every recording branch.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl ServerConfig {
    /// Defaults for a local run with `clients` participants.
    #[must_use]
    pub fn local(clients: usize) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            clients,
            hello_timeout: Duration::from_secs(30),
            offer_timeout: Duration::from_secs(30),
            upload_timeout: Duration::from_secs(30),
            secs_per_modeled_sec: 0.0,
            stall_grace: Duration::from_secs(2),
            read_tick: Duration::from_millis(50),
            telemetry: None,
        }
    }
}

/// The server's pre-registered counter handles plus the hub, so the hot
/// round loop records through plain atomics — the registry mutex is
/// only touched at construction and on the rare decode-error path.
struct NetRecorder {
    hub: Arc<Telemetry>,
    offers_granted: Counter,
    /// Deadlines expired, indexed by [`Owed`].
    deadlines_expired: [Counter; Owed::ALL.len()],
    stalls: Counter,
    skips: Counter,
    kills: Counter,
    /// Connections turned away before `WELCOME`, indexed by [`Refusal`].
    refused: [Counter; Refusal::ALL.len()],
    /// Bytes received / sent, indexed by `MsgKind::id() - 1`.
    bytes_up: Vec<Counter>,
    bytes_down: Vec<Counter>,
}

impl NetRecorder {
    fn new(hub: Arc<Telemetry>) -> Self {
        let dir_counters = |dir: &'static str| -> Vec<Counter> {
            MsgKind::ALL
                .iter()
                .map(|k| {
                    hub.counter(
                        "gluefl_server_bytes_total",
                        &[("dir", dir), ("frame", k.name())],
                    )
                })
                .collect()
        };
        Self {
            offers_granted: hub.counter("gluefl_server_offers_granted_total", &[]),
            deadlines_expired: Owed::ALL.map(|owed| {
                hub.counter(
                    "gluefl_server_deadlines_expired_total",
                    &[("phase", owed.kind().name())],
                )
            }),
            stalls: hub.counter("gluefl_server_stalls_total", &[]),
            skips: hub.counter("gluefl_server_uploads_skipped_total", &[]),
            kills: hub.counter("gluefl_server_clients_killed_total", &[]),
            refused: Refusal::ALL.map(|r| {
                hub.counter(
                    "gluefl_server_handshakes_refused_total",
                    &[("reason", r.name())],
                )
            }),
            bytes_up: dir_counters("up"),
            bytes_down: dir_counters("down"),
            hub,
        }
    }

    /// Records one sent message's measured bytes (envelope + payload).
    fn sent(&self, kind: MsgKind, payload_len: usize) {
        self.bytes_down[kind.id() as usize - 1]
            .add((crate::proto::ENVELOPE_BYTES + payload_len) as u64);
    }

    /// Records one received message's measured bytes, journaling the
    /// big ones (uploads) per client.
    fn received(&self, round: u32, id: usize, kind: MsgKind, payload_len: usize) {
        let bytes = (crate::proto::ENVELOPE_BYTES + payload_len) as u64;
        self.bytes_up[kind.id() as usize - 1].add(bytes);
        if kind == MsgKind::Upload {
            self.hub.event(
                round,
                id as i64,
                EventKind::Bytes {
                    dir: Dir::Up,
                    frame: kind.name(),
                    bytes,
                },
            );
        }
    }

    /// Inspects every reader event once, on receipt: byte accounting
    /// for complete messages, the stall counter for mid-message stalls.
    fn reader_event(&self, round: u32, id: usize, event: &ReaderEvent) {
        match event {
            ReaderEvent::Msg(env, payload) => self.received(round, id, env.kind, payload.len()),
            ReaderEvent::Failed(ProtoError::Stalled { .. }) => {
                self.stalls.inc();
                self.hub.event(round, id as i64, EventKind::Stall);
            }
            ReaderEvent::Hello { .. }
            | ReaderEvent::NoHello(_)
            | ReaderEvent::Closed
            | ReaderEvent::Failed(_) => {}
        }
    }

    fn expired(&self, round: u32, id: usize, owed: Owed) {
        self.deadlines_expired[owed as usize].inc();
        let which = owed.kind().name();
        self.hub
            .event(round, id as i64, EventKind::DeadlineExpired { which });
    }

    fn skip(&self, round: u32, id: usize) {
        self.skips.inc();
        self.hub.event(round, id as i64, EventKind::UploadSkipped);
    }

    fn decode_error(&self, round: u32, id: usize, err: &gluefl_wire::WireError) {
        let kind = err.stat_name();
        self.hub
            .counter("gluefl_server_decode_errors_total", &[("kind", kind)])
            .inc();
        self.hub
            .event(round, id as i64, EventKind::DecodeError { kind });
    }
}

/// What a run produced: the per-round records (comparable with
/// `PartialEq` against a [`gluefl_core::Simulation`] run), plus
/// robustness counters.
#[derive(Debug)]
pub struct ServerReport {
    /// One record per round, field-for-field what the simulator emits.
    pub records: Vec<RoundRecord>,
    /// The strategy's display name.
    pub strategy: String,
    /// FNV-1a over the final global parameters' bit patterns
    /// ([`crate::fnv1a_f32_bits`]).
    pub final_params_fnv: u64,
    /// Kept uploads that were skipped (deadline, disconnect, or hostile
    /// bytes). 0 in a failure-free run.
    pub skipped_uploads: usize,
    /// Connections declared dead during the run.
    pub dead_clients: usize,
}

/// Why a connection was turned away before `WELCOME`: the `reason`
/// label of `gluefl_server_handshakes_refused_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// Sent no byte: not within the stall grace, not before it closed,
    /// not before the handshake phase ended.
    Silent,
    /// Its first message was not a well-formed `HELLO` (bad envelope,
    /// another kind or length, cut off or stalled part-way, or a socket
    /// error).
    Malformed,
    /// The `HELLO` named another protocol version.
    Version,
    /// The claimed id is not below the configured client count.
    IdOutOfRange,
    /// Another connection already holds the claimed id.
    DuplicateId,
}

impl Refusal {
    /// Every reason, in counter-index order.
    const ALL: [Refusal; 5] = [
        Refusal::Silent,
        Refusal::Malformed,
        Refusal::Version,
        Refusal::IdOutOfRange,
        Refusal::DuplicateId,
    ];

    fn name(self) -> &'static str {
        match self {
            Refusal::Silent => "silent",
            Refusal::Malformed => "malformed",
            Refusal::Version => "version",
            Refusal::IdOutOfRange => "id_out_of_range",
            Refusal::DuplicateId => "duplicate_id",
        }
    }
}

/// What a reader thread reports about its connection: first a `HELLO`
/// or why there is none, then messages until the connection ends.
enum ReaderEvent {
    /// The connection's first message, a well-formed `HELLO`: the
    /// protocol version and client id it claims.
    Hello { version: u32, id: u32 },
    /// The connection will never say `HELLO`; its reader has exited.
    NoHello(Refusal),
    /// A complete message arrived.
    Msg(crate::proto::Envelope, Vec<u8>),
    /// The peer closed cleanly between messages.
    Closed,
    /// The connection failed (truncation, stall, garbage, socket error).
    /// The round loop treats every failure the same way (kill + skip);
    /// telemetry distinguishes mid-message stalls for the stall counter.
    Failed(ProtoError),
}

/// One registered client connection.
struct Conn {
    writer: TcpStream,
    reader: Option<JoinHandle<()>>,
}

/// A message an invited client owes the round.
#[derive(Clone, Copy, PartialEq)]
enum Owed {
    /// This round's `OFFER`.
    Offer,
    /// The granted `UPLOAD`.
    Upload,
}

impl Owed {
    /// Every kind, in counter-index order.
    const ALL: [Owed; 2] = [Owed::Offer, Owed::Upload];

    fn kind(self) -> MsgKind {
        match self {
            Owed::Offer => MsgKind::Offer,
            Owed::Upload => MsgKind::Upload,
        }
    }
}

/// One invitation's state within the round.
#[derive(Clone, Copy, PartialEq)]
enum Slot {
    /// The client owes this message by the deadline.
    Owes(Owed, Instant),
    /// The client was killed while it owed a message; not yet reported.
    Lost,
    /// The client owes nothing more this round.
    Done,
}

/// How [`SocketIo::settle`] resolved a slot.
enum Settled {
    /// The owed message arrived: the invitation index and its payload.
    Paid(usize, Vec<u8>),
    /// The client missed its deadline, broke protocol or failed, and was
    /// killed: the invitation index.
    Lost(usize),
}

/// The socket [`RoundIo`]: the registered connections, which of them are
/// still alive, and the round's slot table.
struct SocketIo {
    net: ServerConfig,
    tel: Option<NetRecorder>,
    /// Indexed by client id.
    conns: Vec<Option<Conn>>,
    /// Indexed by client id; an id past the connected range is never alive.
    alive: Vec<bool>,
    /// Reader events, keyed by connection number (accept order).
    rx: mpsc::Receiver<(usize, ReaderEvent)>,
    /// Per connection number, the client id it was welcomed as
    /// (`usize::MAX` until then, and for a connection turned away).
    client_of: Vec<usize>,
    /// Reader threads of the connections turned away, joined at teardown.
    turned_away: Vec<JoinHandle<()>>,
    dead_clients: usize,
    /// The round's invited client ids, and each id's invitation index
    /// (`usize::MAX` when not invited this round).
    invited: Vec<usize>,
    invited_ix: Vec<usize>,
    /// Per invitation index: what the client owes next.
    slots: Vec<Slot>,
    /// Reused `INVITE` payload (group tag + broadcast frames).
    invite_buf: Vec<u8>,
}

impl SocketIo {
    /// Marks a connection dead: no further events are honored, the
    /// socket is shut down so its reader thread unblocks and exits, and
    /// a slot it still owed a message is lost. The kill counter and
    /// journal event fire on the same `alive` transition
    /// [`ServerReport::dead_clients`] counts, so the two always agree.
    fn kill(&mut self, round: u32, id: usize) {
        if let Some(slot @ Slot::Owes(..)) = self.slots.get_mut(self.invited_ix[id]) {
            *slot = Slot::Lost;
        }
        if self.alive[id] {
            self.alive[id] = false;
            self.dead_clients += 1;
            if let Some(t) = &self.tel {
                t.kills.inc();
                t.hub.event(round, id as i64, EventKind::ClientKilled);
            }
            if let Some(conn) = &self.conns[id] {
                let _ = conn.writer.shutdown(Shutdown::Both);
            }
        }
    }

    /// Writes one message to client `id`, killing the connection when the
    /// write fails. Returns whether it was sent.
    fn send(&mut self, round: u32, id: usize, kind: MsgKind, payload: &[u8]) -> bool {
        let conn = self.conns[id]
            .as_mut()
            .expect("alive client has a connection");
        if write_msg(&mut conn.writer, kind, round, payload).is_err() {
            self.kill(round, id);
            return false;
        }
        if let Some(t) = &self.tel {
            t.sent(kind, payload.len());
        }
        true
    }

    /// Blocks for the next reader event from a live connection, at most
    /// until `deadline`. Returns the sender's id, its invitation index
    /// (`usize::MAX` when not invited this round) and the event; `None`
    /// on timeout (or when every reader thread is gone).
    fn next_event(&mut self, round: u32, deadline: Instant) -> Option<(usize, usize, ReaderEvent)> {
        loop {
            let timeout = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            let (conn, event) = self.rx.recv_timeout(timeout).ok()?;
            let id = self.client_of[conn];
            if id == usize::MAX {
                continue; // the last words of a connection turned away
            }
            if let Some(t) = &self.tel {
                t.reader_event(round, id, &event);
            }
            if self.alive[id] {
                return Some((id, self.invited_ix[id], event));
            }
        }
    }

    /// The round's one wait: resolves the next slot that owes a message,
    /// or `None` once none does. A lost slot is reported first; then a
    /// slot past its deadline expires (its client is killed); otherwise
    /// the next reader event from a live client is taken. The message a
    /// slot owes resolves that slot; anything else — a close, a failure,
    /// a message no slot owes — kills its sender, which loses the slot
    /// it owed, if any.
    fn settle(&mut self, round: u32) -> Option<Settled> {
        loop {
            let now = Instant::now();
            let mut next: Option<Instant> = None;
            for i in 0..self.slots.len() {
                match self.slots[i] {
                    Slot::Owes(owed, deadline) if now >= deadline => {
                        let id = self.invited[i];
                        if let Some(t) = &self.tel {
                            t.expired(round, id, owed);
                        }
                        // Loses the slot.
                        self.kill(round, id);
                    }
                    Slot::Owes(_, deadline) => {
                        next = Some(next.map_or(deadline, |n| n.min(deadline)));
                    }
                    Slot::Lost | Slot::Done => {}
                }
                if self.slots[i] == Slot::Lost {
                    self.slots[i] = Slot::Done;
                    return Some(Settled::Lost(i));
                }
            }
            let Some((id, ix, event)) = self.next_event(round, next?) else {
                continue;
            };
            let owed = match self.slots.get(ix) {
                Some(&Slot::Owes(owed, _)) => Some(owed.kind()),
                _ => None,
            };
            match event {
                // An offer pays only if it parses.
                ReaderEvent::Msg(env, payload)
                    if env.round == round
                        && owed == Some(env.kind)
                        && (env.kind != MsgKind::Offer || parse_offer(&payload).is_some()) =>
                {
                    self.slots[ix] = Slot::Done;
                    return Some(Settled::Paid(ix, payload));
                }
                _ => self.kill(round, id),
            }
        }
    }

    /// The handshake phase: accepts connections until `net.clients`
    /// distinct clients have been welcomed or `hello_timeout` passes.
    /// Every connection's `HELLO` is read by its own reader thread
    /// ([`open`]); this loop waits only on the listener and the
    /// event channel, validates what the readers report and answers with
    /// `WELCOME`, so a connection that never speaks costs one thread and
    /// delays no one. Connections still silent when the phase ends are
    /// turned away.
    fn admit(
        &mut self,
        listener: &TcpListener,
        tx: &mpsc::Sender<(usize, ReaderEvent)>,
        welcome: &[u8; 8],
        stall_ticks: u32,
    ) -> Result<(), TransportError> {
        listener.set_nonblocking(true).map_err(ProtoError::Io)?;
        let deadline = Instant::now() + self.net.hello_timeout;
        // Accepted connections yet to be welcomed, by connection number.
        let mut lobby: Vec<Option<Conn>> = Vec::new();
        let mut connected = 0usize;
        while connected < self.net.clients && Instant::now() < deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    lobby.push(open(stream, lobby.len(), &self.net, stall_ticks, tx));
                    self.client_of.push(usize::MAX);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Ok((conn, event)) = self.rx.recv_timeout(Duration::from_millis(2)) {
                        connected += usize::from(self.introduce(conn, event, &mut lobby, welcome));
                    }
                }
                Err(e) => return Err(ProtoError::Io(e).into()),
            }
        }
        // HELLOs already read still get their answer.
        while let Ok((conn, event)) = self.rx.try_recv() {
            connected += usize::from(self.introduce(conn, event, &mut lobby, welcome));
        }
        for conn in lobby.into_iter().flatten() {
            self.turn_away(conn, Refusal::Silent);
        }
        if connected < self.net.clients {
            self.close();
            return Err(TransportError::HandshakeTimeout {
                connected,
                expected: self.net.clients,
            });
        }
        Ok(())
    }

    /// Handles one reader event of the handshake phase; returns whether
    /// it welcomed a client.
    fn introduce(
        &mut self,
        conn: usize,
        event: ReaderEvent,
        lobby: &mut [Option<Conn>],
        welcome: &[u8; 8],
    ) -> bool {
        let welcomed = self.client_of[conn];
        if welcomed != usize::MAX {
            // A client spoke (or hung up) before any INVITE: as in the
            // round loop, that costs it its connection.
            if let Some(t) = &self.tel {
                t.reader_event(0, welcomed, &event);
            }
            self.kill(0, welcomed);
            return false;
        }
        let Some(c) = lobby[conn].take() else {
            return false; // the last words of a connection turned away
        };
        let claim = match event {
            ReaderEvent::Hello { version, id } => {
                let id = id as usize;
                if version != PROTO_VERSION {
                    Err(Refusal::Version)
                } else if id >= self.net.clients {
                    Err(Refusal::IdOutOfRange)
                } else if self.conns[id].is_some() {
                    Err(Refusal::DuplicateId)
                } else {
                    Ok(id)
                }
            }
            ReaderEvent::NoHello(reason) => Err(reason),
            // A reader reports its HELLO (or its absence) before anything.
            ReaderEvent::Msg(..) | ReaderEvent::Closed | ReaderEvent::Failed(_) => {
                Err(Refusal::Malformed)
            }
        };
        let id = match claim {
            Ok(id) => id,
            Err(reason) => {
                self.turn_away(c, reason);
                return false;
            }
        };
        self.conns[id] = Some(c);
        self.client_of[conn] = id;
        self.alive[id] = true;
        if let Some(t) = &self.tel {
            t.received(0, id, MsgKind::Hello, HELLO_BYTES);
        }
        // A failed WELCOME kills the client like any failed send.
        self.send(0, id, MsgKind::Welcome, welcome);
        true
    }

    /// Counts and closes a connection refused before `WELCOME`; its
    /// reader exits on the shutdown.
    fn turn_away(&mut self, conn: Conn, reason: Refusal) {
        if let Some(t) = &self.tel {
            t.refused[reason as usize].inc();
        }
        let _ = conn.writer.shutdown(Shutdown::Both);
        self.turned_away.extend(conn.reader);
    }

    /// Shuts every connection down and joins every reader thread (each
    /// exits on its socket's shutdown).
    fn close(&mut self) {
        for conn in self.conns.iter().flatten() {
            let _ = conn.writer.shutdown(Shutdown::Both);
        }
        let readers = self
            .conns
            .iter_mut()
            .flatten()
            .filter_map(|c| c.reader.take());
        for handle in readers.chain(self.turned_away.drain(..)) {
            let _ = handle.join();
        }
    }
}

impl RoundIo for SocketIo {
    fn reachable(&self, id: usize) -> bool {
        self.alive[id]
    }

    fn invite(&mut self, round: u32, invited: &[(usize, Group)], broadcast: &Broadcast<'_>) {
        for &id in &self.invited {
            self.invited_ix[id] = usize::MAX;
        }
        self.invited.clear();
        self.slots.clear();
        self.slots.resize(invited.len(), Slot::Done);
        for (i, &(id, group)) in invited.iter().enumerate() {
            self.invited.push(id);
            self.invited_ix[id] = i;
            if self.alive[id] {
                let mut buf = std::mem::take(&mut self.invite_buf);
                buf.clear();
                buf.push(u8::from(group == Group::Sticky));
                buf.extend_from_slice(broadcast.frames);
                self.send(round, id, MsgKind::Invite, &buf);
                self.invite_buf = buf;
            }
        }
    }

    fn offers(&mut self, round: u32, times: &[ClientRoundTime], offers: &mut [Option<(u64, u64)>]) {
        let phase_start = Instant::now();
        for (i, t) in times.iter().enumerate() {
            if self.alive[self.invited[i]] {
                let patience = wall_deadline(
                    t.download_secs + t.compute_secs,
                    self.net.offer_timeout,
                    self.net.secs_per_modeled_sec,
                );
                self.slots[i] = Slot::Owes(Owed::Offer, phase_start + patience);
            }
        }
        while let Some(settled) = self.settle(round) {
            if let Settled::Paid(i, payload) = settled {
                // `settle` takes only an offer that parses.
                offers[i] = parse_offer(&payload);
            }
        }
    }

    fn grant(&mut self, round: u32, kept: &[usize], times: &[ClientRoundTime]) {
        // Every invited client still alive has offered: `settle` kills
        // any that did not.
        let phase_start = Instant::now();
        for &i in kept {
            self.slots[i] = if self.alive[self.invited[i]] {
                let patience = wall_deadline(
                    times[i].upload_secs,
                    self.net.upload_timeout,
                    self.net.secs_per_modeled_sec,
                );
                Slot::Owes(Owed::Upload, phase_start + patience)
            } else {
                Slot::Lost
            };
        }
        for i in 0..self.invited.len() {
            let id = self.invited[i];
            if !self.alive[id] {
                continue;
            }
            let granted = self.slots[i] != Slot::Done;
            if self.send(round, id, MsgKind::Grant, &[u8::from(granted)]) && granted {
                if let Some(t) = &self.tel {
                    t.offers_granted.inc();
                    t.hub.event(round, id as i64, EventKind::OfferGranted);
                }
            }
        }
    }

    fn next_upload(&mut self, round: u32, payload: &mut Vec<u8>) -> Option<Arrival> {
        match self.settle(round)? {
            Settled::Paid(i, body) => {
                *payload = body;
                Some(Arrival::Delivered(i))
            }
            Settled::Lost(i) => {
                // The skip counter fires here and in `rejected` — once
                // per skipped upload.
                if let Some(t) = &self.tel {
                    t.skip(round, self.invited[i]);
                }
                Some(Arrival::Lost(i))
            }
        }
    }

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        let id = self.invited[slot];
        if let Some(t) = &self.tel {
            t.decode_error(round, id, err);
            t.skip(round, id);
        }
        self.kill(round, id);
    }
}

/// A bound, not-yet-running server. [`Server::run`] executes the full
/// round loop and consumes it.
pub struct Server {
    listener: TcpListener,
    sim: SimConfig,
    net: ServerConfig,
}

impl Server {
    /// Binds the listen socket.
    ///
    /// # Errors
    /// Socket errors from bind.
    pub fn bind(sim: SimConfig, net: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&net.addr)?;
        Ok(Self { listener, sim, net })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Panics
    /// Panics if the socket cannot report its own address.
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("bound socket has an address")
    }

    /// Accepts all clients, runs every configured round, and reports.
    ///
    /// # Errors
    /// [`TransportError::HandshakeTimeout`] when fewer than the expected
    /// clients complete `HELLO` in time; socket errors from the
    /// listener. Per-connection failures after the handshake are *not*
    /// errors — the offender is skipped and the run completes.
    ///
    /// # Panics
    /// Panics only on internal invariant violations (a kept slot left
    /// unresolved), never on hostile input.
    pub fn run(self) -> Result<ServerReport, TransportError> {
        let Server {
            listener,
            sim: cfg,
            net,
        } = self;
        let stall_ticks = stall_ticks_for(net.stall_grace, net.read_tick);
        let tel = net.telemetry.clone().map(NetRecorder::new);
        let rounds = cfg.rounds;
        let setup = RunSetup::new(&cfg);
        let n = setup.data.num_clients();
        let mut engine = RoundEngine::new(cfg, setup);
        if let Some(hub) = &net.telemetry {
            engine.set_telemetry(Arc::clone(hub));
        }

        // --- Handshake phase. ---
        let (tx, rx) = mpsc::channel::<(usize, ReaderEvent)>();
        let population = u32::try_from(n).unwrap_or(u32::MAX);
        let mut welcome = [0u8; 8];
        welcome[..4].copy_from_slice(&population.to_le_bytes());
        welcome[4..].copy_from_slice(&rounds.to_le_bytes());
        let ids = net.clients.max(n);
        let mut io = SocketIo {
            conns: (0..net.clients).map(|_| None).collect(),
            alive: vec![false; ids],
            invited_ix: vec![usize::MAX; ids],
            net,
            tel,
            rx,
            client_of: Vec::new(),
            turned_away: Vec::new(),
            dead_clients: 0,
            invited: Vec::new(),
            slots: Vec::new(),
            invite_buf: Vec::new(),
        };
        io.admit(&listener, &tx, &welcome, stall_ticks)?;
        // Only reader threads hold senders from here on.
        drop(tx);

        let records: Vec<RoundRecord> = (0..rounds).map(|_| engine.step(&mut io)).collect();

        // --- FIN + teardown. ---
        for (id, conn) in io.conns.iter_mut().enumerate() {
            if let Some(conn) = conn {
                if io.alive[id] && write_msg(&mut conn.writer, MsgKind::Fin, rounds, &[]).is_ok() {
                    if let Some(t) = &io.tel {
                        t.sent(MsgKind::Fin, 0);
                    }
                }
            }
        }
        io.close();

        Ok(ServerReport {
            records,
            strategy: engine.strategy_name(),
            final_params_fnv: crate::fnv1a_f32_bits(engine.model().params()),
            skipped_uploads: engine.skipped_uploads(),
            dead_clients: io.dead_clients,
        })
    }
}

/// Readies an accepted socket and starts its reader as connection
/// `conn`; `None` (the socket is dropped) when it cannot be configured.
fn open(
    stream: TcpStream,
    conn: usize,
    net: &ServerConfig,
    stall_ticks: u32,
    tx: &mpsc::Sender<(usize, ReaderEvent)>,
) -> Option<Conn> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(net.read_tick)).ok()?;
    let mut reader_stream = stream.try_clone().ok()?;
    let tx = tx.clone();
    let reader = std::thread::spawn(move || {
        let hello = match read_hello(&mut reader_stream, stall_ticks) {
            Ok((version, id)) => ReaderEvent::Hello { version, id },
            Err(reason) => {
                let _ = tx.send((conn, ReaderEvent::NoHello(reason)));
                return;
            }
        };
        if tx.send((conn, hello)).is_err() {
            return; // server gone
        }
        let mut payload = Vec::new();
        loop {
            let event = match read_msg(&mut reader_stream, &mut payload, true, stall_ticks) {
                Ok(Some(env)) => ReaderEvent::Msg(env, std::mem::take(&mut payload)),
                Ok(None) => ReaderEvent::Closed,
                Err(e) => ReaderEvent::Failed(e),
            };
            let last = !matches!(event, ReaderEvent::Msg(..));
            if tx.send((conn, event)).is_err() || last {
                return;
            }
        }
    });
    Some(Conn {
        writer: stream,
        reader: Some(reader),
    })
}

/// Reads a connection's first message, which must be a `HELLO`:
/// `(protocol version, claimed id)`, or why there is none. A connection
/// that sends no byte within the stall grace, or closes first, is
/// silent; one that starts a message and does not finish a well-formed
/// `HELLO` is malformed.
fn read_hello(stream: &mut TcpStream, stall_ticks: u32) -> Result<(u32, u32), Refusal> {
    let mut header = [0u8; ENVELOPE_BYTES];
    match read_exact_classified(stream, &mut header, false, stall_ticks) {
        Ok(_) => {}
        Err(ProtoError::Stalled { got: 0, .. } | ProtoError::Truncated { got: 0, .. }) => {
            return Err(Refusal::Silent)
        }
        Err(_) => return Err(Refusal::Malformed),
    }
    let mut body = [0u8; HELLO_BYTES];
    match parse_envelope(&header) {
        Ok(env) if env.kind == MsgKind::Hello && env.len as usize == HELLO_BYTES => {}
        _ => return Err(Refusal::Malformed),
    }
    read_exact_classified(stream, &mut body, false, stall_ticks).map_err(|_| Refusal::Malformed)?;
    let (version, id) = body.split_at(4);
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 B"));
    Ok((word(version), word(id)))
}
