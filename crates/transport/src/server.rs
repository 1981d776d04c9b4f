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
//! * `INVITE`/`GRANT`/`FIN` writes, `GRANT(1)` going to exactly the
//!   keep set — the over-committed remainder gets `GRANT(0)`, so it
//!   trains nothing and owes nothing more this round;
//! * `UPLOAD` arrivals handed to the engine **as they arrive** — there
//!   is no collect-then-aggregate staging;
//! * driving the round's slot table (`crate::slots`), which makes every
//!   decision of the round's two waits without IO: what each invitation
//!   owes (its `OFFER`, then, if granted, its `UPLOAD`) and by when —
//!   `offer_timeout` or `upload_timeout` after its wait begins — and
//!   whom a message, a closed connection or a passed deadline kills.
//!   The engine keeps clients by their offers, not by when anything
//!   arrives, so no modeled time reaches a deadline. `SocketIo` reads
//!   the clock once per wait iteration, waits for one reader event until
//!   the table's next deadline, and turns its effects into socket
//!   shutdowns and counters;
//! * the failure policy that table states: a connection that closes,
//!   stalls mid-message, misses a deadline, sends a message no slot owes
//!   (a second upload, an upload after `GRANT(0)`, a message from
//!   another round, anything before its first `INVITE`) or delivers
//!   bytes the engine rejects is shut down and never invited again, its
//!   kept slot is reported lost, and the round completes without it.
//!   Kill, skip, stall, deadline and decode-error counters fire at
//!   exactly those points.

use crate::proto::{
    parse_envelope, parse_offer, read_exact_classified, read_msg, stall_ticks_for, write_msg,
    MsgKind, ProtoError, ENVELOPE_BYTES, PROTO_VERSION,
};
use crate::slots::{Effect, Heard, Owed, Slots, Verdict};
use crate::{ByteCounters, TransportError};
use gluefl_core::engine::{Arrival, Broadcast, RoundIo, UploadSink};
use gluefl_core::strategies::Group;
use gluefl_core::{RoundEngine, RoundRecord, RunSetup, SimConfig};
use gluefl_telemetry::{Counter, Telemetry};
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
    /// How long an invited client has to send its `OFFER` once the offer
    /// wait begins; at most a day, or the deadline `Instant` overflows
    /// (`gluefl-server` refuses more).
    pub offer_timeout: Duration,
    /// How long a granted client has to deliver its `UPLOAD` once the
    /// upload wait begins (just before the `GRANT`s); at most a day.
    pub upload_timeout: Duration,
    /// Grace budget for a connection that started a message and stopped
    /// making progress (slow-loris kill threshold), and for a new
    /// connection that has sent no byte of its `HELLO`.
    pub stall_grace: Duration,
    /// Socket read-timeout tick of the per-connection reader threads.
    pub read_tick: Duration,
    /// Telemetry hub the run reports into: counters of offers granted,
    /// expired deadlines, mid-message stalls, skips, kills, refused
    /// handshakes and decode errors, and measured bytes up and down by
    /// envelope message kind. `None` (the default) skips every recording
    /// branch.
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
    bytes: ByteCounters,
}

impl NetRecorder {
    fn new(hub: Arc<Telemetry>) -> Self {
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
            bytes: ByteCounters::new(&hub, "gluefl_server_bytes_total"),
            hub,
        }
    }

    /// Inspects every reader event once, on receipt: byte accounting
    /// for complete messages, the stall counter for mid-message stalls.
    fn reader_event(&self, event: &ReaderEvent) {
        match event {
            ReaderEvent::Msg(env, payload) => self.bytes.up(env.kind, payload.len()),
            ReaderEvent::Failed(ProtoError::Stalled { .. }) => self.stalls.inc(),
            ReaderEvent::Hello { .. }
            | ReaderEvent::NoHello(_)
            | ReaderEvent::Closed
            | ReaderEvent::Failed(_) => {}
        }
    }
}

/// What a run produced: the per-round records, plus robustness
/// counters. The socket reference test (`socket_reference`) holds every
/// round to the reference round of `gluefl-core`'s `tests/reference/`.
#[derive(Debug)]
pub struct ServerReport {
    /// One record per round, the fields the in-process driver emits.
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

/// The socket [`RoundIo`]: the registered connections and the driver of
/// their [`Slots`], which decides who is alive and what each invitation
/// still owes.
struct SocketIo {
    net: ServerConfig,
    tel: Option<NetRecorder>,
    /// Indexed by client id.
    conns: Vec<Option<Conn>>,
    /// Who is alive (an id past the connected range never is) and what
    /// each invitation owes, on the wall clock.
    slots: Slots<Instant>,
    /// Reader events, keyed by connection number (accept order).
    rx: mpsc::Receiver<(usize, ReaderEvent)>,
    /// Per connection number, the client id it was welcomed as
    /// (`usize::MAX` until then, and for a connection turned away).
    client_of: Vec<usize>,
    /// Reader threads of the connections turned away, joined at teardown.
    turned_away: Vec<JoinHandle<()>>,
    /// Reused `INVITE` payload (group tag + broadcast frames).
    invite_buf: Vec<u8>,
}

impl SocketIo {
    /// Kills client `id` (see [`Slots::kill`]).
    fn kill(&mut self, id: usize) {
        self.slots.kill(id);
        self.apply();
    }

    /// Carries out the machine's effects: the expiry and kill counters,
    /// and a killed client's socket shutdown, which unblocks its reader
    /// thread.
    fn apply(&mut self) {
        for effect in self.slots.drain_effects() {
            match effect {
                Effect::Expired(_, owed) => {
                    if let Some(t) = &self.tel {
                        t.deadlines_expired[owed as usize].inc();
                    }
                }
                Effect::Killed(id) => {
                    if let Some(t) = &self.tel {
                        t.kills.inc();
                    }
                    if let Some(conn) = &self.conns[id] {
                        let _ = conn.writer.shutdown(Shutdown::Both);
                    }
                }
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
            self.kill(id);
            return false;
        }
        if let Some(t) = &self.tel {
            t.bytes.down(kind, payload.len());
        }
        true
    }

    /// A welcomed connection's event, recorded on receipt and put in the
    /// machine's terms; `None` for a connection never welcomed (the last
    /// words of one turned away).
    fn welcomed(&self, conn: usize, event: ReaderEvent) -> Option<(usize, Heard)> {
        let id = self.client_of[conn];
        if id == usize::MAX {
            return None;
        }
        if let Some(t) = &self.tel {
            t.reader_event(&event);
        }
        let heard = match event {
            ReaderEvent::Msg(env, payload) => Heard::Msg(env, payload),
            _ => Heard::Gone,
        };
        Some((id, heard))
    }

    /// The round's one wait: polls the machine at the clock's reading,
    /// carries out its effects, and otherwise waits for one reader event
    /// until the machine's deadline. Returns [`Verdict::Paid`],
    /// [`Verdict::Lost`] or, once no slot owes anything,
    /// [`Verdict::Idle`].
    fn settle(&mut self) -> Verdict<Instant> {
        let mut heard = None;
        loop {
            let now = Instant::now();
            let verdict = self.slots.poll(now, heard.take());
            self.apply();
            let Verdict::Wait(deadline) = verdict else {
                return verdict;
            };
            let timeout = deadline.saturating_duration_since(now);
            heard = match self.rx.recv_timeout(timeout) {
                Ok((conn, event)) => self.welcomed(conn, event),
                Err(_) => None,
            };
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
        let mut now = Instant::now();
        let deadline = now + self.net.hello_timeout;
        // Accepted connections yet to be welcomed, by connection number.
        let mut lobby: Vec<Option<Conn>> = Vec::new();
        let mut connected = 0usize;
        while connected < self.net.clients && now < deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    lobby.push(open(stream, lobby.len(), &self.net, stall_ticks, tx));
                    self.client_of.push(usize::MAX);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Ok((conn, event)) = self.rx.recv_timeout(Duration::from_millis(2)) {
                        let welcomed = self.introduce(now, conn, event, &mut lobby, welcome);
                        connected += usize::from(welcomed);
                    }
                }
                Err(e) => return Err(ProtoError::Io(e).into()),
            }
            now = Instant::now();
        }
        // HELLOs already read still get their answer.
        while let Ok((conn, event)) = self.rx.try_recv() {
            connected += usize::from(self.introduce(now, conn, event, &mut lobby, welcome));
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

    /// Handles one reader event of the handshake phase, read at `now`;
    /// returns whether it welcomed a client.
    fn introduce(
        &mut self,
        now: Instant,
        conn: usize,
        event: ReaderEvent,
        lobby: &mut [Option<Conn>],
        welcome: &[u8; 8],
    ) -> bool {
        if self.client_of[conn] != usize::MAX {
            // A client spoke (or hung up) before any INVITE: no slot owes
            // it anything, so the machine kills it as it would mid-round.
            let heard = self.welcomed(conn, event);
            self.slots.poll(now, heard);
            self.apply();
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
        self.slots.welcome(id);
        if let Some(t) = &self.tel {
            t.bytes.up(MsgKind::Hello, HELLO_BYTES);
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
        self.slots.alive(id)
    }

    fn invite(&mut self, round: u32, invited: &[(usize, Group)], broadcast: &Broadcast<'_>) {
        self.slots.invite(round, invited.iter().map(|&(id, _)| id));
        for &(id, group) in invited {
            if self.slots.alive(id) {
                let mut buf = std::mem::take(&mut self.invite_buf);
                buf.clear();
                buf.push(u8::from(group == Group::Sticky));
                buf.extend_from_slice(broadcast.frames);
                self.send(round, id, MsgKind::Invite, &buf);
                self.invite_buf = buf;
            }
        }
    }

    fn offers(&mut self, _round: u32, offers: &mut [Option<u64>]) {
        self.slots.arm_offers(Instant::now());
        loop {
            match self.settle() {
                // The machine takes only an offer that parses; the engine
                // reads its wire price.
                Verdict::Paid(i, payload) => offers[i] = parse_offer(&payload).map(|p| p.1),
                Verdict::Lost(_) => {}
                Verdict::Wait(_) | Verdict::Idle => return,
            }
        }
    }

    fn grant(&mut self, round: u32, kept: &[usize]) {
        // Every invited client still alive has offered: the offer wait
        // kills any that did not.
        self.slots.arm_uploads(Instant::now(), kept);
        for i in 0..self.slots.invited().len() {
            let id = self.slots.invited()[i];
            if !self.slots.alive(id) {
                continue;
            }
            let granted = self.slots.granted(i);
            if self.send(round, id, MsgKind::Grant, &[u8::from(granted)]) && granted {
                if let Some(t) = &self.tel {
                    t.offers_granted.inc();
                }
            }
        }
    }

    fn uploads(&mut self, _round: u32, sink: &dyn UploadSink) {
        loop {
            match self.settle() {
                // The reader thread's buffer is the payload: nothing is
                // copied, and no buffer of the engine's is taken.
                Verdict::Paid(i, body) => sink.deliver(Arrival::Delivered(i), body),
                Verdict::Lost(i) => {
                    // The skip counter fires here and in `rejected` —
                    // once per skipped upload.
                    if let Some(t) = &self.tel {
                        t.skips.inc();
                    }
                    sink.deliver(Arrival::Lost(i), Vec::new());
                }
                Verdict::Wait(_) | Verdict::Idle => return,
            }
        }
    }

    fn rejected(&mut self, _round: u32, slot: usize, err: &WireError) {
        if let Some(t) = &self.tel {
            let kind = [("kind", err.stat_name())];
            t.hub
                .counter("gluefl_server_decode_errors_total", &kind)
                .inc();
            t.skips.inc();
        }
        self.kill(self.slots.invited()[slot]);
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
    /// The socket is std's [`TcpListener::bind`], which listens with a
    /// backlog of 128 pending connections. Connects past the backlog are
    /// not accepted at once: more than 128 clients connecting at the same
    /// instant leaves the rest to join on their SYN retry, about a second
    /// later, so a larger fleet should start its clients in staggered
    /// waves of at most 128.
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
        self.run_with(|engine, io| engine.step(io))
    }

    /// [`Server::run`], each round played by `step` on the socket IO.
    pub(crate) fn run_with(
        self,
        mut step: impl FnMut(&mut RoundEngine, &mut dyn RoundIo) -> RoundRecord,
    ) -> Result<ServerReport, TransportError> {
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
        let floors = [net.offer_timeout, net.upload_timeout];
        let mut io = SocketIo {
            conns: (0..net.clients).map(|_| None).collect(),
            slots: Slots::new(ids, floors),
            net,
            tel,
            rx,
            client_of: Vec::new(),
            turned_away: Vec::new(),
            invite_buf: Vec::new(),
        };
        io.admit(&listener, &tx, &welcome, stall_ticks)?;
        // Only reader threads hold senders from here on.
        drop(tx);

        let records: Vec<RoundRecord> = (0..rounds).map(|_| step(&mut engine, &mut io)).collect();

        // --- FIN + teardown. ---
        for (id, conn) in io.conns.iter_mut().enumerate() {
            if let Some(conn) = conn {
                if io.slots.alive(id)
                    && write_msg(&mut conn.writer, MsgKind::Fin, rounds, &[]).is_ok()
                {
                    if let Some(t) = &io.tel {
                        t.bytes.down(MsgKind::Fin, 0);
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
            dead_clients: io.slots.dead_clients(),
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
