//! The socket driver: `Server::run` on one thread and ONE generator
//! thread (the caller) that owns every `ClientNode` and its `TcpStream`
//! over loopback.
//!
//! The loop is closed — one round is in flight, and a client's next
//! message is sent only in reply to the server's — and uses two busy
//! threads, which is this box's `nproc`. The generator polls its
//! sockets with a non-blocking `peek`; a ready socket is switched to
//! blocking, one whole message is read with `read_msg_blocking`, the
//! client node acts on it, and the reply is written before the next
//! socket is looked at. All 280 connections stay open for the run (the
//! protocol's one slot per client), at most 39 are active per round.

use crate::pass::{Pass, Tracing};
use crate::procfs;
use crate::trace::Tracer;
use gluefl_core::SimConfig;
use gluefl_transport::proto::{read_msg_blocking, write_msg, MsgKind, PROTO_VERSION};
use gluefl_transport::{ClientNode, Server, ServerConfig};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Clients whose handshake is in flight at once: enough to keep the
/// server's accept loop busy, far below any listen backlog.
const HANDSHAKE_WINDOW: usize = 32;

/// What the generator's side of the sockets measured.
#[derive(Debug, Default)]
pub struct SocketStats {
    /// Bytes read from the sockets in the round loop, envelopes included.
    pub down_bytes: u64,
    /// Bytes written to the sockets in the round loop.
    pub up_bytes: u64,
    /// Messages read plus written in the round loop.
    pub msgs: u64,
    /// `INVITE` messages read, and their total bytes.
    pub invites: u64,
    pub invite_bytes: u64,
    /// `UPLOAD` messages written, and their total bytes.
    pub uploads: u64,
    pub upload_bytes: u64,
    /// `ServerReport::skipped_uploads` / `dead_clients`.
    pub skipped_uploads: usize,
    pub dead_clients: usize,
    /// Per-client `ClientNode::new` milliseconds.
    pub client_new_ms: Vec<f64>,
    /// Per-client connect + `HELLO` write + `WELCOME` read milliseconds.
    pub handshake_ms: Vec<f64>,
}

/// Counts the bytes that actually cross a socket, whatever the framing
/// layer above does with them.
struct Counted<'a> {
    stream: &'a TcpStream,
    bytes: &'a mut u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Runs one socket pass of `cfg`.
///
/// # Errors
/// A message when the handshake, a socket or the server fails; the
/// server thread is always joined first.
pub fn run_pass(cfg: &SimConfig, tracing: Option<Tracing<'_>>) -> Result<Pass, String> {
    let setup_start = Instant::now();
    let (hub, tracer) = tracing.map_or((None, None), |t| (Some(t.hub), Some(t.tracer)));
    let clients = cfg.dataset.clients;
    let mut net = ServerConfig::local(clients);
    // Idle reader threads wake on this tick; 280 of them at the 50 ms
    // default would be a steady background load on a 2-core box.
    net.read_tick = Duration::from_millis(200);
    net.telemetry = hub;
    let server = Server::bind(cfg.clone(), net).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let generated = generate(cfg, addr, setup_start, tracer);
    // Dropping the generator's sockets (on error) closes every
    // connection, so the server finishes its rounds with nobody left and
    // the join cannot hang.
    let report = server_thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("server: {e}"));
    let mut generated = generated?;
    let report = report?;

    generated.stats.skipped_uploads = report.skipped_uploads;
    generated.stats.dead_clients = report.dead_clients;
    Ok(Pass {
        setup_s: generated.setup_s,
        round_ms: generated.round_ms,
        records: report.records,
        params_fnv: report.final_params_fnv,
        cpu_ms: generated.cpu_ms,
        socket: Some(generated.stats),
    })
}

struct Generated {
    setup_s: f64,
    round_ms: Vec<f64>,
    cpu_ms: f64,
    stats: SocketStats,
}

/// In a traced pass, records the call that ran from `*at` to now as a
/// child of the round span, and moves `*at` to now.
fn mark(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    at: &mut Instant,
    parent: Option<usize>,
    round: u32,
) {
    if let Some(t) = tracer.as_deref_mut() {
        let now = Instant::now();
        t.push(name, t.ns_at(*at), t.ns_at(now), parent, round);
        *at = now;
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The generator: connects every client, then serves messages until
/// every connection has seen `FIN`.
fn generate(
    cfg: &SimConfig,
    addr: std::net::SocketAddr,
    setup_start: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Result<Generated, String> {
    let clients = cfg.dataset.clients;
    let rounds = cfg.rounds as usize;
    let mut stats = SocketStats::default();
    let mut nodes: Vec<ClientNode> = Vec::with_capacity(clients);
    let mut streams: Vec<TcpStream> = Vec::with_capacity(clients);
    let mut payload = Vec::new();

    // --- Set-up: ClientNode::new + connect + HELLO/WELCOME, windowed. ---
    for window_start in (0..clients).step_by(HANDSHAKE_WINDOW) {
        let window = window_start..(window_start + HANDSHAKE_WINDOW).min(clients);
        for id in window.clone() {
            let t = Instant::now();
            nodes.push(ClientNode::new(cfg.clone(), id));
            stats.client_new_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
            stream.set_nodelay(true).map_err(io_err("nodelay"))?;
            let mut hello = [0u8; 8];
            hello[..4].copy_from_slice(&PROTO_VERSION.to_le_bytes());
            let id32 = u32::try_from(id).map_err(|_| "client id exceeds u32".to_owned())?;
            hello[4..].copy_from_slice(&id32.to_le_bytes());
            write_msg(&mut &stream, MsgKind::Hello, 0, &hello)
                .map_err(|e| format!("HELLO {id}: {e}"))?;
            stats.handshake_ms.push(t.elapsed().as_secs_f64() * 1e3);
            streams.push(stream);
        }
        for id in window {
            let t = Instant::now();
            let env = read_msg_blocking(&mut &streams[id], &mut payload)
                .map_err(|e| format!("WELCOME {id}: {e}"))?;
            if env.kind != MsgKind::Welcome {
                return Err(format!("client {id}: expected WELCOME, got {:?}", env.kind));
            }
            stats.handshake_ms[id] += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    for stream in &streams {
        stream
            .set_nonblocking(true)
            .map_err(io_err("set_nonblocking"))?;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    // --- Round loop. ---
    // A round runs from its first INVITE to the next round's first
    // INVITE (the last: to the first FIN), stamped here as the message
    // is first seen.
    let mut round_start: Vec<Option<Instant>> = vec![None; rounds];
    let mut round_span: Vec<Option<usize>> = vec![None; rounds];
    let mut first_fin: Option<Instant> = None;
    let mut cpu_start = f64::NAN;
    let mut cpu_end = f64::NAN;
    let mut done = vec![false; clients];
    let mut remaining = clients;
    let mut upload = Vec::new();
    let mut probe = [0u8; 1];
    while remaining > 0 {
        let mut progressed = false;
        for id in 0..clients {
            if done[id] {
                continue;
            }
            let stream = &streams[id];
            match stream.peek(&mut probe) {
                Ok(0) => return Err(format!("client {id}: server closed before FIN")),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(format!("client {id}: peek: {e}")),
            }
            progressed = true;
            stream
                .set_nonblocking(false)
                .map_err(io_err("set_blocking"))?;

            let seen = Instant::now();
            let down_before = stats.down_bytes;
            let env = read_msg_blocking(
                &mut Counted {
                    stream,
                    bytes: &mut stats.down_bytes,
                },
                &mut payload,
            )
            .map_err(|e| format!("client {id}: read: {e}"))?;
            stats.msgs += 1;
            let r = env.round as usize;
            // Call spans chain from `at`: each `mark` closes the call
            // that just returned and starts the next one.
            let mut at = seen;
            match env.kind {
                MsgKind::Invite if r < rounds => {
                    if round_start[r].is_none() {
                        round_start[r] = Some(seen);
                        if r == 0 {
                            cpu_start = procfs::cpu_ms();
                        }
                        if r + 1 == rounds {
                            cpu_end = procfs::cpu_ms();
                        }
                        if let Some(t) = tracer.as_deref_mut() {
                            let seen_ns = t.ns_at(seen);
                            if let Some(prev) = r.checked_sub(1).and_then(|p| round_span[p]) {
                                t.close(prev, seen_ns);
                            }
                            round_span[r] = Some(t.open("round", seen_ns, env.round));
                        }
                    }
                    stats.invites += 1;
                    stats.invite_bytes += stats.down_bytes - down_before;
                    let parent = round_span[r];
                    mark(&mut tracer, "invite_read", &mut at, parent, env.round);
                    let (analytic, wire) = nodes[id]
                        .handle_invite(env.round, &payload)
                        .map_err(|e| format!("client {id}: handle_invite: {e}"))?;
                    mark(&mut tracer, "handle_invite", &mut at, parent, env.round);
                    let mut offer = [0u8; 16];
                    offer[..8].copy_from_slice(&analytic.to_le_bytes());
                    offer[8..].copy_from_slice(&wire.to_le_bytes());
                    write_msg(
                        &mut Counted {
                            stream,
                            bytes: &mut stats.up_bytes,
                        },
                        MsgKind::Offer,
                        env.round,
                        &offer,
                    )
                    .map_err(|e| format!("client {id}: OFFER: {e}"))?;
                    stats.msgs += 1;
                    mark(&mut tracer, "offer_write", &mut at, parent, env.round);
                }
                MsgKind::Grant if r < rounds => {
                    let parent = round_span[r];
                    mark(&mut tracer, "grant_read", &mut at, parent, env.round);
                    if payload.first() == Some(&1) {
                        upload.clear();
                        nodes[id]
                            .encode_granted(env.round, &mut upload)
                            .map_err(|e| format!("client {id}: encode_granted: {e}"))?;
                        mark(&mut tracer, "encode_granted", &mut at, parent, env.round);
                        let up_before = stats.up_bytes;
                        write_msg(
                            &mut Counted {
                                stream,
                                bytes: &mut stats.up_bytes,
                            },
                            MsgKind::Upload,
                            env.round,
                            &upload,
                        )
                        .map_err(|e| format!("client {id}: UPLOAD: {e}"))?;
                        stats.msgs += 1;
                        stats.uploads += 1;
                        stats.upload_bytes += stats.up_bytes - up_before;
                        mark(&mut tracer, "upload_write", &mut at, parent, env.round);
                    } else {
                        nodes[id].discard_pending();
                    }
                }
                MsgKind::Fin => {
                    if first_fin.is_none() {
                        first_fin = Some(seen);
                        if let Some(t) = tracer.as_deref_mut() {
                            if let Some(last) = rounds.checked_sub(1).and_then(|p| round_span[p]) {
                                let seen_ns = t.ns_at(seen);
                                t.close(last, seen_ns);
                            }
                        }
                    }
                    done[id] = true;
                    remaining -= 1;
                    // The server shuts this socket down after FIN; it is
                    // never polled again.
                    continue;
                }
                other => return Err(format!("client {id}: unexpected {other:?}")),
            }
            stream
                .set_nonblocking(true)
                .map_err(io_err("set_nonblocking"))?;
        }
        if !progressed {
            // Nothing to read: the server is folding. Give its threads
            // the core instead of spinning through 280 peeks.
            std::thread::yield_now();
        }
    }

    let mut round_ms = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let start = round_start[r].ok_or_else(|| format!("round {r} never sent an INVITE"))?;
        let end = match round_start.get(r + 1) {
            Some(next) => next.ok_or_else(|| format!("round {} never sent an INVITE", r + 1))?,
            None => first_fin.ok_or_else(|| "no FIN seen".to_owned())?,
        };
        round_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
    }
    Ok(Generated {
        setup_s,
        round_ms,
        cpu_ms: cpu_end - cpu_start,
        stats,
    })
}
