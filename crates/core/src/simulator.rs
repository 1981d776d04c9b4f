//! The in-process driver: the round engine over simulated clients.
//!
//! A [`Simulation`] is a [`RoundEngine`] plus an in-process
//! [`RoundIo`] — all `N` clients live in this address space and share
//! one [`ClientCompressor`] (its residual bank is keyed by client id).
//! The round itself — plan, broadcast, keep-fastest, streaming fold,
//! apply, BN-statistic mean, staleness, rebalance, eval — is sequenced
//! by the engine ([`crate::engine`]); this module supplies what clients
//! do:
//!
//! * every invitation is priced from the broadcast alone
//!   ([`ClientCompressor::shape_offer`]: FedAvg's `dim` values, APF's
//!   values under the broadcast mask, STC's and GlueFL's top-k counts in
//!   the legacy layout under the run's codec — exact under the legacy
//!   layout menu, an upper bound under the entropy menu), so `offers`
//!   hands the engine that one nominal price for everyone, and only the
//!   kept clients take their turns, from a copy of the broadcast weights
//!   held since `invite`. A dismissed client runs no turn, so it leaves
//!   no trace: each turn's RNG comes from `(seed, round, client)`, and
//!   its residual is banked only by its turn;
//! * `grant` stages the kept turns on the calling thread — residual
//!   check-outs, shard admits, and every buffer that outlives the round
//!   — and `uploads` runs them as a stream into the engine's fold. Each
//!   worker of the vendored [`gluefl_pool`] (as many as
//!   [`gluefl_pool::threads`]) claims turns one at a time in fold order
//!   (ascending client id), each with a payload buffer from the engine's
//!   sink, and takes the whole turn: it fills the rows of the client's
//!   shard that its minibatches will read and that are not filled yet
//!   ([`ClientTurn::fill_rows`] — the rows follow from the turn's seed,
//!   so about 5 % of a wide-shape shard is synthesised, not all of it),
//!   trains `E` local SGD steps from the broadcast weights
//!   ([`train_client_into`]), compresses the delta in place with the
//!   client half ([`ClientTurn::run`]) and serializes the upload
//!   ([`StagedTurn::encode`]). A finished turn goes to the engine as
//!   soon as every lower one has, so the engine never parks an
//!   in-process upload, and the round holds a payload buffer per turn
//!   in flight rather than one per kept client. One client's whole
//!   training state stays cache-resident in the worker's pooled
//!   [`TrainSlot`], each step touches each weight once, and a turn
//!   allocates nothing in steady state. The delta's buffer is the
//!   worker's, lent to each turn and handed back, not copied: compression
//!   returns the client's previous residual in its place, or the dense
//!   upload's buffer after the encode. Only a client's first turn under
//!   error feedback trains into a buffer of its own, staged at `grant`,
//!   which becomes its residual. The residuals go back in the bank once
//!   the pool joins. A client's compress and encode read only its own
//!   delta, its own residual and the round mask, and its RNG is derived
//!   from `(seed, round, client)`, so results do not depend on the worker
//!   count or on which worker claims which turn;
//! * a shard, once built, is kept with the rows it has filled: once a
//!   round is over at most `S` shards stay, those whose clients took a
//!   turn most recently, and a later turn fills only the rows it reads
//!   that no earlier turn did. `S` is the sticky group's size (0 without
//!   one), because the sticky group is who the sampler invites again —
//!   about 70 % of a paper-shape round's invitations find their shard
//!   resident — while a cache of the whole population would cost memory
//!   for clients drawn once in `N/K` rounds. A shard's rows are a pure
//!   function of `(seed, client)` ([`SyntheticFlDataset::fill_rows`]), so
//!   neither residency, nor which rows are filled, nor which worker fills
//!   them changes a bit.

use crate::client::{ClientCompressor, MissingRoundMask, RunSetup, StagedTurn};
use crate::config::{SimConfig, StrategyConfig};
use crate::engine::{Arrival, Broadcast, RoundEngine, RoundIo, UploadSink};
use crate::metrics::{RoundRecord, RunResult};
use crate::scratch::{ScratchPool, TrainSlot};
use crate::staleness::StalenessTracker;
use crate::strategies::Group;
use gluefl_data::{batch_rows, ClientDataset, SyntheticFlDataset};
use gluefl_ml::{BatchTrainScratch, Mlp, MlpTopology};
use gluefl_sampling::ClientId;
use gluefl_telemetry::{Counter, Histogram, Phase, Telemetry};
use gluefl_tensor::rng::derive_seed;
use gluefl_tensor::{vecops, BitMask};
use gluefl_wire::WireError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A configured, running federated-learning simulation.
#[derive(Debug)]
pub struct Simulation {
    engine: RoundEngine,
    clients: InProcessClients,
}

impl Simulation {
    /// Builds a simulation from a config; all state (data, weights, links,
    /// speeds, masks) derives deterministically from `cfg.seed`.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let setup = RunSetup::new(&cfg);
        let clients = InProcessClients::new(&cfg, &setup);
        Self {
            engine: RoundEngine::new(cfg, setup),
            clients,
        }
    }

    /// Attaches a telemetry recorder: every subsequent [`Simulation::step`]
    /// measures its phases into [`RoundRecord::phase_nanos`], records
    /// them on the recorder's per-phase span table. Without a recorder
    /// all of that is skipped and the measured fields stay zero.
    pub fn set_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.clients.tel = Some(ClientRecorder {
            update_norm_milli: tel.histogram("gluefl_client_update_norm_milli", &[]),
            shards_built: tel.counter("gluefl_client_shards_built_total", &[]),
            shards_reused: tel.counter("gluefl_client_shards_reused_total", &[]),
            rows_filled: tel.counter("gluefl_client_rows_filled_total", &[]),
            hub: Arc::clone(&tel),
        });
        self.engine.set_telemetry(tel);
    }

    /// Builder-style [`Simulation::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, tel: Arc<Telemetry>) -> Self {
        self.set_telemetry(tel);
        self
    }

    /// The attached recorder, if any.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.engine.telemetry()
    }

    /// The simulation config.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        self.engine.config()
    }

    /// The current global model.
    #[must_use]
    pub fn model(&self) -> &Mlp {
        self.engine.model()
    }

    /// The dataset in use.
    #[must_use]
    pub fn data(&self) -> &SyntheticFlDataset {
        self.engine.data()
    }

    /// The strategy's display name.
    #[must_use]
    pub fn strategy_name(&self) -> String {
        self.engine.strategy_name()
    }

    /// The staleness tracker (position change history + client versions).
    ///
    /// Experiments use this to answer "how much would a client that
    /// skipped `r` rounds have to download?" (Figure 2b).
    #[must_use]
    pub fn staleness(&self) -> &StalenessTracker {
        self.engine.staleness()
    }

    /// Runs all configured rounds and returns the collected results.
    pub fn run(&mut self) -> RunResult {
        let cfg = self.engine.config();
        let (rounds, target) = (cfg.rounds, cfg.target_accuracy);
        let records = (0..rounds).map(|_| self.step()).collect();
        RunResult::from_rounds(self.engine.strategy_name(), records, target)
    }

    /// Executes one round and returns its record.
    pub fn step(&mut self) -> RoundRecord {
        self.engine.step(&mut self.clients)
    }
}

/// The client-side recorder: the hub for training spans plus the
/// pre-registered per-client instruments.
struct ClientRecorder {
    hub: Arc<Telemetry>,
    /// Per-client update ℓ2 norm, in thousandths (the per-client
    /// statistic Optimal Client Sampling–style importance sampling
    /// needs each round).
    update_norm_milli: Histogram,
    /// Turns whose shard was not resident (new storage), and those that
    /// found it resident: together the shard cache's hit rate.
    shards_built: Counter,
    shards_reused: Counter,
    /// Feature rows synthesised: the shard rows turns filled.
    rows_filled: Counter,
}

/// A resident client shard, with the rows it has filled, and the last
/// round its client took a turn.
struct Resident {
    id: ClientId,
    last: u32,
    shard: ClientDataset,
}

/// Client shards kept between turns, `S` of them once a round is over
/// (see the module docs for why the bound is the sticky group). Shards
/// of the current round's turns are never evicted, and once `S` are
/// resident each miss first evicts a stale one, so at most
/// `max(S, turns)` are resident during a round. An evicted shard is
/// dropped rather than rebuilt in place: the allocator's best fit over
/// every free block places a new shard more tightly than the evicted
/// shard's buffers, which fit the next client only by chance.
struct ShardCache {
    /// `S`: shards left resident by [`ShardCache::trim`].
    capacity: usize,
    resident: Vec<Resident>,
    /// Shards resident when the last round's turns were over, before
    /// [`ShardCache::trim`]: the most resident at once during that round.
    #[cfg(test)]
    untrimmed: usize,
}

impl ShardCache {
    /// Readies the cache for the clients `ids` (distinct) taking their
    /// turns in `round`: marks their resident shards used again, and makes
    /// room for the missing ones, which are [`put`](Self::put) in once the
    /// turns have filled them. Returns how many shards were missing.
    fn admit(&mut self, round: u32, ids: &[ClientId]) -> usize {
        // Hits first, so no miss evicts a shard used this round.
        for r in &mut self.resident {
            if ids.contains(&r.id) {
                r.last = round;
            }
        }
        let mut misses = 0;
        for &id in ids {
            if self.get(id).is_some() {
                continue;
            }
            if self.resident.len() + misses >= self.capacity {
                self.evict_stale(round);
            }
            misses += 1;
        }
        misses
    }

    /// Drops the least recently used shard not used in `round`, if there
    /// is one.
    fn evict_stale(&mut self, round: u32) {
        let stale = self
            .resident
            .iter()
            .enumerate()
            .filter(|(_, r)| r.last != round)
            .min_by_key(|(_, r)| r.last);
        if let Some((i, _)) = stale {
            self.resident.swap_remove(i);
        }
    }

    /// Client `id`'s resident shard, if it is resident.
    fn get(&self, id: ClientId) -> Option<&ClientDataset> {
        let r = self.resident.iter().find(|r| r.id == id);
        r.map(|r| &r.shard)
    }

    /// Client `id`'s resident shard, taken out for a turn to fill and
    /// train on (an empty placeholder holds its place until
    /// [`put`](Self::put) returns it), or `None` if it is not resident.
    fn take(&mut self, id: ClientId) -> Option<ClientDataset> {
        let r = self.resident.iter_mut().find(|r| r.id == id);
        r.map(|r| std::mem::take(&mut r.shard))
    }

    /// Makes `shard`, client `id`'s as filled in `round`, resident: back
    /// in the place [`take`](Self::take) left, or new.
    fn put(&mut self, id: ClientId, round: u32, shard: ClientDataset) {
        match self.resident.iter_mut().find(|r| r.id == id) {
            Some(r) => r.shard = shard,
            None => self.resident.push(Resident {
                id,
                last: round,
                shard,
            }),
        }
    }

    /// Evicts the least recently used shards down to `S`.
    fn trim(&mut self) {
        #[cfg(test)]
        {
            self.untrimmed = self.resident.len();
        }
        if self.resident.len() > self.capacity {
            self.resident.sort_by_key(|r| std::cmp::Reverse(r.last));
            self.resident.truncate(self.capacity);
        }
    }
}

/// The in-process [`RoundIo`]: every client of the population, simulated
/// here. Holds the round's kept turns ([`StagedTurn`]s, in fold order)
/// between the engine's steps, one worker state per pool worker, and the
/// shards of the clients that most recently took a turn (at most the
/// sticky group's size `S` between rounds). Public so a test can wrap it
/// and script what the engine gets to see.
pub struct InProcessClients {
    cfg: SimConfig,
    data: Arc<SyntheticFlDataset>,
    topo: MlpTopology,
    /// Flat indices of BN-statistic positions.
    stats_positions: Vec<usize>,
    cache: ShardCache,
    compressor: ClientCompressor,
    /// One per pool worker: its scratch pool and the buffers it lends
    /// each turn it claims.
    workers: Vec<Worker>,
    /// The round's invitation list and broadcast mask.
    invited: Vec<(ClientId, Group)>,
    round_mask: Option<BitMask>,
    /// The broadcast weights, held from `invite` for the kept clients'
    /// turns.
    global: Vec<f32>,
    /// The round's kept invitation indices in fold order (ascending
    /// client id); turn `t` is `kept[t]`'s.
    kept: Vec<usize>,
    /// The round's turns, `turns[t]` kept client `t`'s, and past them
    /// the turns of earlier rounds, whose buffers the next ones reuse.
    turns: Vec<StagedTurn>,
    /// The round's shards, `shards[t]` kept client `t`'s, from `grant`
    /// until they go back in the cache.
    shards: Vec<ClientDataset>,
    tel: Option<ClientRecorder>,
    /// Pool workers per round (fewer when fewer turns are taken).
    threads: usize,
}

/// One pool worker's state: its [`ScratchPool`] (training slot,
/// selection and upload arenas) and the delta and BN-statistic buffers it
/// lends each turn it claims. A turn hands back a delta buffer of the
/// model's length — the dense upload's, the client's previous residual,
/// or the delta itself — so the worker keeps one however many turns it
/// takes; only a client's first turn under error feedback trains into a
/// buffer of its own, staged at the grant, which becomes its residual.
#[derive(Default)]
struct Worker {
    scratch: ScratchPool,
    delta: Vec<f32>,
    stats: Vec<f32>,
}

impl Worker {
    /// Runs turn `staged` of client `id` on `shard`: fills the rows the
    /// turn reads, lends the turn the worker's buffers (the delta buffer
    /// unless the turn holds one), trains, compresses and encodes into
    /// `payload`, and takes the buffers back.
    fn take_turn(
        &mut self,
        turn: &ClientTurn<'_>,
        data: &SyntheticFlDataset,
        (id, group): (ClientId, Group),
        staged: &mut StagedTurn,
        shard: &mut ClientDataset,
        payload: &mut Vec<u8>,
    ) -> usize {
        let filled = turn.fill_rows(data, id, shard);
        let dim = turn.global.len();
        if staged.delta.len() != dim {
            std::mem::swap(&mut staged.delta, &mut self.delta);
        }
        std::mem::swap(&mut staged.stats, &mut self.stats);
        turn.run(group, shard, staged, &mut self.scratch)
            .expect("the engine broadcasts the mask of every masking strategy");
        let _ = staged.encode(turn.compressor, turn.round_mask, payload, &mut self.scratch);
        std::mem::swap(&mut staged.stats, &mut self.stats);
        if staged.delta.len() == dim {
            self.delta = std::mem::take(&mut staged.delta);
        }
        filled
    }
}

/// Hands a round's finished turns to the engine strictly in fold order:
/// a turn that finishes ahead of a lower one waits here with its payload
/// until every lower turn has gone. If a worker panics, the turns waiting
/// here give their buffers back and no worker claims another turn, so a
/// worker waiting for a buffer gets one and the pool can join.
struct InOrder<'a> {
    sink: &'a dyn UploadSink,
    /// Invitation index of each turn, in fold order.
    kept: &'a [usize],
    /// Turns claimed so far (the next one to claim).
    claimed: AtomicUsize,
    aborted: AtomicBool,
    waiting: Mutex<Waiting>,
}

struct Waiting {
    /// Finished turns' payloads, by turn.
    done: Vec<Option<Vec<u8>>>,
    /// Turns handed to the engine so far.
    sent: usize,
}

impl<'a> InOrder<'a> {
    fn new(sink: &'a dyn UploadSink, kept: &'a [usize]) -> Self {
        let waiting = Waiting {
            done: vec![None; kept.len()],
            sent: 0,
        };
        Self {
            sink,
            kept,
            claimed: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            waiting: Mutex::new(waiting),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Waiting> {
        self.waiting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next turn with a payload buffer to encode it into, or
    /// `None` once every turn is claimed. The buffer is taken before the
    /// turn is: every claimed turn holds one, so the lowest unfinished
    /// turn can always finish and be sent, and the buffers held by the
    /// turns waiting behind it come back.
    fn claim(&self) -> Option<(usize, Vec<u8>)> {
        if self.claimed.load(Ordering::Relaxed) >= self.kept.len() {
            return None;
        }
        let payload = self.sink.buffer();
        let t = self.claimed.fetch_add(1, Ordering::Relaxed);
        if t >= self.kept.len() || self.aborted.load(Ordering::Relaxed) {
            self.sink.recycle(payload);
            return None;
        }
        Some((t, payload))
    }

    /// Turn `t` is encoded in `payload`: sends it, and every finished
    /// turn after it in an unbroken run, or leaves it waiting for a lower
    /// one.
    fn finish(&self, t: usize, payload: Vec<u8>) {
        let mut waiting = self.lock();
        if self.aborted.load(Ordering::Relaxed) {
            self.sink.recycle(payload);
            return;
        }
        let Waiting { done, sent } = &mut *waiting;
        done[t] = Some(payload);
        while let Some(payload) = done.get_mut(*sent).and_then(Option::take) {
            self.sink
                .deliver(Arrival::Delivered(self.kept[*sent]), payload);
            *sent += 1;
        }
    }
}

/// Aborts an [`InOrder`] stream if its worker unwinds.
struct AbortOnPanic<'s, 'a>(&'s InOrder<'a>);

impl Drop for AbortOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let stream = self.0;
            let mut waiting = stream.lock();
            stream.aborted.store(true, Ordering::Relaxed);
            for payload in waiting.done.iter_mut().filter_map(Option::take) {
                stream.sink.recycle(payload);
            }
        }
    }
}

impl std::fmt::Debug for InProcessClients {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessClients")
            .field("clients", &self.data.num_clients())
            .finish_non_exhaustive()
    }
}

impl RoundIo for InProcessClients {
    fn reachable(&self, _id: ClientId) -> bool {
        true
    }

    fn invite(&mut self, _round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>) {
        self.invited.clear();
        self.invited.extend_from_slice(invited);
        match (broadcast.mask, &mut self.round_mask) {
            (Some(mask), Some(own)) => own.copy_from(mask),
            (mask, own) => *own = mask.cloned(),
        }
        self.global.clear();
        self.global.extend_from_slice(broadcast.params);
    }

    fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
        let price = self
            .compressor
            .shape_offer(round, self.round_mask.as_ref(), self.stats_positions.len())
            .expect("the engine broadcasts the mask of every masking strategy");
        offers.fill(Some(price.1));
    }

    fn grant(&mut self, round: u32, kept: &[usize]) {
        // Taken and delivered in ascending client id, the order the
        // engine's gate folds in: it never has to park an upload.
        self.kept.clear();
        self.kept.extend_from_slice(kept);
        let invited = &self.invited;
        self.kept.sort_unstable_by_key(|&i| invited[i].0);
        self.stage_turns(round);
    }

    fn uploads(&mut self, round: u32, sink: &dyn UploadSink) {
        let global = std::mem::take(&mut self.global);
        self.take_turns(round, &global, sink);
        self.global = global;
    }

    fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
        unreachable!("round {round}: in-process upload {slot} failed its own round trip: {err}")
    }
}

impl InProcessClients {
    /// The clients of `cfg`'s run, over the dataset and layout in `setup`.
    #[must_use]
    pub fn new(cfg: &SimConfig, setup: &RunSetup) -> Self {
        let sticky_group = match &cfg.strategy {
            StrategyConfig::GlueFl(p) => p.sticky_group,
            _ => 0,
        };
        Self {
            cfg: cfg.clone(),
            data: Arc::clone(&setup.data),
            topo: setup.topology.clone(),
            stats_positions: setup.stats_positions.clone(),
            cache: ShardCache {
                capacity: sticky_group,
                resident: Vec::new(),
                #[cfg(test)]
                untrimmed: 0,
            },
            compressor: ClientCompressor::for_run(cfg, setup),
            workers: Vec::new(),
            invited: Vec::new(),
            round_mask: None,
            global: Vec::new(),
            kept: Vec::new(),
            turns: Vec::new(),
            shards: Vec::new(),
            tel: None,
            threads: gluefl_pool::threads(),
        }
    }

    /// Client `id`'s banked error-feedback residual and the weight it was
    /// stored at — `None` before its first kept turn and always for a
    /// strategy without error feedback.
    #[must_use]
    pub fn stored(&self, id: ClientId) -> Option<(&[f32], f64)> {
        self.compressor.stored(id)
    }

    /// Pool workers for a round of `turns` turns.
    fn workers_for(&self, turns: usize) -> usize {
        self.threads.min(turns).max(1)
    }

    /// Stages the kept turns (`self.kept`) on the calling thread: checks
    /// each client's residual out, takes its shard out of the cache (or
    /// new storage for a miss), and allocates every buffer that outlives
    /// the round — a first-time client's residual-to-be, the workers'
    /// delta and statistics buffers. Allocated on a worker they would
    /// come from that thread's malloc arena, and every round spawns
    /// fresh workers that may draw any arena, so the shard cache and the
    /// residual bank would scatter across arenas that never shrink back.
    /// The engine invites each client at most once, so no two turns share
    /// a shard or a residual.
    fn stage_turns(&mut self, round: u32) {
        let n = self.kept.len();
        let ids: Vec<ClientId> = self.kept.iter().map(|&i| self.invited[i].0).collect();
        let misses = self.cache.admit(round, &ids);
        self.shards.clear();
        for &id in &ids {
            let shard = self.cache.take(id);
            self.shards
                .push(shard.unwrap_or_else(|| self.data.client_storage(id)));
        }
        if let Some(t) = &self.tel {
            t.shards_built.add(misses as u64);
            t.shards_reused.add((n - misses) as u64);
        }
        let dim = self.global.len();
        if self.turns.len() < n {
            self.turns.resize_with(n, StagedTurn::default);
        }
        for (turn, &id) in self.turns.iter_mut().zip(&ids) {
            if turn.hold(&mut self.compressor, round, id) && turn.delta.len() != dim {
                turn.delta = vec![0.0; dim];
            }
        }
        let workers = self.workers_for(n);
        if self.workers.len() < workers {
            self.workers.resize_with(workers, Worker::default);
        }
        for worker in &mut self.workers[..workers] {
            if worker.delta.len() != dim {
                worker.delta = vec![0.0; dim];
            }
            worker.stats.resize(self.stats_positions.len(), 0.0);
        }
    }

    /// Runs the staged turns from `global` as a stream into `sink`: every
    /// pool worker claims turns one at a time, in fold order, each with a
    /// payload buffer, and trains, compresses and encodes it
    /// ([`Worker::take_turn`]); a finished turn goes to the engine as
    /// soon as every lower one has ([`InOrder`]), so the engine folds
    /// while the workers train, and a round holds a payload buffer per
    /// turn in flight, not per kept client. Workers and their
    /// [`ScratchPool`]s are scheduling only: a turn's result depends on
    /// `(seed, round, client)` alone. Once the pool joins, the residuals
    /// are checked in and the shards go back in the cache, down to the
    /// `S` most recently used.
    fn take_turns(&mut self, round: u32, global: &[f32], sink: &dyn UploadSink) {
        let n = self.kept.len();
        let workers = self.workers_for(n);
        // Concurrent workers, and the engine's fold beside them, all time
        // one wall-clock window: one enclosing span.
        let span = self.tel.as_ref().map(|t| t.hub.span(Phase::Train, round));
        let turn = ClientTurn {
            cfg: &self.cfg,
            topo: &self.topo,
            stats_positions: &self.stats_positions,
            compressor: &self.compressor,
            round,
            global,
            round_mask: self.round_mask.as_ref(),
            update_norm: self.tel.as_ref().map(|t| &t.update_norm_milli),
        };
        let claims: Vec<_> = (self.kept.iter().map(|&i| self.invited[i]))
            .zip(&mut self.turns[..n])
            .zip(&mut self.shards)
            .map(Mutex::new)
            .collect();
        let stream = InOrder::new(sink, &self.kept);
        let data = &*self.data;
        let rows_filled = self.tel.as_ref().map(|t| &t.rows_filled);
        let jobs: Vec<&mut Worker> = self.workers[..workers].iter_mut().collect();
        gluefl_pool::run(workers, jobs, |worker| {
            let _abort = AbortOnPanic(&stream);
            while let Some((t, mut payload)) = stream.claim() {
                let mut claim = claims[t].lock().unwrap_or_else(PoisonError::into_inner);
                let ((client, staged), shard) = &mut *claim;
                let filled = worker.take_turn(&turn, data, *client, staged, shard, &mut payload);
                if let Some(counter) = rows_filled {
                    counter.add(filled as u64);
                }
                stream.finish(t, payload);
            }
        });
        drop((span, claims));
        for turn in &mut self.turns[..n] {
            turn.check_in(&mut self.compressor);
        }
        for (&i, shard) in self.kept.iter().zip(self.shards.drain(..)) {
            self.cache.put(self.invited[i].0, round, shard);
        }
        self.cache.trim();
    }
}

/// The seed of client `id`'s local training in `round` — what makes a
/// client's minibatch stream the same in every driver and on every
/// thread schedule.
#[must_use]
pub fn local_train_seed(seed: u64, round: u32, id: ClientId) -> u64 {
    derive_seed(seed, "local-train", (u64::from(round) << 32) | id as u64)
}

/// What a round hands each invited client, and the client half that
/// compresses for it: everything [`ClientTurn::run`] reads that does not
/// belong to one client.
#[derive(Clone, Copy)]
pub struct ClientTurn<'a> {
    /// The run's config: local steps, batch size, learning-rate
    /// schedule, momentum and seed.
    pub cfg: &'a SimConfig,
    /// The model's architecture.
    pub topo: &'a MlpTopology,
    /// Flat indices of the BN-statistic positions, ascending.
    pub stats_positions: &'a [usize],
    /// The strategy's client half.
    pub compressor: &'a ClientCompressor,
    /// The round being played.
    pub round: u32,
    /// The broadcast global parameters.
    pub global: &'a [f32],
    /// The broadcast round mask, for strategies that ship one.
    pub round_mask: Option<&'a BitMask>,
    /// Where each client's update ℓ2 norm goes, in thousandths (the
    /// per-client statistic Optimal Client Sampling–style importance
    /// sampling needs each round), if anywhere.
    pub update_norm: Option<&'a Histogram>,
}

impl ClientTurn<'_> {
    /// The seed of client `id`'s training this turn.
    fn train_seed(&self, id: ClientId) -> u64 {
        local_train_seed(self.cfg.seed, self.round, id)
    }

    /// Fills the rows of client `id`'s `shard` that [`run`](Self::run)
    /// will read and that are not filled yet, and returns how many that
    /// was: the rows of the `steps × batch` draws [`train_client_into`]
    /// makes from the turn's seed, named by the same [`batch_rows`] its
    /// sampler reads through.
    ///
    /// # Panics
    /// As [`SyntheticFlDataset::fill_rows`].
    pub fn fill_rows(
        &self,
        data: &SyntheticFlDataset,
        id: ClientId,
        shard: &mut ClientDataset,
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(self.train_seed(id));
        let draws = self.cfg.local_steps * self.cfg.batch_size;
        let rows = batch_rows(&mut rng, shard.len(), draws);
        data.fill_rows(id, shard, rows)
    }

    /// The whole turn [`StagedTurn::stage`]d in `staged` — the routine
    /// every driver runs for a kept client, an in-process worker for
    /// each turn it claims and a socket client's granted upload alike:
    /// train on `shard` from the broadcast weights ([`train_client_into`],
    /// seeded by [`local_train_seed`]) into the staged delta and
    /// BN-statistic buffers, then compress the delta
    /// ([`ClientCompressor::compress`], on the client's checked-out
    /// residual) and stage the upload. Every row the training reads must
    /// be filled
    /// ([`fill_rows`](Self::fill_rows)); `scratch`'s [`TrainSlot`] is
    /// where the training runs.
    ///
    /// # Errors
    /// [`MissingRoundMask`] when a masking strategy's broadcast carried
    /// no mask.
    ///
    /// # Panics
    /// Panics if no turn is staged in `staged`, and as
    /// [`train_client_into`].
    pub fn run(
        &self,
        group: Group,
        shard: &ClientDataset,
        staged: &mut StagedTurn,
        scratch: &mut ScratchPool,
    ) -> Result<(), MissingRoundMask> {
        let StagedTurn {
            held,
            delta,
            stats,
            upload,
        } = staged;
        let (_, id, residual) = held.as_mut().expect("a turn is staged");
        let cfg = self.cfg;
        let mut slot = scratch.take_train_slot();
        train_client_into(
            self.topo,
            self.global,
            shard,
            cfg.local_steps,
            cfg.batch_size,
            cfg.lr_at_round(self.round),
            cfg.momentum,
            self.train_seed(*id),
            delta,
            self.stats_positions,
            stats,
            &mut slot,
        );
        scratch.put_train_slot(slot);
        if let Some(norm) = self.update_norm {
            // Measured on the raw delta, before compression consumes it.
            norm.observe((vecops::l2_norm(delta) * 1e3) as u64);
        }
        *upload = Some(self.compressor.compress(
            self.round,
            *id,
            group,
            delta,
            self.round_mask,
            residual,
            scratch,
        )?);
        Ok(())
    }
}

/// One client's local training — the training half of every driver's
/// turn ([`ClientTurn::run`]).
///
/// `steps` minibatch SGD-with-momentum steps from `global` over the
/// client's shard `ds`, through [`MlpTopology::train_delta_into`]: the
/// first step reads the shared `global`, every step applies its update
/// as the epilogue of backward-weights, the last writes the delta — the
/// velocity starts at zero per client, so momentum spans exactly the `E`
/// local steps as in the paper. The delta is then split: trainable
/// positions stay in `out`, the BN-statistic drift moves to `stats_out`
/// and its positions in `out` become zero.
///
/// Deterministic in the arguments alone — the RNG is seeded per call, so
/// results are independent of which worker runs the client and of what
/// `slot` served before — and allocation-free once `slot` is warm.
///
/// # Panics
/// Panics if `lr <= 0`, `momentum` is outside `[0, 1)`, the buffer
/// shapes disagree with the topology, or a minibatch draws a row of `ds`
/// that is not filled.
#[allow(clippy::too_many_arguments)]
pub fn train_client_into(
    topo: &MlpTopology,
    global: &[f32],
    ds: &ClientDataset,
    steps: usize,
    batch: usize,
    lr: f32,
    momentum: f32,
    seed: u64,
    out: &mut [f32],
    stats_positions: &[usize],
    stats_out: &mut [f32],
    slot: &mut TrainSlot,
) {
    assert!(lr > 0.0, "learning rate must be positive");
    assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
    assert_eq!(
        stats_out.len(),
        stats_positions.len(),
        "stats buffer/positions length mismatch"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    topo.train_delta_into(
        global,
        steps,
        lr,
        momentum,
        |bx, by| ds.sample_batch_into(&mut rng, batch, bx, by),
        slot,
        out,
    );
    for (s, &p) in stats_out.iter_mut().zip(stats_positions) {
        *s = std::mem::replace(&mut out[p], 0.0);
    }
}

/// Clients per [`Phase::Train`] span of a cohort: a cohort's training
/// shows on the phase table as a few spans, not one per client and not
/// one opaque block.
const CLIENTS_PER_TRAIN_SPAN: usize = 8;

/// Calls `f` on `0..n` in order, each run of [`CLIENTS_PER_TRAIN_SPAN`]
/// inside one [`Phase::Train`] span when `trace` carries a recorder and
/// a round number.
fn in_spans(n: usize, trace: Option<(&Telemetry, u32)>, mut f: impl FnMut(usize)) {
    for start in (0..n).step_by(CLIENTS_PER_TRAIN_SPAN) {
        let _span = trace.map(|(t, round)| t.span(Phase::Train, round));
        (start..n.min(start + CLIENTS_PER_TRAIN_SPAN)).for_each(&mut f);
    }
}

/// [`train_client_into`] for client `id` of `data`. Materialises the
/// client's shard first, a full synthesis pass: the simulator trains
/// from its shard cache instead, and a socket client holds its one
/// [`ClientDataset`]. `_trainable_mask` is implied by the topology and
/// `stats_positions`.
///
/// # Panics
/// As [`train_client_into`].
#[allow(clippy::too_many_arguments)]
pub fn local_train_into(
    topo: &MlpTopology,
    global: &[f32],
    data: &SyntheticFlDataset,
    id: usize,
    steps: usize,
    batch: usize,
    lr: f32,
    momentum: f32,
    seed: u64,
    out: &mut [f32],
    stats_positions: &[usize],
    stats_out: &mut [f32],
    _trainable_mask: &gluefl_tensor::BitMask,
    slot: &mut TrainSlot,
) {
    train_client_into(
        topo,
        global,
        &data.client(id),
        steps,
        batch,
        lr,
        momentum,
        seed,
        out,
        stats_positions,
        stats_out,
        slot,
    );
}

/// [`train_client_into`] over clients `ids` of `data`, their shards
/// materialised first: client `c` is seeded with `seeds[c]`, its
/// trainable delta written to `outs[c]` and its BN-statistic drift to
/// `stats_saved[c·stats ..]`, one workspace serving the whole cohort —
/// it holds one client's state at a time, so the working set is a
/// client's, whatever the cohort's size. `_trainable_mask` is implied by
/// the topology and `stats_positions`.
///
/// When `trace` carries a recorder and a round number, every run of
/// eight clients emits one [`Phase::Train`] span; `None` (the parity
/// tests) measures nothing.
///
/// # Panics
/// Panics if `ids`, `seeds`, and `outs` disagree in length, `ids` is
/// empty, `lr <= 0`, `momentum` is outside `[0, 1)`, or
/// `stats_saved.len() != ids.len() * stats_positions.len()`.
#[allow(clippy::too_many_arguments)]
pub fn batch_local_train_into(
    topo: &MlpTopology,
    global: &[f32],
    data: &SyntheticFlDataset,
    ids: &[usize],
    seeds: &[u64],
    steps: usize,
    batch: usize,
    lr: f32,
    momentum: f32,
    outs: &mut [Vec<f32>],
    stats_positions: &[usize],
    stats_saved: &mut [f32],
    _trainable_mask: &gluefl_tensor::BitMask,
    scratch: &mut BatchTrainScratch,
    trace: Option<(&Telemetry, u32)>,
) {
    assert!(!ids.is_empty(), "need at least one client");
    assert_eq!(seeds.len(), ids.len(), "one seed per client");
    assert_eq!(outs.len(), ids.len(), "one delta buffer per client");
    let stats_len = stats_positions.len();
    assert_eq!(
        stats_saved.len(),
        ids.len() * stats_len,
        "stats buffer/positions length mismatch"
    );
    let shards: Vec<ClientDataset> = ids.iter().map(|&id| data.client(id)).collect();
    in_spans(ids.len(), trace, |c| {
        train_client_into(
            topo,
            global,
            &shards[c],
            steps,
            batch,
            lr,
            momentum,
            seeds[c],
            &mut outs[c],
            stats_positions,
            &mut stats_saved[c * stats_len..(c + 1) * stats_len],
            scratch,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GlueFlParams;
    use crate::strategies::Upload;
    use gluefl_data::DatasetProfile;
    use gluefl_ml::DatasetModel;
    use gluefl_telemetry::PHASE_COUNT;
    use std::collections::BTreeSet;

    fn tiny_cfg(strategy: StrategyConfig) -> SimConfig {
        let mut cfg = SimConfig::paper_setup(
            DatasetProfile::Femnist,
            DatasetModel::ShuffleNet,
            strategy,
            0.02, // 150 clients: `paper_setup` floors N at 5K
            12,
            7,
        );
        // Shrink the model for fast tests.
        cfg.model.hidden = vec![16];
        cfg.dataset.feature_dim = 12;
        cfg.dataset.classes = 8;
        cfg.dataset.test_samples = 200;
        cfg.eval_every = 4;
        cfg.availability = None;
        cfg
    }

    fn tiny_gluefl_params(k: usize) -> GlueFlParams {
        GlueFlParams {
            q: 0.2,
            q_shr: 0.16,
            sticky_group: 4 * k,
            sticky_draw: 4 * k / 5,
            regen_interval: Some(5),
            compensation: gluefl_compress::CompensationMode::Rescaled,
            equal_weights: false,
        }
    }

    /// What a run leaves behind that the worker count must not move:
    /// every round's record, the final weights' bits, and the residual
    /// bank — how many clients it tracks and every stored residual's bits
    /// and weight.
    type RunBits = (
        Vec<RoundRecord>,
        Vec<u32>,
        usize,
        Vec<Option<(Vec<u32>, f64)>>,
    );

    fn run_bits(cfg: SimConfig, threads: usize, rounds: usize) -> RunBits {
        let mut sim = Simulation::new(cfg);
        sim.clients.threads = threads;
        let recs = (0..rounds).map(|_| sim.step()).collect();
        let params = sim.model().params().iter().map(|v| v.to_bits()).collect();
        let c = &sim.clients.compressor;
        let bank = (0..sim.data().num_clients())
            .map(|id| {
                c.stored(id)
                    .map(|(h, w)| (h.iter().map(|v| v.to_bits()).collect(), w))
            })
            .collect();
        (recs, params, c.tracked_residuals(), bank)
    }

    /// Which worker claims which turn must not change a bit: every
    /// strategy's client half — the quantized STC upload, MD-FedAvg's
    /// repeated invitations, a QuantU8 wire under FedAvg and under
    /// GlueFL, whose codec loss the workers fold into the residuals they
    /// hold, and an entropy wire under STC and GlueFL, whose frames are
    /// priced nominally and encoded by pattern — runs 4 rounds on one
    /// worker and on two, three and eight (more claimers than some
    /// rounds have turns), and whole records, final weights and the
    /// residual bank agree bit for bit. One run keeps at least three
    /// times the fold's payload budget a round, so workers wait for
    /// buffers; one GlueFL run evaluates every round on a test set of
    /// more than three [`gluefl_ml::EVAL_BLOCK_ROWS`]-row blocks, so the
    /// records pin the blocked evaluation's loss and accuracy too.
    /// Workers need not exist on the machine — the pool spawns them
    /// regardless — so this compares on any core count.
    #[test]
    fn parallel_round_bit_identical_to_serial() {
        let gluefl = || {
            let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
            cfg.strategy = StrategyConfig::GlueFl(tiny_gluefl_params(cfg.round_size));
            cfg
        };
        let quant = |mut cfg: SimConfig| {
            cfg.wire = gluefl_wire::WirePolicy::legacy(gluefl_wire::Codec::QuantU8);
            cfg
        };
        let entropy = |mut cfg: SimConfig| {
            cfg.wire = gluefl_wire::WirePolicy::entropy(gluefl_wire::Codec::QuantU8);
            cfg
        };
        let multi_block_eval = |mut cfg: SimConfig| {
            cfg.dataset.test_samples = 3 * gluefl_ml::EVAL_BLOCK_ROWS + 5;
            cfg.eval_every = 1;
            cfg
        };
        let budget_binds = |mut cfg: SimConfig| {
            cfg.round_size = cfg.round_size.max(3 * crate::engine::payload_budget());
            cfg.dataset.clients = cfg.dataset.clients.max(5 * cfg.round_size);
            cfg
        };
        let configs = [
            tiny_cfg(StrategyConfig::FedAvg),
            tiny_cfg(StrategyConfig::MdFedAvg),
            tiny_cfg(StrategyConfig::Stc { q: 0.2 }),
            tiny_cfg(StrategyConfig::StcQuantized { q: 0.2 }),
            tiny_cfg(StrategyConfig::Apf {
                config: gluefl_compress::ApfConfig::default(),
            }),
            gluefl(),
            quant(tiny_cfg(StrategyConfig::FedAvg)),
            quant(gluefl()),
            entropy(tiny_cfg(StrategyConfig::Stc { q: 0.2 })),
            entropy(gluefl()),
            multi_block_eval(gluefl()),
            budget_binds(quant(tiny_cfg(StrategyConfig::Stc { q: 0.2 }))),
        ];
        for cfg in configs {
            let name = cfg.strategy.name();
            let serial = run_bits(cfg.clone(), 1, 4);
            for threads in [2, 3, 8] {
                let sharded = run_bits(cfg.clone(), threads, 4);
                let name = format!("{name}, {threads} workers");
                assert_eq!(sharded.0, serial.0, "{name}: records diverged");
                assert!(sharded.1 == serial.1, "{name}: weights diverged");
                assert_eq!(sharded.2, serial.2, "{name}: banks track different clients");
                assert!(sharded.3 == serial.3, "{name}: a stored residual diverged");
            }
        }
    }

    /// Client training through a *shared* slot must not leak state
    /// between clients: training the same client twice through a slot
    /// that served another client in between yields identical deltas.
    #[test]
    fn train_slots_leak_no_state_between_clients() {
        use gluefl_tensor::rng::derive_seed;
        let cfg = tiny_cfg(StrategyConfig::FedAvg);
        let sim = Simulation::new(cfg.clone());
        let topo = sim.model().topology();
        let dim = sim.model().num_params();
        let global = sim.model().params().to_vec();
        let mask = sim.model().layout().trainable_mask();
        let stats: Vec<usize> = mask.not().iter_ones().collect();
        let run = |slot: &mut TrainSlot, id: usize| -> Vec<f32> {
            let mut out = vec![0.0f32; dim];
            let mut stats_out = vec![0.0f32; stats.len()];
            local_train_into(
                topo,
                &global,
                sim.data(),
                id,
                cfg.local_steps,
                cfg.batch_size,
                0.05,
                cfg.momentum,
                derive_seed(cfg.seed, "local-train", id as u64),
                &mut out,
                &stats,
                &mut stats_out,
                &mask,
                slot,
            );
            out
        };
        let mut fresh = TrainSlot::default();
        let first = run(&mut fresh, 0);
        let mut reused = TrainSlot::default();
        let _ = run(&mut reused, 1); // warm the slot with another client
                                     // Steady state: a warm slot's buffers (including the minibatch
                                     // staging, which is mem::take'n around the step loop) must not
                                     // be re-allocated by later clients.
        let params_ptr = reused.params.as_ptr();
        let batch_x_ptr = reused.scratch.batch_x.as_ptr();
        let batch_y_ptr = reused.scratch.batch_y.as_ptr();
        let second = run(&mut reused, 0);
        assert!(
            first
                .iter()
                .zip(&second)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "slot reuse changed a client's delta"
        );
        assert_eq!(reused.params.as_ptr(), params_ptr);
        assert_eq!(reused.scratch.batch_x.as_ptr(), batch_x_ptr);
        assert_eq!(reused.scratch.batch_y.as_ptr(), batch_y_ptr);
    }

    /// The cohort entry point records one [`Phase::Train`] span per run
    /// of eight clients (the last run may be short) and nothing without
    /// a recorder — the span count a traced round is read against.
    #[test]
    fn cohort_training_emits_one_span_per_eight_clients() {
        use gluefl_tensor::rng::derive_seed;
        let cfg = tiny_cfg(StrategyConfig::FedAvg);
        let sim = Simulation::new(cfg.clone());
        let dim = sim.model().num_params();
        let mask = sim.model().layout().trainable_mask();
        let stats: Vec<usize> = mask.not().iter_ones().collect();
        let mut slot = TrainSlot::default();
        for (clients, spans) in [(1usize, 1u64), (8, 1), (9, 2), (17, 3)] {
            let ids: Vec<usize> = (0..clients).collect();
            let seeds: Vec<u64> = ids
                .iter()
                .map(|&id| derive_seed(cfg.seed, "local-train", id as u64))
                .collect();
            let mut outs = vec![vec![0.0f32; dim]; clients];
            let mut stats_saved = vec![0.0f32; clients * stats.len()];
            let tel = Telemetry::new();
            for trace in [None, Some((&tel, 3))] {
                batch_local_train_into(
                    sim.model().topology(),
                    sim.model().params(),
                    sim.data(),
                    &ids,
                    &seeds,
                    1,
                    cfg.batch_size,
                    0.05,
                    cfg.momentum,
                    &mut outs,
                    &stats,
                    &mut stats_saved,
                    &mask,
                    &mut slot,
                    trace,
                );
                let want = if trace.is_some() { spans } else { 0 };
                assert_eq!(tel.phase_spans(Phase::Train), want, "K = {clients}");
            }
        }
    }

    /// Concurrent shards all time the same wall-clock window, so a
    /// sharded round records one enclosing [`Phase::Train`] span, not a
    /// sum that exceeds the step.
    #[test]
    fn sharded_training_records_one_enclosing_span() {
        let tel = Arc::new(Telemetry::new());
        let mut sim =
            Simulation::new(tiny_cfg(StrategyConfig::FedAvg)).with_telemetry(Arc::clone(&tel));
        sim.clients.threads = 2;
        let rec = sim.step();
        assert!(rec.invited > 1, "two workers need two clients");
        assert_eq!(tel.phase_spans(Phase::Train), 1);
        assert!(tel.phase_nanos(Phase::Train) <= rec.step_nanos);
    }

    /// Dimension-sized buffers alive on the client side after a round,
    /// outside the residual bank: the workers' delta buffers, any left
    /// in a turn, and any in a worker's pool.
    fn live_delta_buffers(c: &InProcessClients, dim: usize) -> usize {
        assert!(
            c.turns.iter().all(|t| t.held.is_none()),
            "a turn was not checked in"
        );
        let in_turns = c.turns.iter().filter(|t| t.delta.len() == dim).count();
        let with_workers = c.workers.iter().map(|w| {
            let pooled = w.scratch.max_idle_value_capacity() >= dim;
            usize::from(w.delta.len() == dim) + if pooled { w.scratch.idle_buffers() } else { 0 }
        });
        in_turns + with_workers.sum::<usize>()
    }

    /// Upload-sized buffers alive after a round: the client side's
    /// [`live_delta_buffers`] plus the payload buffers the engine keeps.
    fn live_upload_buffers(sim: &Simulation, dim: usize) -> usize {
        live_delta_buffers(&sim.clients, dim) + sim.engine.scratch().idle_byte_buffers()
    }

    /// The delta hand-off leaks nothing and copies nothing, and what a
    /// round holds does not grow with its keep count: at two round sizes,
    /// the upload-sized buffers alive after every round are at most one
    /// per worker plus the fold's payload budget. Under GlueFL every
    /// round allocates exactly one dimension-sized buffer per
    /// *first-time* client (its residual-to-be), which the bank keeps,
    /// and otherwise trades buffers, so the client side's live count
    /// stays where the first round left it; FedAvg keeps no bank.
    #[test]
    fn delta_hand_off_keeps_the_live_buffer_count_flat() {
        let rounds = 8;
        let bound = |sim: &Simulation| sim.clients.threads + crate::engine::payload_budget();
        for k in [6, 24] {
            // GlueFL: residual bank + swapped delta buffers.
            let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
            cfg.round_size = k;
            cfg.strategy = StrategyConfig::GlueFl(tiny_gluefl_params(k));
            let mut sim = Simulation::new(cfg.clone());
            let dim = sim.model().num_params();
            let mut live = None;
            for round in 0..rounds {
                let tracked_before = sim.clients.compressor.tracked_residuals();
                let mut banked = Vec::new();
                let (rec, _, kept) = step_recorded(&mut sim, |at, c| {
                    if let At::Invite(_, invited, _) = at {
                        banked = invited
                            .iter()
                            .map(|&(id, _)| c.stored(id).is_some())
                            .collect();
                    }
                });
                let first_timers = kept.iter().filter(|&&i| !banked[i]).count();
                let c = &sim.clients;
                // Each first-time client banked a buffer of its own;
                // everyone else traded one for one.
                assert_eq!(
                    c.compressor.tracked_residuals(),
                    tracked_before + first_timers,
                    "K = {k}, round {round}"
                );
                let now = live_delta_buffers(c, dim);
                assert_eq!(
                    *live.get_or_insert(now),
                    now,
                    "K = {k}, round {round}: a delta buffer leaked or was copied"
                );
                assert!(
                    live_upload_buffers(&sim, dim) <= bound(&sim),
                    "K = {k}, round {round}: {} kept, buffers grew with them",
                    rec.kept
                );
            }
            assert!(
                sim.clients.compressor.tracked_residuals() > k,
                "the run must outlast its first cohort for the bound to mean anything"
            );

            // FedAvg: the delta is the upload; it returns to its worker.
            let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
            cfg.round_size = k;
            let mut sim = Simulation::new(cfg);
            for round in 0..rounds {
                let rec = sim.step();
                assert_eq!(sim.clients.compressor.tracked_residuals(), 0);
                assert!(rec.kept >= k, "K = {k}: the round keeps its size");
                assert!(
                    live_upload_buffers(&sim, dim) <= bound(&sim),
                    "K = {k}, round {round}: dense uploads must circulate, not accumulate"
                );
            }
        }
    }

    /// A GlueFL config whose sticky group (S = 20) is smaller than a
    /// round's 39 invitations, so the shard cache evicts every round.
    fn evicting_cfg() -> SimConfig {
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
        cfg.strategy = StrategyConfig::GlueFl(GlueFlParams {
            sticky_group: 20,
            sticky_draw: 12,
            ..tiny_gluefl_params(cfg.round_size)
        });
        cfg
    }

    /// Where a [`step_recorded`] hook is called.
    enum At<'b> {
        /// Before the invitation reaches the clients: the round, the
        /// invitations and the broadcast.
        Invite(u32, &'b [(ClientId, Group)], &'b Broadcast<'b>),
        /// After the invitation.
        Invited,
    }

    /// Forwards every call to the simulator's clients, records the
    /// round's invitations and kept indices, and calls `hook` with the
    /// clients around the invitation.
    struct Recorder<'a, H> {
        clients: &'a mut InProcessClients,
        invited: Vec<(ClientId, Group)>,
        kept: Vec<usize>,
        hook: H,
    }

    impl<H: FnMut(At<'_>, &mut InProcessClients) + Send> RoundIo for Recorder<'_, H> {
        fn reachable(&self, id: ClientId) -> bool {
            self.clients.reachable(id)
        }

        fn invite(&mut self, round: u32, invited: &[(ClientId, Group)], broadcast: &Broadcast<'_>) {
            self.invited = invited.to_vec();
            (self.hook)(At::Invite(round, invited, broadcast), self.clients);
            self.clients.invite(round, invited, broadcast);
            (self.hook)(At::Invited, self.clients);
        }

        fn offers(&mut self, round: u32, offers: &mut [Option<u64>]) {
            self.clients.offers(round, offers);
        }

        fn grant(&mut self, round: u32, kept: &[usize]) {
            self.kept = kept.to_vec();
            self.clients.grant(round, kept);
        }

        fn uploads(&mut self, round: u32, sink: &dyn UploadSink) {
            self.clients.uploads(round, sink);
        }

        fn rejected(&mut self, round: u32, slot: usize, err: &WireError) {
            self.clients.rejected(round, slot, err);
        }
    }

    /// Steps `sim` one round through a [`Recorder`] that calls `hook`;
    /// returns the round's record, invitations and kept indices.
    fn step_recorded(
        sim: &mut Simulation,
        hook: impl FnMut(At<'_>, &mut InProcessClients) + Send,
    ) -> (RoundRecord, Vec<(ClientId, Group)>, Vec<usize>) {
        let mut io = Recorder {
            clients: &mut sim.clients,
            invited: Vec::new(),
            kept: Vec::new(),
            hook,
        };
        let rec = sim.engine.step(&mut io);
        (rec, io.invited, io.kept)
    }

    /// Between rounds at most `S` shards stay resident and during a
    /// round at most `max(S, kept)`, so a strategy without a
    /// sticky group (FedAvg, `S = 0`) keeps no more than one round's
    /// turns. Every turn either builds its shard or reuses a resident
    /// one, and with a sticky group some do reuse theirs.
    #[test]
    fn shard_cache_stays_within_its_bound() {
        let mut sticky = tiny_cfg(StrategyConfig::FedAvg);
        sticky.strategy = StrategyConfig::GlueFl(tiny_gluefl_params(sticky.round_size));
        let cases = [
            (evicting_cfg(), 20),
            (sticky, 120),
            (tiny_cfg(StrategyConfig::FedAvg), 0),
        ];
        for (cfg, s) in cases {
            let tel = Arc::new(Telemetry::new());
            let mut sim = Simulation::new(cfg.clone()).with_telemetry(Arc::clone(&tel));
            assert_eq!(sim.clients.cache.capacity, s);
            let (mut peak, mut turns) = (0, 0);
            for round in 0..12 {
                let mut at_invite = 0;
                let (rec, ..) = step_recorded(&mut sim, |at, c| {
                    if matches!(at, At::Invited) {
                        at_invite = c.cache.resident.len();
                    }
                });
                // Residency peaks once the round's turns are over, at
                // the grant, not at the invitation.
                let during = sim.clients.cache.untrimmed;
                assert!(at_invite <= during);
                let taken = rec.kept;
                assert!(
                    during <= s.max(taken),
                    "S = {s}, round {round}: {during} resident"
                );
                let after = sim.clients.cache.resident.len();
                assert!(after <= s, "S = {s}, round {round}: {after} resident after");
                peak = peak.max(during);
                turns += taken;
            }
            let snap = tel.snapshot();
            let count = |name| snap.value(name, &[]).unwrap();
            let built = count("gluefl_client_shards_built_total");
            let reused = count("gluefl_client_shards_reused_total");
            assert_eq!(built + reused, turns as f64, "S = {s}");
            assert_eq!(reused > 0.0, s > 0, "S = {s}: {reused} reused");
            assert!(built > peak as f64, "S = {s}: no shard was ever evicted");
        }
    }

    /// Under over-commitment a round takes exactly the turns its prices
    /// need, which are the kept clients' under every policy: the
    /// broadcast prices FedAvg's and APF's uploads, and STC's, quantized
    /// STC's and GlueFL's top-k nominally, under a legacy or an entropy
    /// policy alike (MD-FedAvg keeps everyone it invites). Each turn
    /// builds or reuses one shard and observes one update norm, so both
    /// counters count turns.
    #[test]
    fn a_round_takes_only_the_turns_its_prices_need() {
        use gluefl_wire::{Codec, WirePolicy};
        let apf = StrategyConfig::Apf {
            config: gluefl_compress::ApfConfig::default(),
        };
        let gluefl = StrategyConfig::GlueFl(tiny_gluefl_params(tiny_cfg(apf.clone()).round_size));
        let top_k = [
            StrategyConfig::Stc { q: 0.2 },
            StrategyConfig::StcQuantized { q: 0.2 },
            gluefl,
        ];
        let legacy = [
            WirePolicy::legacy(Codec::F32),
            WirePolicy::legacy(Codec::QuantU8),
        ];
        let mut cases = vec![
            (StrategyConfig::FedAvg, WirePolicy::default()),
            (apf, WirePolicy::default()),
        ];
        for strategy in top_k {
            for wire in legacy.into_iter().chain([WirePolicy::entropy(Codec::F32)]) {
                cases.push((strategy.clone(), wire));
            }
        }
        for (strategy, wire) in cases {
            let name = format!("{} {wire:?}", strategy.name());
            let mut cfg = tiny_cfg(strategy);
            cfg.wire = wire;
            let tel = Arc::new(Telemetry::new());
            let mut sim = Simulation::new(cfg.clone()).with_telemetry(Arc::clone(&tel));
            let mut turns = 0;
            for round in 0..4 {
                let rec = sim.step();
                assert!(rec.invited > rec.kept, "{name}: no over-commitment");
                turns += rec.kept;
                let snap = tel.snapshot();
                let count = |name| snap.value(name, &[]).unwrap() as usize;
                let shards = count("gluefl_client_shards_built_total")
                    + count("gluefl_client_shards_reused_total");
                let norms = count("gluefl_client_update_norm_milli_count");
                assert_eq!((shards, norms), (turns, turns), "{name}, round {round}");
            }
        }
    }

    /// A dismissed client takes no turn under any policy — FedAvg, and
    /// STC, quantized STC and GlueFL under legacy and entropy policies:
    /// with room for every shard, exactly the shards of the clients kept
    /// so far are resident after each round, some client was only ever
    /// dismissed, and no such client banked a residual.
    #[test]
    fn a_dismissed_client_builds_no_shard() {
        use gluefl_wire::{Codec, WirePolicy};
        let gluefl = StrategyConfig::GlueFl(tiny_gluefl_params(
            tiny_cfg(StrategyConfig::FedAvg).round_size,
        ));
        let cases = [
            (StrategyConfig::FedAvg, WirePolicy::legacy(Codec::F32)),
            (
                StrategyConfig::Stc { q: 0.2 },
                WirePolicy::legacy(Codec::F32),
            ),
            (
                StrategyConfig::Stc { q: 0.2 },
                WirePolicy::entropy(Codec::F32),
            ),
            (
                StrategyConfig::StcQuantized { q: 0.2 },
                WirePolicy::legacy(Codec::F16),
            ),
            (gluefl.clone(), WirePolicy::legacy(Codec::F32)),
            (gluefl.clone(), WirePolicy::entropy(Codec::F32)),
            (gluefl, WirePolicy::legacy(Codec::QuantU8)),
        ];
        for (strategy, wire) in cases {
            let name = format!("{} {wire:?}", strategy.name());
            let mut cfg = tiny_cfg(strategy);
            cfg.wire = wire;
            let mut sim = Simulation::new(cfg);
            sim.clients.cache.capacity = usize::MAX;
            let (mut kept, mut dismissed) = (BTreeSet::new(), BTreeSet::new());
            for round in 0..4 {
                let (_, invited, round_kept) = step_recorded(&mut sim, |_, _| {});
                for (i, &(id, _)) in invited.iter().enumerate() {
                    if round_kept.contains(&i) {
                        kept.insert(id);
                    } else {
                        dismissed.insert(id);
                    }
                }
                let resident: BTreeSet<ClientId> =
                    sim.clients.cache.resident.iter().map(|r| r.id).collect();
                assert_eq!(resident, kept, "{name}, round {round}");
            }
            let only_dismissed: Vec<ClientId> = dismissed.difference(&kept).copied().collect();
            assert!(
                !only_dismissed.is_empty(),
                "{name}: every dismissed client was kept in another round"
            );
            for id in only_dismissed {
                assert_eq!(sim.clients.stored(id), None, "{name}: client {id} banked");
            }
        }
    }

    /// What `upload` plus a `stats_len`-value BN-statistic frame costs:
    /// `(legacy-F32 bytes, bytes under wire)`, as the engine's upload
    /// ledger counts a folded upload.
    fn measured(upload: &Upload, stats_len: usize, wire: gluefl_wire::WirePolicy) -> (u64, u64) {
        use gluefl_wire::{Codec, FrameWriter, WirePolicy};
        let price = |policy: WirePolicy| {
            crate::wire_link::encoded_len(upload, &policy)
                + FrameWriter::new(policy).known_mask_len(stats_len)
        };
        (price(WirePolicy::legacy(Codec::F32)), price(wire))
    }

    /// The nominal wire price `shape` against the `measured` one: equal
    /// under the legacy layout menu, an upper bound under the entropy
    /// menu. The analytic prices are equal under both.
    fn assert_bounds(shape: (u64, u64), measured: (u64, u64), entropy: bool) {
        assert_eq!(shape.0, measured.0);
        if entropy {
            assert!(measured.1 <= shape.1, "{measured:?} over {shape:?}");
        } else {
            assert_eq!(shape.1, measured.1);
        }
    }

    proptest::proptest! {
        /// The price that lets a round train only its kept clients: for
        /// every strategy, under every codec and both layout menus, over
        /// random mask densities (masks that may also cover BN statistics)
        /// and with and without BN statistics, the price
        /// [`ClientCompressor::shape_offer`] reads off the broadcast is
        /// the upload a trained turn stages, priced: the analytic price
        /// exactly, and the wire price exactly under a legacy policy and
        /// as an upper bound under an entropy policy, whose index pattern
        /// prices the frame. The kept turn encodes to the measured length.
        #[test]
        fn shape_offer_is_the_offer_of_the_trained_upload(
            strategy in 0usize..6,
            codec in 0usize..3,
            entropy in proptest::prelude::any::<bool>(),
            batch_norm in proptest::prelude::any::<bool>(),
            density in 0.0f64..=1.0,
            mask_seed in 0u64..u64::MAX,
            id in 0usize..56,
            round in 0u32..12,
        ) {
            use gluefl_wire::{Codec, WirePolicy};
            use rand::Rng;
            let strategy = match strategy {
                0 => StrategyConfig::FedAvg,
                1 => StrategyConfig::MdFedAvg,
                2 => StrategyConfig::Apf {
                    config: gluefl_compress::ApfConfig::default(),
                },
                3 => StrategyConfig::Stc { q: 0.2 },
                4 => StrategyConfig::StcQuantized { q: 0.2 },
                _ => StrategyConfig::GlueFl(tiny_gluefl_params(7)),
            };
            let mut cfg = tiny_cfg(strategy);
            let codec = [Codec::F32, Codec::F16, Codec::QuantU8][codec];
            cfg.wire = if entropy {
                WirePolicy::entropy(codec)
            } else {
                WirePolicy::legacy(codec)
            };
            cfg.model.batch_norm = batch_norm;
            let mut sim = Simulation::new(cfg.clone());
            let global = sim.model().params().to_vec();
            let dim = global.len();
            let mut rng = StdRng::seed_from_u64(mask_seed);
            let random_mask =
                BitMask::from_indices(dim, (0..dim).filter(|_| rng.gen_bool(density)));
            let c = &mut sim.clients;
            let stats_len = c.stats_positions.len();
            proptest::prop_assert_eq!(stats_len == 0, !batch_norm);
            let mask = match cfg.strategy {
                StrategyConfig::Apf { .. } | StrategyConfig::GlueFl(_) => Some(&random_mask),
                _ => None,
            };
            let shape = c.compressor.shape_offer(round, mask, stats_len).unwrap();
            let (mut staged, mut scratch) = (StagedTurn::default(), ScratchPool::new());
            staged.stage(&mut c.compressor, round, id, &mut scratch);
            let turn = ClientTurn {
                cfg: &cfg,
                topo: &c.topo,
                stats_positions: &c.stats_positions,
                compressor: &c.compressor,
                round,
                global: &global,
                round_mask: mask,
                update_norm: None,
            };
            turn.run(Group::Fresh, &c.data.client(id), &mut staged, &mut scratch)
                .unwrap();
            let priced = measured(staged.upload.as_ref().unwrap(), stats_len, cfg.wire);
            assert_bounds(shape, priced, entropy);
            let len = staged.encode(&c.compressor, mask, &mut Vec::new(), &mut scratch);
            staged.check_in(&mut c.compressor);
            proptest::prop_assert_eq!(len as u64, priced.1);
        }
    }

    proptest::proptest! {
        /// Why the broadcast can price every top-k upload: top-k never
        /// skips a zero, so an upload's shape is fixed by the broadcast.
        /// Over six rounds of STC (sparse and ternary) and GlueFL (shifted
        /// rounds and the round-5 regeneration), under each codec and both
        /// layout menus, with and without BN statistics and with zero
        /// local steps (an all-zero delta), every invited client's upload
        /// — trained beside the run, on a compressor of its own, the
        /// dismissed clients' included — holds `keep_count(trainable, q)`
        /// values (STC), or the mask's popcount of shared values (none
        /// when regenerating) plus `unique_keep(trainable, round)` unique
        /// ones (GlueFL). Its price is [`ClientCompressor::shape_offer`]'s
        /// under a legacy policy, and bounded by it under an entropy
        /// policy.
        #[test]
        fn every_top_k_offer_is_priced_by_its_shape(
            strategy in 0usize..3,
            codec in 0usize..3,
            entropy in proptest::prelude::any::<bool>(),
            batch_norm in proptest::prelude::any::<bool>(),
            zero_steps in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            use gluefl_compress::stc::keep_count;
            use gluefl_wire::{Codec, WirePolicy};
            let strategy = match strategy {
                0 => StrategyConfig::Stc { q: 0.2 },
                1 => StrategyConfig::StcQuantized { q: 0.2 },
                _ => StrategyConfig::GlueFl(tiny_gluefl_params(7)),
            };
            let mut cfg = tiny_cfg(strategy);
            let codec = [Codec::F32, Codec::F16, Codec::QuantU8][codec];
            cfg.wire = if entropy {
                WirePolicy::entropy(codec)
            } else {
                WirePolicy::legacy(codec)
            };
            cfg.model.batch_norm = batch_norm;
            if zero_steps {
                cfg.local_steps = 0;
            }
            cfg.seed = seed;
            let setup = RunSetup::new(&cfg);
            let mut sim = Simulation::new(cfg.clone());
            let stats_len = sim.clients.stats_positions.len();
            let trainable = sim.model().num_params() - stats_len;
            for round in 0..6 {
                // Before the invitation reaches the clients, every invited
                // client's turn, taken from the broadcast on a compressor
                // of the round's own — so the run is not disturbed — with
                // its upload.
                let (mut trained, mut mask) = (Vec::new(), None);
                let (rec, ..) = step_recorded(&mut sim, |at, c| {
                    let At::Invite(round, invited, broadcast) = at else {
                        return;
                    };
                    mask = broadcast.mask.cloned();
                    let mut beside = ClientCompressor::for_run(&c.cfg, &setup);
                    for &(id, group) in invited {
                        let (mut staged, mut scratch) = (StagedTurn::default(), ScratchPool::new());
                        staged.stage(&mut beside, round, id, &mut scratch);
                        let turn = ClientTurn {
                            cfg: &c.cfg,
                            topo: &c.topo,
                            stats_positions: &c.stats_positions,
                            compressor: &beside,
                            round,
                            global: broadcast.params,
                            round_mask: broadcast.mask,
                            update_norm: None,
                        };
                        turn.run(group, &c.data.client(id), &mut staged, &mut scratch)
                            .expect("the engine broadcasts the mask of every masking strategy");
                        trained.push(staged.upload.take().expect("the turn ran"));
                    }
                });
                proptest::prop_assert_eq!(trained.len(), rec.invited);
                let c = &sim.clients.compressor;
                let shape = c.shape_offer(round, mask.as_ref(), stats_len).unwrap();
                for upload in &trained {
                    assert_bounds(shape, measured(upload, stats_len, cfg.wire), entropy);
                    match (upload, &cfg.strategy) {
                        (Upload::Sparse(u), StrategyConfig::Stc { q }) => {
                            proptest::prop_assert_eq!(u.nnz(), keep_count(trainable, *q));
                        }
                        (Upload::Ternary(t), StrategyConfig::StcQuantized { q }) => {
                            proptest::prop_assert_eq!(t.indices.len(), keep_count(trainable, *q));
                        }
                        (Upload::MaskSplit(split), StrategyConfig::GlueFl(p)) => {
                            let shared = if p.is_regen_round(round) {
                                0
                            } else {
                                mask.as_ref().expect("GlueFL broadcasts M_t").count_ones()
                            };
                            proptest::prop_assert_eq!(split.shared.nnz(), shared);
                            let unique = p.unique_keep(trainable, round);
                            proptest::prop_assert_eq!(split.unique.nnz(), unique);
                        }
                        (upload, strategy) => {
                            panic!("{} staged {upload:?}", strategy.name());
                        }
                    }
                }
            }
        }
    }

    /// Which shards are resident never changes a bit: 25 rounds of the
    /// evicting config (`S = 20`, evicting every round) end on the same
    /// weights as with no shard kept between rounds, when every
    /// invitation synthesises its shard afresh, and as with every shard
    /// kept.
    #[test]
    fn shard_evictions_leave_the_run_unchanged() {
        let weights = |capacity: Option<usize>| {
            let mut sim = Simulation::new(evicting_cfg());
            if let Some(capacity) = capacity {
                sim.clients.cache.capacity = capacity;
            }
            for _ in 0..25 {
                let _ = sim.step();
            }
            let bits: Vec<u32> = sim.model().params().iter().map(|v| v.to_bits()).collect();
            bits
        };
        let evicting = weights(None);
        assert!(
            weights(Some(0)) == evicting,
            "a fresh shard per turn diverged"
        );
        assert!(
            weights(Some(usize::MAX)) == evicting,
            "keeping every shard diverged"
        );
    }

    /// A config whose turns read a few rows of each shard: two steps of
    /// four draws, against shards of 22 rows and more.
    fn few_rows_cfg(strategy: StrategyConfig) -> SimConfig {
        let mut cfg = tiny_cfg(strategy);
        cfg.local_steps = 2;
        cfg.batch_size = 4;
        cfg
    }

    /// The distinct rows client `id`'s training in `round` reads,
    /// straight from its seeded draws.
    fn rows_read(cfg: &SimConfig, round: u32, id: ClientId, len: usize) -> BTreeSet<usize> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(local_train_seed(cfg.seed, round, id));
        let draws = cfg.local_steps * cfg.batch_size;
        (0..draws).map(|_| rng.gen_range(0..len)).collect()
    }

    fn filled_rows(shard: &ClientDataset) -> BTreeSet<usize> {
        (0..shard.len()).filter(|&i| shard.is_filled(i)).collect()
    }

    /// A turn fills exactly the distinct rows its sampler reads, trains
    /// to the bits a whole shard gives, and a later turn on the same
    /// shard fills only the rows no earlier turn filled.
    #[test]
    fn a_turn_fills_exactly_the_rows_it_reads() {
        let cfg = few_rows_cfg(StrategyConfig::FedAvg);
        let sim = Simulation::new(cfg.clone());
        let c = &sim.clients;
        let global = sim.model().params().to_vec();
        let dim = global.len();
        let train = |turn: &ClientTurn<'_>, id: ClientId, shard: &ClientDataset| {
            let mut out = vec![0.0f32; dim];
            let mut stats = vec![0.0f32; c.stats_positions.len()];
            train_client_into(
                turn.topo,
                turn.global,
                shard,
                cfg.local_steps,
                cfg.batch_size,
                0.05,
                cfg.momentum,
                turn.train_seed(id),
                &mut out,
                &c.stats_positions,
                &mut stats,
                &mut TrainSlot::default(),
            );
            out.iter()
                .chain(&stats)
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        for id in [0, 9, 31] {
            let mut shard = c.data.client_storage(id);
            let whole = c.data.client(id);
            let mut read = BTreeSet::new();
            for round in [0, 1, 5] {
                let turn = ClientTurn {
                    cfg: &cfg,
                    topo: &c.topo,
                    stats_positions: &c.stats_positions,
                    compressor: &c.compressor,
                    round,
                    global: &global,
                    round_mask: None,
                    update_norm: None,
                };
                let rows = rows_read(&cfg, round, id, shard.len());
                let fresh = rows.difference(&read).count();
                assert_eq!(turn.fill_rows(&c.data, id, &mut shard), fresh);
                read.extend(rows);
                assert_eq!(filled_rows(&shard), read, "client {id}, round {round}");
                assert!(
                    read.len() < shard.len(),
                    "client {id}: the turns read every row"
                );
                assert_eq!(train(&turn, id, &shard), train(&turn, id, &whole));
            }
        }
    }

    /// A resident shard keeps its rows between turns: once a round is
    /// over each resident shard holds exactly the rows its client's turns
    /// read since it was built, and the rows-filled counter is the sum of
    /// what each turn found unfilled — fewer than the turns read, because
    /// a hit fills only the rows no earlier turn did.
    #[test]
    fn resident_shards_fill_each_row_once() {
        let mut cfg = few_rows_cfg(StrategyConfig::FedAvg);
        cfg.strategy = StrategyConfig::GlueFl(tiny_gluefl_params(cfg.round_size));
        let tel = Arc::new(Telemetry::new());
        let mut sim = Simulation::new(cfg.clone()).with_telemetry(Arc::clone(&tel));
        let mut read: std::collections::HashMap<ClientId, BTreeSet<usize>> = Default::default();
        let (mut fresh, mut turn_rows) = (0, 0);
        for _ in 0..8 {
            let (rec, invited, kept) = step_recorded(&mut sim, |_, _| {});
            // The turns taken are the kept clients'.
            let took = invited.iter().enumerate().filter(|(i, _)| kept.contains(i));
            for (_, &(id, _)) in took {
                let rows = rows_read(&cfg, rec.round, id, sim.data().client_len(id));
                let had = read.entry(id).or_default();
                fresh += rows.difference(had).count();
                turn_rows += rows.len();
                had.extend(rows);
            }
            let resident = &sim.clients.cache.resident;
            read.retain(|id, _| resident.iter().any(|r| r.id == *id));
            assert_eq!(resident.len(), read.len());
            for r in resident {
                assert_eq!(filled_rows(&r.shard), read[&r.id], "client {}", r.id);
                assert_eq!(r.shard.labels(), sim.data().client(r.id).labels());
            }
        }
        let snap = tel.snapshot();
        let count = |name| snap.value(name, &[]).unwrap();
        assert_eq!(count("gluefl_client_rows_filled_total"), fresh as f64);
        assert!(fresh < turn_rows, "no hit found a row already filled");
    }

    /// Phase spans cover the step under GlueFL with an entropy and with
    /// a legacy policy and under over-committed FedAvg. The kept
    /// clients' turns stream into the fold, so their training overlaps
    /// the engine's decode and fold: every training span the clients
    /// record lies inside the step.
    #[test]
    fn telemetry_measures_phases_that_cover_the_step() {
        let gluefl = || tiny_cfg(StrategyConfig::GlueFl(tiny_gluefl_params(7)));
        let mut entropy = gluefl();
        entropy.wire = gluefl_wire::WirePolicy::entropy(gluefl_wire::Codec::F32);
        let configs = [entropy, gluefl(), tiny_cfg(StrategyConfig::FedAvg)];
        for mut cfg in configs {
            let name = cfg.strategy.name();
            cfg.rounds = 3;
            cfg.eval_every = 100; // keep evaluation out of the measured window
            let tel = Arc::new(Telemetry::new());
            let mut sim = Simulation::new(cfg).with_telemetry(Arc::clone(&tel));
            let (mut steps, mut kept) = (0, 0);
            for round in 0..3 {
                let rec = sim.step();
                assert!(rec.invited > rec.kept, "{name}: no over-commitment");
                assert!(
                    rec.step_nanos > 0,
                    "{name}, round {round}: step wall time not measured"
                );
                let covered = rec.measured_phase_total();
                assert!(
                    covered > 0,
                    "{name}, round {round}: no phase wall time recorded"
                );
                assert!(
                    covered <= rec.step_nanos,
                    "{name}, round {round}: phases ({covered} ns) exceed the step ({} ns)",
                    rec.step_nanos
                );
                // Phases are disjoint sub-intervals of the step; only
                // bookkeeping between them (keep-fastest selection, cost
                // metrics) is unmeasured. The 5% acceptance bound is gated
                // on the round benchmark's workloads; this tiny model
                // leaves more headroom for clock granularity and noise.
                assert!(
                    covered as f64 >= rec.step_nanos as f64 * 0.5,
                    "{name}, round {round}: phases cover only {covered} of {} ns",
                    rec.step_nanos
                );
                assert!(
                    rec.phase_nanos_of(Phase::Train) > 0,
                    "{name}: train phase unmeasured"
                );
                steps += rec.step_nanos;
                kept += rec.kept;
            }
            // The hub aggregated the same spans (Train is recorded by the
            // training driver itself, inside the step; the rest by the
            // engine's `PhaseClock::close`).
            assert!(tel.phase_nanos(Phase::Train) > 0);
            assert!(
                tel.phase_nanos(Phase::Train) <= steps,
                "{name}: training spans fell outside the step"
            );
            assert!(tel.phase_nanos(Phase::Encode) > 0);
            let snap = tel.snapshot();
            assert!(
                snap.value("gluefl_phase_spans_total", &[("phase", "train")])
                    .unwrap()
                    > 0.0
            );
            assert!(snap.value("gluefl_wire_up_bytes_count", &[]).unwrap() > 0.0);
            assert!(
                snap.value("gluefl_client_update_norm_milli_count", &[])
                    .unwrap()
                    > 0.0
            );
            // The snapshot exports the hub's phase table as it stands, and
            // the exposition renders one line per sample.
            for p in Phase::ALL {
                assert_eq!(
                    snap.value("gluefl_phase_nanos_total", &[("phase", p.name())]),
                    Some(tel.phase_nanos(p) as f64),
                    "{name}: {}",
                    p.name()
                );
                assert_eq!(
                    snap.value("gluefl_phase_spans_total", &[("phase", p.name())]),
                    Some(tel.phase_spans(p) as f64),
                    "{name}: {}",
                    p.name()
                );
            }
            assert_eq!(snap.render_text().lines().count(), snap.samples.len());
            // One upload-bytes observation per folded upload: every kept
            // in-process client delivers.
            assert_eq!(
                snap.value("gluefl_wire_up_bytes_count", &[]),
                Some(kept as f64),
                "{name}"
            );
        }
    }

    #[test]
    fn telemetry_off_leaves_measured_fields_zero() {
        let cfg = tiny_cfg(StrategyConfig::FedAvg);
        let mut sim = Simulation::new(cfg);
        let rec = sim.step();
        assert_eq!(rec.step_nanos, 0);
        assert_eq!(rec.phase_nanos, [0; PHASE_COUNT]);
        assert!(sim.telemetry().is_none());
    }

    #[test]
    fn training_improves_accuracy_over_rounds() {
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
        cfg.rounds = 30;
        cfg.eval_every = 30;
        cfg.initial_lr = 0.05;
        let result = Simulation::new(cfg).run();
        let final_acc = result.total.accuracy;
        // 8 classes → chance 12.5%.
        assert!(
            final_acc > 0.3,
            "final accuracy {final_acc} barely above chance"
        );
    }

    #[test]
    fn models_without_bn_statistics_still_train() {
        // Regression: with stats_len == 0 the per-client stats slices are
        // empty — training must still run for every invited client.
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
        cfg.model.batch_norm = false;
        let mut sim = Simulation::new(cfg);
        assert_eq!(sim.model().layout().statistic_count(), 0);
        let rec = sim.step();
        let dim = sim.model().num_params();
        assert!(
            rec.changed_positions as f64 > 0.9 * dim as f64,
            "only {}/{} changed — clients did not train",
            rec.changed_positions,
            dim
        );
    }

    /// An empty minibatch used to train nothing without a word (zero
    /// gradients, BN statistics decaying toward 0); `local_steps == 0`
    /// stays legal.
    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected_at_setup() {
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
        cfg.batch_size = 0;
        let _ = Simulation::new(cfg);
    }

    #[test]
    fn availability_reduces_candidates() {
        let mut cfg = tiny_cfg(StrategyConfig::FedAvg);
        cfg.availability = Some(crate::config::AvailabilityConfig {
            online_fraction: 0.5,
            mean_session_rounds: 5.0,
        });
        let mut sim = Simulation::new(cfg);
        let rec = sim.step();
        assert!(rec.invited > 0); // still finds clients among the online half
    }

    #[test]
    fn run_produces_expected_round_count() {
        let cfg = tiny_cfg(StrategyConfig::FedAvg);
        let rounds = cfg.rounds;
        let result = Simulation::new(cfg).run();
        assert_eq!(result.rounds.len(), rounds as usize);
        assert_eq!(result.total.rounds, rounds);
    }
}
