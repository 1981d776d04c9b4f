//! Per-round client availability as a two-state on/off renewal process.
//!
//! Clients alternate between *online* sessions and *offline* gaps whose
//! lengths are geometrically distributed — the discrete analogue of the
//! exponential session lengths observed in mobile-device traces (FedScale's
//! client-behaviour trace). The process is realised two ways over the same
//! per-client random streams:
//!
//! * [`LazyAvailability`] — the production form. A client's entire
//!   trajectory is a pure function of `(seed, client)`, so its state at any
//!   round is computed on demand in O(1) amortised time and O(touched
//!   clients) memory. A round that invites `K` of `N` clients touches `K`
//!   cursors and never scans the population.
//! * [`AvailabilityTraceRef`] — the eager reference twin: a dense
//!   `Vec<bool>` advanced one round at a time for *all* clients, consuming
//!   the identical per-client streams. Bit-identical to the lazy process by
//!   construction; retained for tests and for examples that want
//!   population-wide statistics.
//!
//! # Counter-based streams and the closed-form skip distribution
//!
//! Every random decision about client `i` is indexed, not sequenced: draw
//! `j` of client `i` is `splitmix64(seed_i + j·φ)` where `seed_i` derives
//! from `(master_seed, i)` and `φ` is the splitmix64 golden-ratio
//! increment — i.e. the canonical splitmix64 output stream seeded at
//! `seed_i`. Draw 0 picks the round-0 state from the stationary
//! distribution; draw `j ≥ 1` is the length of the `j`-th state segment.
//!
//! Segment lengths use the inverse CDF of the geometric distribution. A
//! state with per-round flip probability `p` persists for
//! `L ~ Geometric(p)` rounds, `P(L = k) = (1−p)^{k−1}·p` for `k ≥ 1`,
//! which is sampled closed-form from one uniform `u ∈ [0, 1)` as
//!
//! ```text
//! L = 1 + ⌊ ln(1 − u) / ln(1 − p) ⌋
//! ```
//!
//! This lets the lazy cursor *skip* an arbitrary number of rounds in one
//! draw instead of flipping a Bernoulli coin per round per client. Because
//! the geometric distribution is memoryless, the segment formulation is
//! distributionally identical to the per-round Markov chain it replaces,
//! and because draws are indexed, the result is bit-identical no matter
//! which order clients (or rounds) are queried in: lazy ≡ eager ≡ serial ≡
//! parallel.

use gluefl_tensor::rng::{derive_seed, splitmix64};
use std::collections::HashMap;

/// The splitmix64 golden-ratio increment (stream counter stride).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Upper bound on one segment length, so cursor arithmetic cannot
/// overflow even for degenerate flip probabilities.
const MAX_SEGMENT: u64 = 1 << 32;

/// Inverse-CDF sample of `Geometric(p)` (support `k ≥ 1`) from `u ∈ [0,1)`.
fn geometric_len(u: f64, p: f64) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    debug_assert!(p > 0.0, "flip probability must be positive");
    let ratio = (1.0 - u).ln() / (1.0 - p).ln();
    // NaN (0/0 for degenerate inputs) must also take the clamped branch.
    if ratio.is_nan() || ratio >= MAX_SEGMENT as f64 {
        return MAX_SEGMENT;
    }
    1 + ratio as u64
}

/// Shared parameters + stream discipline of the two-state session process.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SessionModel {
    online_fraction: f64,
    /// P(online → offline) per round; 1/mean_session_rounds.
    p_leave: f64,
    /// P(offline → online) per round; stationary-balance solution.
    p_join: f64,
    seed: u64,
}

impl SessionModel {
    fn new(online_fraction: f64, mean_session_rounds: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&online_fraction) && online_fraction > 0.0,
            "online fraction must be in (0,1)"
        );
        assert!(
            mean_session_rounds >= 1.0,
            "mean session must be >= 1 round"
        );
        // Geometric session length: mean = 1/p_leave.
        let p_leave = 1.0 / mean_session_rounds;
        // Stationary fraction f = p_join/(p_join + p_leave)
        //   → p_join = f·p_leave/(1−f).
        let p_join = (online_fraction * p_leave / (1.0 - online_fraction)).min(1.0);
        Self {
            online_fraction,
            p_leave,
            p_join,
            seed,
        }
    }

    /// Draw `draw` of client `client`'s stream, as a uniform in `[0,1)`.
    fn unit(self, client: usize, draw: u32) -> f64 {
        let base = derive_seed(self.seed, "avail-client", client as u64);
        let bits = splitmix64(base.wrapping_add(u64::from(draw).wrapping_mul(GOLDEN)));
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Round-0 state, from the stationary distribution (draw 0).
    fn initial_state(self, client: usize) -> bool {
        self.unit(client, 0) < self.online_fraction
    }

    /// Length of the segment whose sample is stream draw `draw`, given the
    /// state held *during* that segment.
    fn segment_len(self, client: usize, draw: u32, online: bool) -> u64 {
        let p = if online { self.p_leave } else { self.p_join };
        geometric_len(self.unit(client, draw), p)
    }
}

/// One client's lazily-advanced position in its segment sequence.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    online: bool,
    /// First round covered by the current segment.
    seg_start: u64,
    /// One past the last round covered by the current segment.
    seg_end: u64,
    /// Stream index of the *next* segment-length draw.
    next_draw: u32,
}

impl Cursor {
    fn fresh(model: SessionModel, client: usize) -> Self {
        let online = model.initial_state(client);
        let seg_end = model.segment_len(client, 1, online);
        Self {
            online,
            seg_start: 0,
            seg_end,
            next_draw: 2,
        }
    }
}

/// Lazy, counter-based client availability: O(1) amortised per query,
/// O(touched clients) memory, bit-identical under any touch order.
///
/// See the module docs for the stream discipline and the
/// closed-form skip distribution. Queries for monotonically non-decreasing
/// rounds advance a per-client cursor segment by segment; a query for an
/// earlier round deterministically replays the client's stream from round
/// 0, so out-of-order access changes cost, never answers.
///
/// # Example
///
/// ```
/// use gluefl_net::LazyAvailability;
/// let mut lazy = LazyAvailability::new(1_000_000, 0.8, 20.0, 7);
/// // Touching two clients costs two cursors, not a million:
/// let a = lazy.is_online(3, 10);
/// let b = lazy.is_online(999_999, 10);
/// assert_eq!(lazy.touched(), 2);
/// // Pure function of (seed, client, round): re-query agrees.
/// assert_eq!(a, lazy.is_online(3, 10));
/// assert_eq!(b, lazy.is_online(999_999, 10));
/// ```
#[derive(Debug, Clone)]
pub struct LazyAvailability {
    n: usize,
    /// `None` = every client is always online (availability disabled).
    model: Option<SessionModel>,
    cursors: HashMap<usize, Cursor>,
}

impl LazyAvailability {
    /// Creates the process over `n` clients with stationary online fraction
    /// `online_fraction` and mean online session length
    /// `mean_session_rounds` (in rounds). Construction is O(1): no
    /// per-client state exists until a client is first queried.
    ///
    /// # Panics
    /// Panics unless `0 < online_fraction < 1` and
    /// `mean_session_rounds >= 1`.
    #[must_use]
    pub fn new(n: usize, online_fraction: f64, mean_session_rounds: f64, seed: u64) -> Self {
        Self {
            n,
            model: Some(SessionModel::new(
                online_fraction,
                mean_session_rounds,
                seed,
            )),
            cursors: HashMap::new(),
        }
    }

    /// A process where every client is always online (used to disable
    /// availability effects in ablations).
    #[must_use]
    pub fn always_on(n: usize) -> Self {
        Self {
            n,
            model: None,
            cursors: HashMap::new(),
        }
    }

    /// Number of clients tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the process tracks zero clients.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether client `id` is online at `round`.
    ///
    /// Amortised O(1) for non-decreasing rounds per client; a backward
    /// query replays the client's segment stream from round 0.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_online(&mut self, id: usize, round: u32) -> bool {
        assert!(id < self.n, "client {id} out of range {}", self.n);
        let Some(model) = self.model else {
            return true;
        };
        let round = u64::from(round);
        let cur = self
            .cursors
            .entry(id)
            .or_insert_with(|| Cursor::fresh(model, id));
        if round < cur.seg_start {
            // Adversarial (backward) touch: replay deterministically.
            *cur = Cursor::fresh(model, id);
        }
        while round >= cur.seg_end {
            cur.online = !cur.online;
            cur.seg_start = cur.seg_end;
            let len = model.segment_len(id, cur.next_draw, cur.online);
            cur.seg_end = cur.seg_end.saturating_add(len);
            cur.next_draw = cur.next_draw.saturating_add(1);
        }
        cur.online
    }

    /// Number of clients whose cursors have been materialised — the
    /// process's resident state is proportional to this, not to `N`.
    #[must_use]
    pub fn touched(&self) -> usize {
        self.cursors.len()
    }
}

/// Eager reference twin of [`LazyAvailability`]: a dense per-round scan
/// over the whole population, consuming the identical counter-based
/// per-client streams.
///
/// `online()[id]` after `r` calls to [`advance`](Self::advance) equals
/// `LazyAvailability::is_online(id, r)` bit-for-bit (pinned by the
/// `lazy_parity` proptest suite). Each advance is O(N); this type exists
/// as the test oracle, the `avail_advance_1m` kernel baseline, and for
/// callers that genuinely want population-wide statistics per round.
///
/// # Example
///
/// ```
/// use gluefl_net::{AvailabilityTraceRef, LazyAvailability};
/// let mut eager = AvailabilityTraceRef::new(100, 0.8, 20.0, 7);
/// let mut lazy = LazyAvailability::new(100, 0.8, 20.0, 7);
/// for round in 0..5 {
///     assert_eq!(eager.is_online(42), lazy.is_online(42, round));
///     eager.advance();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct AvailabilityTraceRef {
    model: Option<SessionModel>,
    online: Vec<bool>,
    /// Rounds left before the current segment ends, per client.
    remaining: Vec<u64>,
    /// Stream index of each client's next segment-length draw.
    next_draw: Vec<u32>,
}

impl AvailabilityTraceRef {
    /// Creates the dense twin over `n` clients at round 0; same parameters
    /// and panics as [`LazyAvailability::new`]. Construction is O(N).
    #[must_use]
    pub fn new(n: usize, online_fraction: f64, mean_session_rounds: f64, seed: u64) -> Self {
        let model = SessionModel::new(online_fraction, mean_session_rounds, seed);
        let online: Vec<bool> = (0..n).map(|i| model.initial_state(i)).collect();
        let remaining: Vec<u64> = online
            .iter()
            .enumerate()
            .map(|(i, &state)| model.segment_len(i, 1, state))
            .collect();
        Self {
            model: Some(model),
            online,
            remaining,
            next_draw: vec![2; n],
        }
    }

    /// A dense twin where every client is always online.
    #[must_use]
    pub fn always_on(n: usize) -> Self {
        Self {
            model: None,
            online: vec![true; n],
            remaining: Vec::new(),
            next_draw: Vec::new(),
        }
    }

    /// Number of clients tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.online.len()
    }

    /// Returns `true` when the trace tracks zero clients.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.online.is_empty()
    }

    /// Current online flags, indexed by client id.
    #[must_use]
    pub fn online(&self) -> &[bool] {
        &self.online
    }

    /// Whether client `id` is online at the current round.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_online(&self, id: usize) -> bool {
        self.online[id]
    }

    /// Advances every client's state by one round — the O(N) scan the
    /// lazy process exists to avoid.
    pub fn advance(&mut self) {
        let Some(model) = self.model else { return };
        for i in 0..self.online.len() {
            self.remaining[i] -= 1;
            if self.remaining[i] == 0 {
                self.online[i] = !self.online[i];
                self.remaining[i] = model.segment_len(i, self.next_draw[i], self.online[i]);
                self.next_draw[i] = self.next_draw[i].saturating_add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_fraction_holds() {
        let mut t = AvailabilityTraceRef::new(2_000, 0.7, 15.0, 1);
        let mut total_online = 0usize;
        let rounds = 200;
        for _ in 0..rounds {
            t.advance();
            total_online += t.online().iter().filter(|&&b| b).count();
        }
        let frac = total_online as f64 / (2_000 * rounds) as f64;
        assert!((frac - 0.7).abs() < 0.03, "online fraction {frac}");
    }

    #[test]
    fn sessions_have_expected_length() {
        let mut t = AvailabilityTraceRef::new(200, 0.5, 10.0, 2);
        // Measure online-run lengths of client 0 over many rounds.
        let mut lengths = Vec::new();
        let mut run = 0usize;
        for _ in 0..60_000 {
            t.advance();
            if t.is_online(0) {
                run += 1;
            } else if run > 0 {
                lengths.push(run);
                run = 0;
            }
        }
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean session {mean}");
    }

    #[test]
    fn lazy_state_is_proportional_to_touched_clients() {
        let mut lazy = LazyAvailability::new(1_000_000, 0.8, 40.0, 5);
        for id in (0..1_000_000).step_by(100_000) {
            let _ = lazy.is_online(id, 500);
        }
        assert_eq!(lazy.touched(), 10);
    }

    #[test]
    fn always_on_never_drops() {
        let mut t = AvailabilityTraceRef::always_on(50);
        let mut lazy = LazyAvailability::always_on(50);
        for round in 0..100u32 {
            t.advance();
            assert!(t.online().iter().all(|&b| b));
            assert!((0..50).all(|id| lazy.is_online(id, round)));
        }
        assert_eq!(lazy.touched(), 0, "always-on must not materialise cursors");
    }

    #[test]
    #[should_panic(expected = "online fraction")]
    fn rejects_bad_fraction() {
        let _ = LazyAvailability::new(10, 1.5, 10.0, 0);
    }

    #[test]
    #[should_panic(expected = "mean session")]
    fn eager_rejects_bad_mean() {
        let _ = AvailabilityTraceRef::new(10, 0.5, 0.5, 0);
    }

    #[test]
    fn geometric_len_matches_distribution() {
        // Inverse-CDF boundaries: P(L <= k) = 1 - (1-p)^k.
        let p = 0.25f64;
        for k in 1..=8u32 {
            let below = 1.0 - (1.0 - p).powi(k as i32) - 1e-12;
            let above = 1.0 - (1.0 - p).powi(k as i32 - 1) + 1e-12;
            assert_eq!(geometric_len(below, p), u64::from(k));
            assert_eq!(geometric_len(above, p), u64::from(k));
        }
        assert_eq!(geometric_len(0.0, p), 1);
        assert_eq!(geometric_len(0.999_999, 1.0), 1);
    }
}
