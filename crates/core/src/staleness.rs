//! Client staleness tracking: how much must a client download to re-sync?
//!
//! The central observation of the paper's §2.3 is that a client that
//! skipped rounds `v+1..t` must download *every position that changed in
//! any of those rounds*. The server tracks, per position, the model
//! version at which it last changed; a client holding version `v` then
//! needs `|{j : last_changed[j] > v}|` values.
//!
//! To answer that count in O(1) per query we additionally maintain a
//! histogram `hist[r] = #positions whose last_changed == r` and its prefix
//! sums, rebuilt once per version bump (O(rounds) per round, O(changed)
//! for the histogram maintenance).

use gluefl_wire::{legacy_sparse_len, Codec, FrameWriter, WirePolicy};

/// Tracks per-position change versions and per-client sync versions.
///
/// Versions: the global model starts at version 0; applying round `t`'s
/// update bumps the version to `t+1` and stamps the changed positions.
///
/// # Example
///
/// ```
/// use gluefl_core::StalenessTracker;
/// let mut st = StalenessTracker::new(10, 3);
/// // Round 0: positions 0..5 change.
/// st.record_update((0..5).collect::<Vec<_>>().into_iter());
/// // A client still at version 0 must download those 5 positions.
/// assert_eq!(st.stale_positions(0), 5);
/// // Client 1 syncs to the current version and is up to date.
/// st.mark_synced(1);
/// assert_eq!(st.stale_positions(st.client_version(1)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    /// Version at which each position last changed (0 = never).
    last_changed: Vec<u32>,
    /// Current global model version (= number of updates applied).
    version: u32,
    /// hist\[r\] = number of positions with last_changed == r.
    hist: Vec<usize>,
    /// prefix\[r\] = Σ_{r' <= r} hist\[r'\] (rebuilt lazily per version).
    prefix: Vec<usize>,
    /// Per-client model version.
    client_version: Vec<u32>,
}

impl StalenessTracker {
    /// Creates a tracker for `dim` positions and `clients` clients, all at
    /// version 0 (everyone holds the initial broadcast model).
    #[must_use]
    pub fn new(dim: usize, clients: usize) -> Self {
        let mut hist = vec![0usize; 1];
        hist[0] = dim;
        Self {
            last_changed: vec![0; dim],
            version: 0,
            hist,
            prefix: vec![dim],
            client_version: vec![0; clients],
        }
    }

    /// Model dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.last_changed.len()
    }

    /// Current global model version.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The version client `id` last synchronised to.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn client_version(&self, id: usize) -> u32 {
        self.client_version[id]
    }

    /// Marks client `id` as holding the *current* version (they downloaded
    /// the model at the start of this round).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn mark_synced(&mut self, id: usize) {
        self.client_version[id] = self.version;
    }

    /// Records the positions changed by this round's aggregated update and
    /// bumps the global version. A position listed twice is stamped once.
    pub fn record_update<I: IntoIterator<Item = usize>>(&mut self, changed: I) {
        let _ = self.record_update_with(|stamp| changed.into_iter().for_each(|j| stamp.mark(j)));
    }

    /// [`record_update`](Self::record_update) for a caller that walks the
    /// changed positions itself, with a callback scan such as
    /// [`gluefl_tensor::MaskedUpdate::for_each_nonzero`]: `walk` marks
    /// each one on the [`Stamp`] it is handed, so no list of positions is
    /// built in between. Returns the number of positions marked, each
    /// counted once.
    ///
    /// Positions move between histogram buckets a run at a time:
    /// consecutive positions that last changed at the same version —
    /// every position of a FedAvg round, the blocks of a masked one — cost
    /// one bucket update per run, not one per position.
    #[must_use]
    pub fn record_update_with(&mut self, walk: impl FnOnce(&mut Stamp<'_>)) -> usize {
        let version = self.version + 1;
        self.hist.push(0);
        let mut stamp = Stamp {
            last_changed: &mut self.last_changed,
            hist: &mut self.hist,
            version,
            run_from: 0,
            run_len: 0,
        };
        walk(&mut stamp);
        stamp.end_run(0);
        self.version = version;
        // Rebuild prefix sums once per version.
        self.prefix.resize(self.hist.len(), 0);
        let mut acc = 0usize;
        for (p, h) in self.prefix.iter_mut().zip(&self.hist) {
            acc += h;
            *p = acc;
        }
        self.hist[version as usize]
    }

    /// Number of positions that changed after version `v` — the size of
    /// the partial-model download for a client holding version `v`.
    #[must_use]
    pub fn stale_positions(&self, v: u32) -> usize {
        let dim = self.dim();
        if v >= self.version {
            return 0;
        }
        dim - self.prefix[v as usize]
    }

    /// Download bytes (including header) for client `id` to re-sync
    /// now, priced as the v1 F32 frame that would carry it: a dense
    /// frame when every position is stale, otherwise a sparse frame of
    /// `stale_positions` values with the cheaper of bitmap/index
    /// positions ([`legacy_sparse_len`]) — header only when already
    /// current.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn download_bytes(&self, id: usize) -> u64 {
        let stale = self.stale_positions(self.client_version[id]);
        if stale == self.dim() {
            FrameWriter::new(WirePolicy::legacy(Codec::F32)).dense_len(stale)
        } else {
            legacy_sparse_len(Codec::F32, self.dim(), stale)
        }
    }
}

/// One round's marking of changed positions, handed out by
/// [`StalenessTracker::record_update_with`].
#[derive(Debug)]
pub struct Stamp<'a> {
    last_changed: &'a mut [u32],
    hist: &'a mut [usize],
    /// The version being recorded.
    version: u32,
    /// The current run: the version its positions leave, and its length.
    run_from: u32,
    run_len: usize,
}

impl Stamp<'_> {
    /// Marks position `j` as changed in the version being recorded; a
    /// position marked twice counts once.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[inline]
    pub fn mark(&mut self, j: usize) {
        let old = std::mem::replace(&mut self.last_changed[j], self.version);
        if old != self.run_from {
            self.end_run(old);
        }
        self.run_len += 1;
    }

    /// Moves the current run into the new version's bucket and starts an
    /// empty one leaving version `from`. A run of positions marked twice
    /// leaves the new version for itself: it moves nothing.
    fn end_run(&mut self, from: u32) {
        self.hist[self.version as usize] += self.run_len;
        self.hist[self.run_from as usize] -= self.run_len;
        (self.run_from, self.run_len) = (from, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const HEADER_BYTES: u64 = gluefl_wire::HEADER_BYTES as u64;

    #[test]
    fn fresh_tracker_has_no_staleness() {
        let st = StalenessTracker::new(100, 5);
        assert_eq!(st.stale_positions(0), 0);
        assert_eq!(st.download_bytes(0), HEADER_BYTES);
    }

    #[test]
    fn single_round_staleness() {
        let mut st = StalenessTracker::new(10, 2);
        st.record_update(vec![1, 3, 5]);
        assert_eq!(st.version(), 1);
        assert_eq!(st.stale_positions(0), 3);
        assert_eq!(st.stale_positions(1), 0);
    }

    #[test]
    fn staleness_accumulates_as_union_not_sum() {
        let mut st = StalenessTracker::new(10, 1);
        st.record_update(vec![0, 1, 2]);
        st.record_update(vec![2, 3]); // overlap at 2
                                      // Client at version 0 needs union {0,1,2,3} = 4, not 5.
        assert_eq!(st.stale_positions(0), 4);
        // Client at version 1 needs only round 2's change set.
        assert_eq!(st.stale_positions(1), 2);
    }

    #[test]
    fn skipping_more_rounds_costs_monotonically_more() {
        // Figure 2b: the more rounds skipped, the larger the download.
        let mut st = StalenessTracker::new(1000, 1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let changed: Vec<usize> = (0..1000).filter(|_| rng.gen::<f64>() < 0.1).collect();
            st.record_update(changed);
        }
        let mut prev = 0;
        for v in (0..30u32).rev() {
            let s = st.stale_positions(v);
            assert!(s >= prev, "staleness not monotone at version {v}");
            prev = s;
        }
    }

    #[test]
    fn sync_resets_download() {
        let mut st = StalenessTracker::new(50, 2);
        st.record_update(0..50);
        assert!(st.download_bytes(0) > HEADER_BYTES);
        st.mark_synced(0);
        assert_eq!(st.download_bytes(0), HEADER_BYTES);
        // The other client is still stale.
        assert!(st.download_bytes(1) > HEADER_BYTES);
    }

    #[test]
    fn full_model_download_is_dense_encoded() {
        let mut st = StalenessTracker::new(64, 1);
        st.record_update(0..64);
        // Dense: no positions needed.
        assert_eq!(st.download_bytes(0), HEADER_BYTES + 64 * 4);
    }

    #[test]
    fn partial_download_uses_cheapest_encoding() {
        let mut st = StalenessTracker::new(3200, 1);
        st.record_update(0..10);
        // 10 of 3200: index list (40 B) < bitmap (400 B).
        assert_eq!(st.download_bytes(0), HEADER_BYTES + 40 + 10 * 4);
    }

    #[test]
    fn version_after_sync_tracks_current() {
        let mut st = StalenessTracker::new(10, 1);
        st.record_update(vec![0]);
        st.record_update(vec![1]);
        st.mark_synced(0);
        assert_eq!(st.client_version(0), 2);
        st.record_update(vec![2, 3]);
        assert_eq!(st.stale_positions(st.client_version(0)), 2);
    }
}
