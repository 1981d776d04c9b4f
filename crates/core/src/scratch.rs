//! Scratch buffers for the round hot path.
//!
//! The round engine owns one [`ScratchPool`] and threads it through the
//! strategy's fold ([`crate::strategies::Strategy::fold_begin`] and
//! [`crate::strategies::Strategy::fold_finish`]); each client side owns others — a socket client one, the
//! in-process clients one per pool worker — and threads them through
//! [`crate::ClientTurn::run`]. The per-round kernels (top-k
//! selection, dense accumulation, sparse extraction, mask algebra,
//! residual bookkeeping) so reuse the same allocations round after round.
//! After the first round the hot path performs no steady-state heap
//! allocation:
//!
//! * dense `f32` buffers ([`ScratchPool::take_zeroed`] /
//!   [`ScratchPool::take_cleared`] / [`ScratchPool::take_full`]) back
//!   accumulators, packed value arrays, and trained deltas — a dense
//!   upload *is* its delta buffer, so it comes back here too;
//! * sparse `(u32, f32)` arenas ([`ScratchPool::take_sparse`]) back the
//!   [`gluefl_tensor::SparseUpdate`]s built during compression (a
//!   [`gluefl_tensor::MaskAligned`] part is a plain `f32` buffer);
//! * pooled [`gluefl_tensor::BitMask`]s ([`ScratchPool::take_mask`]) back
//!   the per-round support masks of [`gluefl_tensor::MaskedUpdate`]s and
//!   GlueFL's shifted shared mask;
//! * pooled [`TrainSlot`]s ([`ScratchPool::take_train_slot`]) back local
//!   training and evaluation: one per pool, holding one client's working
//!   weights and a [`gluefl_ml::TrainScratch`], so every client and
//!   every minibatch step reuses warm activation, cache and velocity
//!   buffers.
//!
//! The drivers close the loop: every consumed
//! [`crate::strategies::Upload`] goes back via
//! [`ScratchPool::reclaim_upload`] and the applied
//! [`gluefl_tensor::MaskedUpdate`] via [`ScratchPool::put_update`].
//!
//! Ownership contract: buffers handed out by the `take_*` methods belong
//! to the caller until returned with the matching `put_*`; the pool never
//! aliases them. The pool itself must not be shared across threads —
//! each job of a parallel section owns a pool of its own.

use crate::strategies::Upload;
pub use gluefl_ml::TrainSlot;
use gluefl_tensor::{BitMask, MaskedUpdate, TopKScratch};

/// Upper bound on idle buffers kept per arena (the round working set is
/// far below this; the cap only guards against pathological churn).
const MAX_IDLE: usize = 64;

/// Reusable buffers threaded through the strategy seam.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Shared top-k selection arena (one selection at a time).
    pub topk: TopKScratch,
    /// Dequantized values of the lossy frame a client just encoded (one
    /// frame at a time; see [`crate::StagedTurn::encode`]).
    pub shipped: Vec<f32>,
    free: Vec<Vec<f32>>,
    free_indices: Vec<Vec<u32>>,
    free_masks: Vec<BitMask>,
    free_train: Vec<TrainSlot>,
    free_bytes: Vec<Vec<u8>>,
    free_signs: Vec<Vec<bool>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zero-filled buffer of length `len`, reusing a returned
    /// buffer when one is available.
    #[must_use]
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_cleared();
        buf.resize(len, 0.0);
        buf
    }

    /// Hands out an empty (`len == 0`) buffer with recycled capacity —
    /// for callers that `push`/`extend` exactly the values they need
    /// (e.g. packing a [`MaskedUpdate`]'s values).
    #[must_use]
    pub fn take_cleared(&mut self) -> Vec<f32> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Hands out a buffer of length `len` with **unspecified contents**,
    /// for callers that overwrite every position (a trained delta): an
    /// idle buffer that already has that length is reused as it is — no
    /// fill, no copy — and only when there is none a zeroed one is
    /// allocated. Smaller idle buffers (sparse value arrays) are left for
    /// the callers that want them.
    #[must_use]
    pub fn take_full(&mut self, len: usize) -> Vec<f32> {
        match self.free.iter().rposition(|buf| buf.len() == len) {
            Some(at) => self.free.swap_remove(at),
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f32>) {
        // Keep the pool bounded; tiny buffers are not worth recycling.
        if self.free.len() < MAX_IDLE && buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Hands out a cleared `(indices, values)` buffer pair for the
    /// `SparseUpdate::*_in` constructors.
    #[must_use]
    pub fn take_sparse(&mut self) -> (Vec<u32>, Vec<f32>) {
        let mut ix = self.free_indices.pop().unwrap_or_default();
        ix.clear();
        (ix, self.take_cleared())
    }

    /// Returns a sparse buffer pair (e.g. from
    /// [`gluefl_tensor::SparseUpdate::into_buffers`]) to the pool.
    pub fn put_sparse(&mut self, indices: Vec<u32>, values: Vec<f32>) {
        if self.free_indices.len() < MAX_IDLE && indices.capacity() > 0 {
            self.free_indices.push(indices);
        }
        self.put(values);
    }

    /// Hands out an all-zero mask over `len` positions, reusing a
    /// returned mask's word storage when one is available.
    #[must_use]
    pub fn take_mask(&mut self, len: usize) -> BitMask {
        match self.free_masks.pop() {
            Some(mut m) => {
                m.reset(len);
                m
            }
            None => BitMask::zeros(len),
        }
    }

    /// Returns a mask to the pool for reuse.
    pub fn put_mask(&mut self, mask: BitMask) {
        if self.free_masks.len() < MAX_IDLE {
            self.free_masks.push(mask);
        }
    }

    /// Recycles an applied [`MaskedUpdate`]'s mask and value storage.
    pub fn put_update(&mut self, update: MaskedUpdate) {
        let (mask, values) = update.into_parts();
        self.put_mask(mask);
        self.put(values);
    }

    /// Recycles the buffers inside a consumed upload (folded, encoded or
    /// dropped alike).
    pub fn reclaim_upload(&mut self, upload: Upload) {
        match upload {
            Upload::Dense(values) => self.put(values),
            // The values are the frame's bytes, which the receiver owns.
            Upload::DenseFrame(_) => {}
            Upload::Sparse(u) => {
                let (ix, vals) = u.into_buffers();
                self.put_sparse(ix, vals);
            }
            Upload::KnownMask(u) => self.put(u.into_values()),
            Upload::Ternary(t) => {
                if self.free_indices.len() < MAX_IDLE && t.indices.capacity() > 0 {
                    self.free_indices.push({
                        let mut ix = t.indices;
                        ix.clear();
                        ix
                    });
                }
                if self.free_signs.len() < MAX_IDLE && t.signs.capacity() > 0 {
                    self.free_signs.push(t.signs);
                }
            }
            Upload::MaskSplit(s) => {
                // The reverse of the order both sides take them in
                // (shared, then unique): the arenas are stacks, so each
                // part gets a buffer of its own size back instead of
                // regrowing the other's.
                let (ix, vals) = s.unique.into_buffers();
                self.put_sparse(ix, vals);
                self.put(s.shared.into_values());
            }
        }
    }

    /// Hands out an empty byte arena with recycled capacity — the encode
    /// target for wire frames ([`gluefl_wire`]): the simulator serializes
    /// every round message into pooled arenas, so steady-state encoding
    /// performs no heap allocation.
    #[must_use]
    pub fn take_bytes(&mut self) -> Vec<u8> {
        match self.free_bytes.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a byte arena to the pool for reuse.
    pub fn put_bytes(&mut self, buf: Vec<u8>) {
        if self.free_bytes.len() < MAX_IDLE && buf.capacity() > 0 {
            self.free_bytes.push(buf);
        }
    }

    /// Hands out an empty sign buffer with recycled capacity (ternary
    /// uploads rebuilt from wire frames; recycled by
    /// [`ScratchPool::reclaim_upload`]).
    #[must_use]
    pub fn take_signs(&mut self) -> Vec<bool> {
        match self.free_signs.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Hands out a local-training slot (one client's working weights +
    /// training scratch) for one client's training at a time — a turn
    /// takes it and puts it back — recycling a returned slot when
    /// available.
    #[must_use]
    pub fn take_train_slot(&mut self) -> TrainSlot {
        self.free_train.pop().unwrap_or_default()
    }

    /// Returns a training slot to the pool for reuse.
    pub fn put_train_slot(&mut self, slot: TrainSlot) {
        if self.free_train.len() < MAX_IDLE {
            self.free_train.push(slot);
        }
    }

    /// Largest capacity among the pooled idle `f32` value buffers. Lets
    /// tests assert an aggregation path returned only `O(q·d)` staging to
    /// the pool — i.e. never materialised a dense `d`-length buffer.
    #[must_use]
    pub fn max_idle_value_capacity(&self) -> usize {
        self.free.iter().map(Vec::capacity).max().unwrap_or(0)
    }

    /// Number of idle training slots currently pooled.
    #[must_use]
    pub fn idle_train_slots(&self) -> usize {
        self.free_train.len()
    }

    /// Number of idle dense buffers currently pooled.
    #[must_use]
    pub fn idle_buffers(&self) -> usize {
        self.free.len()
    }

    /// Number of idle masks currently pooled.
    #[must_use]
    pub fn idle_masks(&self) -> usize {
        self.free_masks.len()
    }

    /// Number of idle index buffers currently pooled.
    #[must_use]
    pub fn idle_indices(&self) -> usize {
        self.free_indices.len()
    }

    /// Number of idle byte arenas currently pooled.
    #[must_use]
    pub fn idle_byte_buffers(&self) -> usize {
        self.free_bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluefl_tensor::SparseUpdate;

    #[test]
    fn take_is_zeroed_after_reuse() {
        let mut pool = ScratchPool::new();
        let mut a = pool.take_zeroed(8);
        a.iter_mut().for_each(|v| *v = 7.0);
        pool.put(a);
        assert_eq!(pool.idle_buffers(), 1);
        let b = pool.take_zeroed(16);
        assert_eq!(b, vec![0.0; 16]);
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn shrinking_take_truncates() {
        let mut pool = ScratchPool::new();
        let a = pool.take_zeroed(100);
        pool.put(a);
        let b = pool.take_zeroed(3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn take_full_reuses_only_buffers_of_that_length() {
        let mut pool = ScratchPool::new();
        pool.put(vec![9.0; 32]);
        pool.put(vec![1.0; 4]);
        let full = pool.take_full(32);
        assert_eq!(full, vec![9.0; 32], "reused as is: no fill, no copy");
        assert_eq!(pool.idle_buffers(), 1, "the short buffer stays pooled");
        assert_eq!(pool.take_full(32), vec![0.0; 32], "none left: a fresh one");
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn masks_are_recycled_zeroed() {
        let mut pool = ScratchPool::new();
        let mut m = pool.take_mask(70);
        m.set(3, true);
        pool.put_mask(m);
        assert_eq!(pool.idle_masks(), 1);
        let m = pool.take_mask(130);
        assert_eq!(m.len(), 130);
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn reclaim_upload_feeds_the_arenas() {
        let mut pool = ScratchPool::new();
        pool.reclaim_upload(Upload::Dense(vec![1.0; 4]));
        pool.reclaim_upload(Upload::Sparse(SparseUpdate::from_pairs(
            8,
            vec![(1, 1.0), (3, 2.0)],
        )));
        assert_eq!(pool.idle_buffers(), 2);
        assert_eq!(pool.idle_indices(), 1);
        let (ix, vals) = pool.take_sparse();
        assert!(ix.is_empty() && vals.is_empty());
        assert!(ix.capacity() >= 2);
    }

    #[test]
    fn byte_arenas_recycle_their_storage() {
        let mut pool = ScratchPool::new();
        let mut buf = pool.take_bytes();
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let ptr = buf.as_ptr();
        pool.put_bytes(buf);
        assert_eq!(pool.idle_byte_buffers(), 1);
        let buf = pool.take_bytes();
        assert!(buf.is_empty());
        assert_eq!(buf.as_ptr(), ptr);
    }

    #[test]
    fn train_slots_recycle_their_buffers() {
        let mut pool = ScratchPool::new();
        let mut slot = pool.take_train_slot();
        slot.params.resize(16, 1.0);
        let ptr = slot.params.as_ptr();
        pool.put_train_slot(slot);
        assert_eq!(pool.idle_train_slots(), 1);
        let slot = pool.take_train_slot();
        assert_eq!(slot.params.as_ptr(), ptr);
        assert_eq!(pool.idle_train_slots(), 0);
    }

    #[test]
    fn put_update_recycles_mask_and_values() {
        let mut pool = ScratchPool::new();
        let mask = BitMask::from_indices(10, [0usize, 9]);
        pool.put_update(MaskedUpdate::new(mask, vec![1.0, 2.0]));
        assert_eq!(pool.idle_masks(), 1);
        assert_eq!(pool.idle_buffers(), 1);
    }
}
