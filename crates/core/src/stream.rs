//! Streaming aggregation: fold kept uploads as they arrive.
//!
//! [`StreamingAggregator`] is the ordering gate between a transport that
//! receives uploads in *arrival* order and the [`Strategy`] fold,
//! whose bit-exactness contract requires folding in ascending client-id
//! order (see the [`Strategy`] docs). The gate folds an upload the moment
//! every lower-id kept upload has been folded, and *parks* early arrivals
//! until their turn. An upload folded on arrival is folded as it came —
//! a received dense upload straight from its frame bytes
//! ([`Upload::DenseFrame`]) — and its buffers go straight back to the
//! [`ScratchPool`]. Only a parked upload outlives its arrival, so only a
//! parked upload is materialized into buffers of its own: the only
//! staging that ever exists is the out-of-order prefix of arrivals — the
//! collect-then-aggregate `O(K·nnz)` buffer is gone. What any arrival
//! order must reproduce is the reference round's fold in ascending
//! client-id order (`crates/core/tests/reference/`); `streaming_fold.rs`
//! delivers the engine's uploads in shuffled orders and holds it to that.
//!
//! A kept client that fails mid-round (hostile bytes, disconnect,
//! deadline miss) is [`StreamingAggregator::skip`]ped: its slot is marked
//! dead and later ids keep folding, so one bad client never wedges the
//! round.

use crate::scratch::ScratchPool;
use crate::strategies::{Strategy, Upload};
use gluefl_sampling::ClientId;
use gluefl_tensor::MaskedUpdate;

/// A protocol-level rejection from the streaming gate — the upload was
/// structurally fine but not one the round can accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The client is not in the round's keep set.
    UnknownClient(ClientId),
    /// The client already delivered (or was skipped) this round.
    DuplicateUpload(ClientId),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownClient(c) => write!(f, "client {c} is not in the keep set"),
            Self::DuplicateUpload(c) => write!(f, "client {c} already delivered"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Per-slot delivery state.
#[derive(Debug)]
enum Slot {
    /// Nothing received yet.
    Waiting,
    /// Received out of order; staged, in buffers of its own, until every
    /// lower id folds.
    Parked(Upload<'static>),
    /// Folded into the strategy's partial sums.
    Done,
    /// Skipped: the client failed and contributes nothing.
    Dead,
}

/// The in-order streaming fold over one round's keep set.
///
/// Construction fixes the keep set; [`accept`](Self::accept) feeds
/// arrivals in any order; [`finish`](Self::finish) yields the round's
/// [`MaskedUpdate`], bit-identical to folding the same uploads in
/// ascending client-id order — the order the reference round
/// (`crates/core/tests/reference/`) folds in, and the one
/// `crates/core/tests/streaming_fold.rs` holds shuffled arrivals to.
#[derive(Debug)]
pub struct StreamingAggregator {
    /// Kept `(client, aggregation weight)` pairs sorted by client id.
    expected: Vec<(ClientId, f32)>,
    slots: Vec<Slot>,
    /// Index of the lowest unresolved slot — everything before it folded
    /// or died.
    next: usize,
}

impl StreamingAggregator {
    /// Opens the gate for round `round` over the kept clients, each with
    /// the weight its upload folds at (any order; sorted internally).
    /// Calls [`Strategy::fold_begin`], which takes the round's partial-sum
    /// buffers.
    ///
    /// # Panics
    /// Panics if the keep set contains a duplicate client id.
    #[must_use]
    pub fn begin(
        round: u32,
        kept: &[(ClientId, f32)],
        strategy: &mut Strategy,
        scratch: &mut ScratchPool,
    ) -> Self {
        let mut expected = kept.to_vec();
        expected.sort_unstable_by_key(|&(id, _)| id);
        assert!(
            expected.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate client id in keep set"
        );
        let slots = expected.iter().map(|_| Slot::Waiting).collect();
        strategy.fold_begin(round, scratch);
        Self {
            expected,
            slots,
            next: 0,
        }
    }

    /// Number of kept clients whose uploads have been folded so far.
    #[must_use]
    pub fn folded(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Done))
            .count()
    }

    /// Number of kept clients still unresolved (neither folded, parked,
    /// nor skipped).
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Waiting))
            .count()
    }

    /// Whether every kept slot is resolved — [`finish`](Self::finish)
    /// may be called.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.next == self.expected.len()
    }

    fn slot_of(&self, id: ClientId) -> Result<usize, StreamError> {
        self.expected
            .binary_search_by_key(&id, |&(c, _)| c)
            .map_err(|_| StreamError::UnknownClient(id))
    }

    /// Delivers client `id`'s upload. Folds it immediately when `id` is
    /// the lowest unresolved client (then drains any parked successors),
    /// otherwise parks it. Takes ownership: folded uploads' buffers are
    /// returned to `scratch` on the spot. An upload folded on arrival is
    /// read where it lies — a received dense upload in its frame bytes;
    /// a parked one must outlive those bytes, so it is first
    /// materialized into buffers of its own (for a dense frame, a pooled
    /// copy of its values).
    ///
    /// # Errors
    /// [`StreamError::UnknownClient`] if `id` is not kept;
    /// [`StreamError::DuplicateUpload`] if the slot is already resolved
    /// or parked. The upload's buffers are reclaimed either way.
    pub fn accept(
        &mut self,
        strategy: &mut Strategy,
        id: ClientId,
        upload: Upload,
        scratch: &mut ScratchPool,
    ) -> Result<(), StreamError> {
        let idx = match self.slot_of(id) {
            Ok(i) => i,
            Err(e) => {
                scratch.reclaim_upload(upload);
                return Err(e);
            }
        };
        if !matches!(self.slots[idx], Slot::Waiting) {
            scratch.reclaim_upload(upload);
            return Err(StreamError::DuplicateUpload(id));
        }
        if idx == self.next {
            self.fold_next(strategy, &upload);
            scratch.reclaim_upload(upload);
        } else {
            self.slots[idx] = Slot::Parked(upload.into_owned(scratch));
        }
        self.drain(strategy, scratch);
        Ok(())
    }

    /// Folds `upload` as the lowest unresolved slot's, at its weight.
    fn fold_next(&mut self, strategy: &mut Strategy, upload: &Upload) {
        let (_, weight) = self.expected[self.next];
        strategy.fold_upload(weight, upload);
        self.slots[self.next] = Slot::Done;
        self.next += 1;
    }

    /// Marks kept client `id` as failed: it contributes nothing, later
    /// ids keep folding. A parked upload for the client is discarded.
    ///
    /// # Errors
    /// [`StreamError::UnknownClient`] if `id` is not kept;
    /// [`StreamError::DuplicateUpload`] if the slot already folded or
    /// was already skipped.
    pub fn skip(
        &mut self,
        strategy: &mut Strategy,
        id: ClientId,
        scratch: &mut ScratchPool,
    ) -> Result<(), StreamError> {
        let idx = self.slot_of(id)?;
        match std::mem::replace(&mut self.slots[idx], Slot::Dead) {
            Slot::Waiting => {}
            Slot::Parked(upload) => scratch.reclaim_upload(upload),
            resolved => {
                self.slots[idx] = resolved;
                return Err(StreamError::DuplicateUpload(id));
            }
        }
        self.drain(strategy, scratch);
        Ok(())
    }

    /// Folds every in-order parked upload, advancing past dead slots.
    fn drain(&mut self, strategy: &mut Strategy, scratch: &mut ScratchPool) {
        while self.next < self.expected.len() {
            match &self.slots[self.next] {
                Slot::Dead => {
                    self.next += 1;
                }
                Slot::Parked(_) => {
                    let Slot::Parked(upload) =
                        std::mem::replace(&mut self.slots[self.next], Slot::Done)
                    else {
                        unreachable!("matched Parked above")
                    };
                    self.fold_next(strategy, &upload);
                    scratch.reclaim_upload(upload);
                }
                Slot::Waiting | Slot::Done => break,
            }
        }
    }

    /// Completes the round: runs [`Strategy::fold_finish`] and returns
    /// the aggregate.
    ///
    /// # Panics
    /// Panics unless every kept slot is resolved
    /// ([`complete`](Self::complete)) — the caller decides when to give
    /// up on stragglers via [`skip`](Self::skip), never this type.
    #[must_use]
    pub fn finish(self, strategy: &mut Strategy, scratch: &mut ScratchPool) -> MaskedUpdate {
        assert!(
            self.complete(),
            "streaming aggregation finished with unresolved uploads ({} waiting)",
            self.waiting()
        );
        strategy.fold_finish(scratch)
    }
}

/// Folds `(client, weight, upload)` triples through a gate over exactly
/// those clients, delivered in the order given.
#[cfg(test)]
pub(crate) fn fold_through_gate(
    strategy: &mut Strategy,
    round: u32,
    kept: &[(ClientId, f32, Upload)],
    scratch: &mut ScratchPool,
) -> MaskedUpdate {
    let weights: Vec<(ClientId, f32)> = kept.iter().map(|&(id, w, _)| (id, w)).collect();
    let mut gate = StreamingAggregator::begin(round, &weights, strategy, scratch);
    for (id, _, upload) in kept {
        gate.accept(strategy, *id, upload.clone(), scratch)
            .expect("each kept client delivers once");
    }
    gate.finish(strategy, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::DenseFold;

    /// FedAvg's dense fold over `dim` positions.
    fn dense(dim: usize) -> Strategy {
        Strategy::Dense(DenseFold::new(dim))
    }

    /// Every upload's aggregation weight.
    const W: f32 = 0.2;

    fn uploads(n: usize, dim: usize) -> Vec<(ClientId, f32, Upload<'static>)> {
        (0..n)
            .map(|i| {
                let v: Vec<f32> = (0..dim)
                    .map(|j| (i * dim + j) as f32 * 0.01 - 0.3)
                    .collect();
                (i, W, Upload::Dense(v))
            })
            .collect()
    }

    fn masked_bits(u: &MaskedUpdate) -> Vec<u32> {
        u.values().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn reverse_arrival_matches_id_order() {
        let dim = 9;
        let kept = uploads(5, dim);
        let mut ref_s = dense(dim);
        let mut pool = ScratchPool::new();
        let want = fold_through_gate(&mut ref_s, 0, &kept, &mut pool);

        let mut stream_s = dense(dim);
        let ids: Vec<(ClientId, f32)> = kept.iter().map(|&(c, w, _)| (c, w)).collect();
        let mut pool2 = ScratchPool::new();
        let mut gate = StreamingAggregator::begin(0, &ids, &mut stream_s, &mut pool2);
        for (id, _, upload) in kept.into_iter().rev() {
            gate.accept(&mut stream_s, id, upload, &mut pool2).unwrap();
        }
        assert!(gate.complete());
        let got = gate.finish(&mut stream_s, &mut pool2);
        assert_eq!(masked_bits(&want), masked_bits(&got));
    }

    #[test]
    fn unknown_and_duplicate_are_typed_errors() {
        let dim = 4;
        let mut s = dense(dim);
        let mut pool = ScratchPool::new();
        let mut gate = StreamingAggregator::begin(0, &[(1, W), (3, W)], &mut s, &mut pool);
        assert_eq!(
            gate.accept(&mut s, 2, Upload::Dense(vec![0.0; dim]), &mut pool),
            Err(StreamError::UnknownClient(2))
        );
        gate.accept(&mut s, 1, Upload::Dense(vec![1.0; dim]), &mut pool)
            .unwrap();
        assert_eq!(
            gate.accept(&mut s, 1, Upload::Dense(vec![1.0; dim]), &mut pool),
            Err(StreamError::DuplicateUpload(1))
        );
        assert!(!gate.complete());
        gate.accept(&mut s, 3, Upload::Dense(vec![2.0; dim]), &mut pool)
            .unwrap();
        assert!(gate.complete());
        let _ = gate.finish(&mut s, &mut pool);
    }

    #[test]
    fn skipped_client_unblocks_later_ids() {
        let dim = 4;
        let kept = uploads(3, dim);
        // A gate over clients {1, 2} only.
        let mut ref_s = dense(dim);
        let mut pool = ScratchPool::new();
        let survivors: Vec<_> = kept.iter().filter(|&&(c, _, _)| c != 0).cloned().collect();
        let want = fold_through_gate(&mut ref_s, 0, &survivors, &mut pool);

        let mut s = dense(dim);
        let ids: Vec<(ClientId, f32)> = kept.iter().map(|&(c, w, _)| (c, w)).collect();
        let mut pool2 = ScratchPool::new();
        let mut gate = StreamingAggregator::begin(0, &ids, &mut s, &mut pool2);
        // 1 and 2 arrive first and park behind the missing client 0.
        for (id, _, upload) in kept.into_iter().skip(1) {
            gate.accept(&mut s, id, upload, &mut pool2).unwrap();
        }
        assert_eq!(gate.folded(), 0, "parked uploads must not fold early");
        gate.skip(&mut s, 0, &mut pool2).unwrap();
        assert!(gate.complete());
        assert_eq!(gate.folded(), 2);
        let got = gate.finish(&mut s, &mut pool2);
        assert_eq!(masked_bits(&want), masked_bits(&got));
    }
}
