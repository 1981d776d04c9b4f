//! The fixed round-phase enum shared by every span in the stack.

/// Number of [`Phase`] variants; sizes the per-phase span tables.
pub const PHASE_COUNT: usize = 9;

/// The phases of one federated round, in execution order.
///
/// The set is fixed on purpose: every span anywhere in the stack maps
/// onto one of these nine phases, so per-phase tables are plain arrays
/// (`[u64; PHASE_COUNT]`) with no allocation or hashing on the hot
/// path, and `trace.csv` columns are stable across tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Client sampling: drawing the invited cohort.
    Draw,
    /// Serializing and accounting the model/mask broadcast.
    Broadcast,
    /// Local training: every client turn the round takes. A client's span
    /// covers its whole turn — building its data shard, training,
    /// compressing the delta and pricing the upload — on the in-process
    /// clients and on a socket client (its `INVITE` handler) alike. The
    /// round engine times both calls a turn may run in: the invitation,
    /// and the grant, where the in-process clients take the kept clients'
    /// turns when the broadcast alone prices every upload (FedAvg, APF).
    Train,
    /// Collecting offers and waiting for the kept uploads' bytes. The
    /// round engine serializes nothing itself: its IO produces each kept
    /// upload on a producer thread while the engine decodes and folds the
    /// previous one, so this phase is the engine's *un-overlapped* wait
    /// for the next arrival. On the in-process clients that is the part
    /// of the next upload's serialization the previous fold did not hide
    /// (their compress and pricing ran in [`Phase::Train`]); on the
    /// socket server it includes the wait for the clients' `OFFER`s and
    /// uploads.
    Encode,
    /// Parsing received upload frames back into sparse updates.
    Decode,
    /// Streaming each decoded update into the aggregate.
    Fold,
    /// The aggregator's final masked top-k selection.
    TopK,
    /// Applying the masked update to the global model.
    Apply,
    /// Sticky-cohort rebalancing at end of round.
    Rebalance,
}

impl Phase {
    /// All phases in execution order — iterate this for stable output.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Draw,
        Phase::Broadcast,
        Phase::Train,
        Phase::Encode,
        Phase::Decode,
        Phase::Fold,
        Phase::TopK,
        Phase::Apply,
        Phase::Rebalance,
    ];

    /// Stable lower-case name, used as the `phase` label value and the
    /// `trace.csv` column suffix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Draw => "draw",
            Phase::Broadcast => "broadcast",
            Phase::Train => "train",
            Phase::Encode => "encode",
            Phase::Decode => "decode",
            Phase::Fold => "fold",
            Phase::TopK => "topk",
            Phase::Apply => "apply",
            Phase::Rebalance => "rebalance",
        }
    }

    /// Index into `[_; PHASE_COUNT]` tables (execution order).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        for a in Phase::ALL {
            for b in Phase::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }
}
