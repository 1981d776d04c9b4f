//! Any arrival order ≡ the id-ordered fold, bit-exact, for every strategy.
//!
//! The engine folds kept uploads through its
//! [`gluefl_core::stream::StreamingAggregator`] in whatever order they
//! arrive; the reference round (`reference/mod.rs`) folds them in
//! ascending client id. Each case runs a drawn strategy configuration on
//! the engine under one of five wire policies, every round's uploads
//! delivered in a drawn random order, and holds every round to the
//! reference (`plays_reference/`): a divergence in round `r`'s fold
//! would show in its parameters, and in every later round's masks,
//! prices and residuals. The over-committed remainder of each round is
//! never encoded, decoded or folded. The lossy codecs fold the same
//! decoded values on both sides, and the entropy layouts change the
//! bytes, never the decoded uploads.

mod plays_reference;
mod reference;

use gluefl_core::WirePolicy;
use gluefl_wire::Codec;
use plays_reference::{assert_engine_plays_reference, strategies, tiny};
use proptest::prelude::*;

/// Strategy `which` of [`strategies`] under `wire` for three rounds,
/// over-committed 1.6×, its uploads arriving in the order drawn from
/// `order`; one local step on an 8-wide hidden layer keeps a case to
/// milliseconds.
fn check(wire: WirePolicy, which: usize, seed: u64, order: u64) {
    let mut cfg = tiny(strategies()[which].clone(), wire, seed);
    (cfg.availability, cfg.oc) = (None, 1.6);
    (cfg.model.hidden, cfg.local_steps) = (vec![8], 1);
    assert_engine_plays_reference(&cfg, 3, Some(order));
}

proptest! {
    /// Every strategy × F32: shuffled arrivals ≡ the id-ordered fold.
    #[test]
    fn any_order_matches_id_order_f32(which in 0usize..8, seed in 0u64..100_000, order in any::<u64>()) {
        check(WirePolicy::legacy(Codec::F32), which, seed, order);
    }

    /// Every strategy × the lossy F16 codec.
    #[test]
    fn any_order_matches_id_order_f16(which in 0usize..8, seed in 0u64..100_000, order in any::<u64>()) {
        check(WirePolicy::legacy(Codec::F16), which, seed, order);
    }

    /// Every strategy × the stochastically-rounded QuantU8 codec.
    #[test]
    fn any_order_matches_id_order_quant_u8(which in 0usize..8, seed in 0u64..100_000, order in any::<u64>()) {
        check(WirePolicy::legacy(Codec::QuantU8), which, seed, order);
    }

    /// Every strategy × the entropy layouts (delta-varint indices, RLE
    /// sections), bit-exact F32 values.
    #[test]
    fn any_order_matches_id_order_entropy_f32(which in 0usize..8, seed in 0u64..100_000, order in any::<u64>()) {
        check(WirePolicy::entropy(Codec::F32), which, seed, order);
    }

    /// Every strategy × entropy layouts on top of QuantU8.
    #[test]
    fn any_order_matches_id_order_entropy_quant_u8(which in 0usize..8, seed in 0u64..100_000, order in any::<u64>()) {
        check(WirePolicy::entropy(Codec::QuantU8), which, seed, order);
    }
}
