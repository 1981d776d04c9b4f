//! The round engine plays the paper's round, bit for bit.
//!
//! Every case runs [`gluefl_core::RoundEngine`] over the in-process
//! clients beside the reference round of `reference/mod.rs` — Algorithm 3
//! and its baselines written with dense vectors, sorts and id-ordered
//! folds — and compares the two after every round (`plays_reference/`):
//! the invitations, the granted set, the four byte fields, the changed
//! positions, the parameter bits and every banked residual's bits and
//! weight. The cases are the ten configurations `strategy_fingerprints.rs`
//! pins, and a grid of seeded tiny runs: every strategy under every wire
//! codec, with and without availability churn, with and without
//! over-commitment.

mod plays_reference;
mod reference;

use gluefl_compress::CompensationMode;
use gluefl_core::StrategyConfig;
use gluefl_wire::{Codec, WirePolicy};
use plays_reference::{apf, assert_engine_plays_reference, gluefl, strategies, tiny};

const ROUNDS: u32 = 6;

#[test]
fn the_fingerprint_configurations_play_the_reference() {
    let rescaled = CompensationMode::Rescaled;
    let legacy = WirePolicy::default();
    let quant = WirePolicy::legacy(Codec::QuantU8);
    let configs = [
        (StrategyConfig::FedAvg, legacy),
        (StrategyConfig::MdFedAvg, legacy),
        (StrategyConfig::Stc { q: 0.25 }, legacy),
        (StrategyConfig::StcQuantized { q: 0.25 }, legacy),
        (apf(), legacy),
        (gluefl(Some(3), false, rescaled), legacy),
        (gluefl(Some(3), true, rescaled), legacy),
        (gluefl(None, false, rescaled), legacy),
        (StrategyConfig::Stc { q: 0.25 }, quant),
        (gluefl(Some(3), false, rescaled), quant),
    ];
    for (strategy, wire) in configs {
        assert_engine_plays_reference(&tiny(strategy, wire, 11), ROUNDS, None);
    }
}

/// Every strategy × availability on/off × over-commitment 1.0/1.3 under
/// `wire`: 32 runs of six rounds, each on its own seed.
fn grid(wire: WirePolicy, first_seed: u64) {
    let mut seed = first_seed;
    for strategy in strategies() {
        for churn in [false, true] {
            for oc in [1.0, 1.3] {
                let mut cfg = tiny(strategy.clone(), wire, seed);
                cfg.availability = cfg.availability.filter(|_| churn);
                cfg.oc = oc;
                assert_engine_plays_reference(&cfg, ROUNDS, None);
                seed += 1;
            }
        }
    }
}

#[test]
fn every_strategy_plays_the_reference_under_legacy_f32() {
    grid(WirePolicy::legacy(Codec::F32), 100);
}

#[test]
fn every_strategy_plays_the_reference_under_entropy_f32() {
    grid(WirePolicy::entropy(Codec::F32), 200);
}

#[test]
fn every_strategy_plays_the_reference_under_f16() {
    grid(WirePolicy::legacy(Codec::F16), 300);
}

#[test]
fn every_strategy_plays_the_reference_under_quant_u8() {
    grid(WirePolicy::legacy(Codec::QuantU8), 400);
}
