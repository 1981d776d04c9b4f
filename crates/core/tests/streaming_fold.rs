//! Any arrival order ≡ the id-ordered fold, bit-exact, for every strategy.
//!
//! The [`gluefl_core::stream::StreamingAggregator`] promises that folding
//! kept uploads one at a time — in whatever order they arrive — produces
//! the same `MaskedUpdate`, to the bit, as folding them in ascending
//! client-id order ([`fold_in_id_order`], the reference every driver's
//! result is defined by). These properties drive all six strategy
//! configurations × five wire policies through real encode/decode
//! round-trips for several rounds, deliver the kept uploads in
//! proptest-shuffled arrival orders, and compare the two folds round by
//! round (state evolution included: a divergence in round `r`'s fold
//! would shift every later round's masks). The entropy wire policy
//! (delta-varint indices, RLE mask sections) rides through the same
//! properties: the position layout changes the bytes, never the decoded
//! uploads.
//!
//! The keep-K cutoff identity rides along: the over-committed remainder
//! of each round's invites is dropped without ever being decoded or
//! folded, and the gate still matches the reference over exactly the
//! kept set.

use gluefl_compress::{ApfConfig, CompensationMode};
use gluefl_core::strategies::{Group, Sampler, Strategy, Upload};
use gluefl_core::stream::{fold_in_id_order, StreamingAggregator};
use gluefl_core::{
    wire_link, ClientCompressor, GlueFlParams, ScratchPool, SimConfig, StrategyConfig,
};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_sampling::AllOnline;
use gluefl_tensor::rng::derive_seed;
use gluefl_tensor::{BitMask, MaskedUpdate};
use gluefl_wire::{Codec, FrameWriter, Rounding, WirePolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 24;
const K: usize = 5;
const DIM: usize = 48;
/// Positions `STATS_FROM..DIM` play the BN-statistic role: excluded from
/// every strategy's masks and zero in every delta.
const STATS_FROM: usize = 44;
const ROUNDS: u32 = 3;

fn all_strategy_configs() -> Vec<StrategyConfig> {
    vec![
        StrategyConfig::FedAvg,
        StrategyConfig::MdFedAvg,
        StrategyConfig::Stc { q: 0.25 },
        StrategyConfig::StcQuantized { q: 0.25 },
        StrategyConfig::Apf {
            config: ApfConfig {
                threshold: 0.1,
                ema_beta: 0.9,
                initial_period: 2,
                max_period: 8,
                warmup_rounds: 1,
            },
        },
        StrategyConfig::GlueFl(GlueFlParams {
            q: 0.25,
            q_shr: 0.2,
            sticky_group: 4 * K,
            sticky_draw: 4 * K / 5,
            regen_interval: Some(2), // rounds 0 and 2 regenerate
            compensation: CompensationMode::Rescaled,
            equal_weights: false,
        }),
    ]
}

fn stats_excluded() -> BitMask {
    let mut m = BitMask::zeros(DIM);
    for i in STATS_FROM..DIM {
        m.set(i, true);
    }
    m
}

fn cfg_for(strategy: StrategyConfig, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        strategy,
        0.02,
        ROUNDS,
        seed,
    );
    cfg.round_size = K;
    cfg.oc = 1.6;
    cfg
}

/// A deterministic pseudo-random trainable delta for `(seed, round, id)`;
/// BN-statistic positions are exact zeros, as the simulator guarantees.
fn delta_for(seed: u64, round: u32, id: usize) -> Vec<f32> {
    (0..DIM)
        .map(|j| {
            if j >= STATS_FROM {
                return 0.0;
            }
            let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (id as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ (u64::from(round) << 17)
                ^ (j as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            (h % 2001) as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn bits(u: &MaskedUpdate) -> Vec<u32> {
    u.values().iter().map(|v| v.to_bits()).collect()
}

/// Runs `ROUNDS` rounds of one strategy under one wire policy twice —
/// id-ordered reference fold vs the gate with `order` as the arrival
/// shuffle — and asserts bit-identical updates every round.
fn check_strategy(strategy_cfg: StrategyConfig, policy: WirePolicy, seed: u64, order: &[u64]) {
    let cfg = cfg_for(strategy_cfg, seed);
    let weights = vec![1.0 / N as f64; N];
    let trainable = STATS_FROM;
    let mut rng_a = StdRng::seed_from_u64(derive_seed(seed, "fold-prop", 0));
    let mut rng_b = rng_a.clone();
    let mut sampler_a = Sampler::new(&cfg, &weights, &mut rng_a);
    let mut sampler_b = Sampler::new(&cfg, &weights, &mut rng_b);
    let mut strat_a = Strategy::new(&cfg, trainable, DIM, stats_excluded(), &mut rng_a);
    let mut strat_b = Strategy::new(&cfg, trainable, DIM, stats_excluded(), &mut rng_b);
    // One client half feeds both server halves: the same uploads reach
    // the reference fold and the gate.
    let mut clients = ClientCompressor::new(&cfg, &weights, trainable, DIM, stats_excluded());
    let mut pool_a = ScratchPool::new();
    let mut pool_b = ScratchPool::new();

    for round in 0..ROUNDS {
        // Plan identically on both sides.
        let mut plan_rng_a = StdRng::seed_from_u64(derive_seed(seed, "fold-plan", round.into()));
        let mut plan_rng_b = plan_rng_a.clone();
        let plan_a = sampler_a.plan(&mut plan_rng_a, &mut AllOnline);
        let plan_b = sampler_b.plan(&mut plan_rng_b, &mut AllOnline);
        let invited: Vec<(usize, Group)> = plan_a.invited().collect();
        assert_eq!(invited, plan_b.invited().collect::<Vec<_>>());

        // Compress every *invited* client, kept or dropped (its
        // error-compensation residual evolves either way).
        assert_eq!(strat_a.round_mask(), strat_b.round_mask());
        let mut uploads: Vec<(usize, Group, Upload)> = Vec::new();
        for &(id, group) in &invited {
            let mut delta = delta_for(seed, round, id);
            let mask = strat_a.round_mask();
            let mut residual = clients.check_out(id);
            let upload = clients
                .compress(
                    round,
                    id,
                    group,
                    &mut delta,
                    mask,
                    &mut residual,
                    &mut pool_a,
                )
                .expect("masking strategies expose their round mask");
            clients.check_in(id, residual);
            uploads.push((id, group, upload));
        }

        // Keep-K cutoff: first `keep_sticky` sticky + `keep_fresh` fresh
        // invites survive; the over-committed remainder is dropped
        // without ever being encoded, decoded, or folded.
        let sticky_n = plan_a.sticky_invites.len();
        let keep_s = plan_a.keep_sticky.min(sticky_n);
        let keep_f = plan_a.keep_fresh.min(uploads.len() - sticky_n);
        let mut kept: Vec<(usize, Group, Upload)> = Vec::new();
        for (i, entry) in uploads.into_iter().enumerate() {
            if (i < sticky_n && i < keep_s) || (i >= sticky_n && i < sticky_n + keep_f) {
                kept.push(entry);
            } else {
                pool_a.reclaim_upload(entry.2);
            }
        }

        // Wire round-trip each kept upload once; both folds consume the
        // same decoded bytes, each at its own sampler's weight, exactly
        // like a server would.
        let groups: Vec<(usize, Group)> = kept.iter().map(|&(id, g, _)| (id, g)).collect();
        let decoded: Vec<(usize, f32, Upload)> = {
            let mask = strat_a.round_mask();
            kept.iter()
                .map(|(id, group, upload)| {
                    let key = (u64::from(round) << 32) | *id as u64;
                    let mut buf = Vec::new();
                    let ulen = wire_link::encode_upload(
                        upload,
                        round,
                        &policy,
                        derive_seed(seed, "wire-quant", key),
                        &mut buf,
                    );
                    assert_eq!(ulen as u64, wire_link::encoded_len(upload, &policy));
                    // The (empty) stats frame every sender appends.
                    let _ = FrameWriter::new(policy).known_mask(
                        &mut buf,
                        round,
                        Rounding::Nearest,
                        0,
                        &[],
                    );
                    let (dec, _) = wire_link::decode_upload_with_stats(&buf, mask, &mut pool_a)
                        .expect("clean round-trip");
                    (*id, sampler_a.weight(*id, *group) as f32, dec)
                })
                .collect()
        };
        for (_, _, upload) in kept {
            pool_a.reclaim_upload(upload);
        }

        // Reference: the id-ordered fold on side A.
        let want = fold_in_id_order(&mut strat_a, round, &decoded, &mut pool_a);

        // Streaming fold on side B, arrivals shuffled by the proptest
        // sort keys (stable sort, so equal keys stay deterministic).
        let ids: Vec<(usize, f32)> = groups
            .iter()
            .map(|&(id, g)| (id, sampler_b.weight(id, g) as f32))
            .collect();
        let mut arrival = decoded;
        arrival.sort_by_key(|(id, _, _)| order[*id % order.len()]);
        let mut gate = StreamingAggregator::begin(round, &ids, &mut strat_b, &mut pool_b);
        for (id, _, upload) in arrival {
            gate.accept(&mut strat_b, id, upload, &mut pool_b).unwrap();
        }
        assert!(gate.complete());
        assert_eq!(gate.folded(), ids.len());
        let got = gate.finish(&mut strat_b, &mut pool_b);

        assert_eq!(
            want.mask(),
            got.mask(),
            "round {round}: gate mask diverged from the id-ordered fold"
        );
        assert_eq!(
            bits(&want),
            bits(&got),
            "round {round}: gate values diverged from the id-ordered fold"
        );
        pool_a.put_update(want);
        pool_b.put_update(got);

        // Evolve sticky state identically on both sides.
        let kept_sticky: Vec<usize> = groups
            .iter()
            .filter(|(_, g)| *g == Group::Sticky)
            .map(|&(id, _)| id)
            .collect();
        let kept_fresh: Vec<usize> = groups
            .iter()
            .filter(|(_, g)| *g == Group::Fresh)
            .map(|&(id, _)| id)
            .collect();
        let mut fin_rng_a = StdRng::seed_from_u64(derive_seed(seed, "fold-fin", round.into()));
        let mut fin_rng_b = fin_rng_a.clone();
        sampler_a.rebalance(&mut fin_rng_a, &kept_sticky, &kept_fresh);
        sampler_b.rebalance(&mut fin_rng_b, &kept_sticky, &kept_fresh);
    }
}

proptest! {
    /// Every strategy × F32: shuffled arrivals ≡ the id-ordered fold.
    #[test]
    fn any_order_matches_id_order_f32(
        seed in 0u64..100_000,
        order in proptest::collection::vec(any::<u64>(), 16),
    ) {
        for strategy in all_strategy_configs() {
            check_strategy(strategy, WirePolicy::legacy(Codec::F32), seed, &order);
        }
    }

    /// Every strategy × the lossy F16 codec: both folds see the same
    /// decoded (precision-reduced) values, so they still agree bit-exactly.
    #[test]
    fn any_order_matches_id_order_f16(
        seed in 0u64..100_000,
        order in proptest::collection::vec(any::<u64>(), 16),
    ) {
        for strategy in all_strategy_configs() {
            check_strategy(strategy, WirePolicy::legacy(Codec::F16), seed, &order);
        }
    }

    /// Every strategy × the stochastically-rounded QuantU8 codec.
    #[test]
    fn any_order_matches_id_order_quant_u8(
        seed in 0u64..100_000,
        order in proptest::collection::vec(any::<u64>(), 16),
    ) {
        for strategy in all_strategy_configs() {
            check_strategy(strategy, WirePolicy::legacy(Codec::QuantU8), seed, &order);
        }
    }

    /// Every strategy × the entropy layouts (delta-varint indices, RLE
    /// sections), bit-exact F32 values: the position layout changes the
    /// bytes, never the decoded uploads.
    #[test]
    fn any_order_matches_id_order_entropy_f32(
        seed in 0u64..100_000,
        order in proptest::collection::vec(any::<u64>(), 16),
    ) {
        for strategy in all_strategy_configs() {
            check_strategy(strategy, WirePolicy::entropy(Codec::F32), seed, &order);
        }
    }

    /// Every strategy × entropy layouts on top of QuantU8.
    #[test]
    fn any_order_matches_id_order_entropy_quant_u8(
        seed in 0u64..100_000,
        order in proptest::collection::vec(any::<u64>(), 16),
    ) {
        for strategy in all_strategy_configs() {
            check_strategy(strategy, WirePolicy::entropy(Codec::QuantU8), seed, &order);
        }
    }
}
