//! Property-based tests for compression invariants.

use gluefl_compress::mask_shift::{client_split, min_update_overlap, shift_mask};
use gluefl_compress::stc::{keep_count, sparsify, TernaryUpdate};
use gluefl_compress::{CompensationMode, ErrorCompensator};
use gluefl_tensor::BitMask;
use proptest::prelude::*;

fn delta_vec() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 1..300)
}

proptest! {
    /// keep_count is monotone in q and bounded by dim.
    #[test]
    fn keep_count_monotone(dim in 0usize..10_000, q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(keep_count(dim, lo) <= keep_count(dim, hi));
        prop_assert!(keep_count(dim, hi) <= dim);
    }

    /// Sparsify keeps exactly keep_count coordinates and its support is a
    /// subset of the original nonzeros whenever enough nonzeros exist.
    #[test]
    fn sparsify_cardinality(delta in delta_vec(), q in 0.0f64..=1.0) {
        let u = sparsify(&delta, q);
        prop_assert_eq!(u.nnz(), keep_count(delta.len(), q));
    }

    /// Ternary quantization preserves support and signs; dequantized
    /// magnitudes all equal μ ≥ 0.
    #[test]
    fn ternary_preserves_signs(delta in delta_vec(), q in 0.01f64..=1.0) {
        let u = sparsify(&delta, q);
        let t = TernaryUpdate::quantize(&u);
        let back = t.dequantize();
        prop_assert_eq!(back.indices(), u.indices());
        prop_assert!(t.mu >= 0.0);
        for (orig, quant) in u.values().iter().zip(back.values()) {
            if *orig != 0.0 && t.mu > 0.0 {
                prop_assert_eq!(orig.signum(), quant.signum());
            }
            prop_assert!((quant.abs() - t.mu).abs() < 1e-6);
        }
    }

    /// client_split: shared ∪ unique supports are disjoint, shared support
    /// equals the mask, and reconstruction agrees with the inputs.
    #[test]
    fn client_split_partition(delta in delta_vec(),
                              mask_bits in proptest::collection::vec(any::<bool>(), 1..300),
                              k in 0usize..50) {
        let n = delta.len().min(mask_bits.len());
        let delta = &delta[..n];
        let mask = BitMask::from_indices(n, (0..n).filter(|&i| mask_bits[i]));
        let split = client_split(delta, &mask, k);
        prop_assert_eq!(split.shared.nnz(), mask.count_ones());
        prop_assert_eq!(split.unique.support().overlap(&mask), 0);
        // Unique cardinality: min(k, positions outside the mask).
        let outside = n - mask.count_ones();
        prop_assert_eq!(split.unique.nnz(), k.min(outside));
        // Values are copied verbatim.
        let shared = mask.iter_ones().zip(split.shared.values().iter().copied());
        for (i, v) in shared.chain(split.unique.iter()) {
            prop_assert_eq!(v, delta[i]);
        }
    }

    /// shift_mask density equals keep_count(q_shr) and respects the
    /// eligibility restriction.
    #[test]
    fn shift_mask_density(delta in delta_vec(), q_shr in 0.0f64..=1.0,
                          elig_bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let n = delta.len().min(elig_bits.len());
        let delta = &delta[..n];
        let eligible = BitMask::from_indices(n, (0..n).filter(|&i| elig_bits[i]));
        let m = shift_mask(delta, q_shr, Some(&eligible));
        let want = keep_count(n, q_shr).min(eligible.count_ones());
        prop_assert_eq!(m.count_ones(), want);
        prop_assert_eq!(m.and_not(&eligible).count_ones(), 0, "mask escaped eligibility");
        prop_assert_eq!(min_update_overlap(n, q_shr), keep_count(n, q_shr));
    }

    /// Error-feedback invariant: at any point, total-sent + residual ==
    /// total-delta, for arbitrary delta/compression sequences (Raw mode).
    #[test]
    fn error_feedback_telescopes(
        deltas in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 8), 1..12),
        kept_low in 0usize..8) {
        let dim = 8;
        let mut ec = ErrorCompensator::new(CompensationMode::Raw, dim);
        let mut sent_total = vec![0.0f64; dim];
        let mut delta_total = vec![0.0f64; dim];
        for delta in &deltas {
            let mut d = delta.clone();
            ec.apply(0, &mut d, 1.0);
            // "Compression": keep an arbitrary prefix of coordinates.
            let mut sent = vec![0.0f32; dim];
            sent[..kept_low].copy_from_slice(&d[..kept_low]);
            ec.record(0, &d, &sent, 1.0);
            for i in 0..dim {
                sent_total[i] += f64::from(sent[i]);
                delta_total[i] += f64::from(delta[i]);
            }
        }
        let mut probe = vec![0.0f32; dim];
        ec.apply(0, &mut probe, 1.0);
        for i in 0..dim {
            let residual = f64::from(probe[i]);
            prop_assert!(
                (residual - (delta_total[i] - sent_total[i])).abs() < 1e-3,
                "coordinate {}: residual {} vs ledger {}",
                i, residual, delta_total[i] - sent_total[i]
            );
        }
    }

    /// Rescaled compensation: aggregation-weighted contribution of the
    /// residual is invariant to the weight at re-injection time.
    #[test]
    fn rescaled_compensation_weight_invariance(
        residual in -5.0f32..5.0, w_old in 0.1f64..10.0, w_new in 0.1f64..10.0) {
        let mut ec = ErrorCompensator::new(CompensationMode::Rescaled, 1);
        ec.record(0, &[residual], &[0.0], w_old);
        let mut d = vec![0.0f32];
        ec.apply(0, &mut d, w_new);
        // Server-side contribution: ν_new · re-scaled residual == ν_old · h.
        let contribution = w_new * f64::from(d[0]);
        prop_assert!((contribution - w_old * f64::from(residual)).abs() < 1e-3);
    }
}

// ---------------------------------------------------------------------
// The one-walk client compress against the step-by-step reference.
// ---------------------------------------------------------------------

use gluefl_compress::mask_shift::ClientSplit;
use gluefl_compress::SplitWalk;
use gluefl_tensor::{MaskAligned, TopKScratch};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A small deterministic generator, so one `u64` from the property
/// framework spans a whole multi-round scenario.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f32 {
        (self.below(2_000_001) as f32 - 1e6) / 1e6
    }

    /// A delta from one of three families: smooth, heavily tied, or
    /// laced with NaN / ±∞ / ±0 / denormals.
    fn delta(&mut self, dim: usize) -> Vec<f32> {
        let family = self.below(3);
        (0..dim)
            .map(|_| match (family, self.below(10)) {
                (0, _) | (_, 7..) => self.unit() * 3.0,
                (1, c) => [1.0, -1.0, 0.25, 2.0][(c % 4) as usize],
                (_, 0) => f32::NAN,
                (_, 1) => f32::INFINITY,
                (_, 2) => f32::NEG_INFINITY,
                (_, 3) => 0.0,
                (_, 4) => -0.0,
                (_, 5) => f32::MIN_POSITIVE / 8.0,
                (_, _) => -1.0,
            })
            .collect()
    }

    fn mask(&mut self, dim: usize, percent: u64) -> BitMask {
        BitMask::from_indices(dim, (0..dim).filter(|_| self.below(100) < percent))
    }
}

/// What the reference sequence sends and stores for one participation:
/// `apply`, the split of `client_split` (the shared gather under `mask`,
/// the top-k outside `mask ∪ excluded`), `record`. Returns the split and
/// the buffer the hot path would hand back.
fn reference_round(
    ec: &mut ErrorCompensator,
    client: usize,
    delta: &[f32],
    weight: f64,
    mask: Option<&BitMask>,
    excluded: &BitMask,
    unique_k: usize,
) -> (ClientSplit, Vec<f32>) {
    let previous = ec.stored(client).map(|(h, _)| h.to_vec());
    let mut d = delta.to_vec();
    ec.apply(client, &mut d, weight);
    let scope = mask.map_or_else(|| excluded.clone(), |m| m.or(excluded));
    let split = ClientSplit {
        shared: mask.map_or_else(
            || MaskAligned::empty(d.len()),
            |m| MaskAligned::gather(&d, m),
        ),
        unique: client_split(&d, &scope, unique_k).unique,
    };
    let mut sent = mask.map_or_else(|| vec![0.0; d.len()], |m| split.shared.to_dense(m));
    split.unique.apply(&mut sent);
    ec.record(client, &d, &sent, weight);
    let handed_back = match ec.mode() {
        CompensationMode::None => d,
        _ => previous.unwrap_or_default(),
    };
    (split, handed_back)
}

/// What the hot path sends for one participation: check the client's
/// memory out, walk, check it back in.
fn walked_round(
    ec: &mut ErrorCompensator,
    client: usize,
    delta: &mut Vec<f32>,
    weight: f64,
    walk: SplitWalk<'_>,
) -> ClientSplit {
    let mut memory = ec.check_out(client);
    let split = ec.compress_split(&mut memory, delta, weight, walk);
    ec.check_in(client, memory);
    split
}

/// What one participation left behind: the upload, the buffer handed
/// back, and the compensator it was recorded in.
struct Outcome<'a> {
    split: &'a ClientSplit,
    handed_back: &'a [f32],
    ec: &'a ErrorCompensator,
}

fn assert_same_round(walked: Outcome<'_>, reference: Outcome<'_>, client: usize, what: &str) {
    let (got, want) = (walked.split, reference.split);
    assert_eq!(got.shared.dim(), want.shared.dim(), "{what}");
    assert_eq!(
        bits(got.shared.values()),
        bits(want.shared.values()),
        "{what}: shared"
    );
    assert_eq!(
        got.unique.indices(),
        want.unique.indices(),
        "{what}: unique"
    );
    assert_eq!(
        bits(got.unique.values()),
        bits(want.unique.values()),
        "{what}: unique"
    );
    assert_eq!(
        bits(walked.handed_back),
        bits(reference.handed_back),
        "{what}: handed-back buffer"
    );
    let stored = |ec: &ErrorCompensator| ec.stored(client).map(|(h, w)| (bits(h), w));
    assert_eq!(stored(walked.ec), stored(reference.ec), "{what}: residual");
}

proptest! {
    /// The fused walk sends, stores and hands back exactly the bits of
    /// the reference sequence — over every compensation mode, a first
    /// participation and returning ones at changing weights, shift
    /// rounds (a mask) and regeneration rounds (none), dimensions on both
    /// sides of the bracket-sampling cut-over that are no multiple of 64,
    /// and values that include NaN, ±∞, signed zeros and heavy ties.
    #[test]
    fn one_walk_matches_the_reference_sequence(seed in any::<u64>(),
                                               small in 1usize..400,
                                               large in 4200usize..9000,
                                               mode in 0usize..3) {
        let mut gen = Gen(seed | 1);
        let mode = [CompensationMode::None, CompensationMode::Raw, CompensationMode::Rescaled][mode];
        let dim = if gen.below(3) == 0 { large } else { small };
        let excluded = { let p = gen.below(20); gen.mask(dim, p) };
        let mut reference = ErrorCompensator::new(mode, dim);
        let mut walking = ErrorCompensator::new(mode, dim);
        let mut topk = TopKScratch::new();
        for (round, weight) in [2.0, 0.5, 1.25, 1.25].into_iter().enumerate() {
            let delta = gen.delta(dim);
            let mask = { let p = gen.below(60); (gen.below(4) != 0).then(|| gen.mask(dim, p)) };
            let unique_k = match gen.below(5) {
                0 => 0,
                1 => dim,
                _ => gen.below(dim as u64 / 3 + 2) as usize,
            };
            let (want, want_handed) = reference_round(
                &mut reference, 7, &delta, weight, mask.as_ref(), &excluded, unique_k);
            let mut handed = delta.clone();
            let split = walked_round(&mut walking, 7, &mut handed, weight, SplitWalk {
                mask: mask.as_ref(),
                excluded: &excluded,
                unique_k,
                topk: &mut topk,
                shared: vec![9.0; 3],
                unique: (vec![4; 2], vec![9.0; 5]),
            });
            assert_same_round(
                Outcome { split: &split, handed_back: &handed, ec: &walking },
                Outcome { split: &want, handed_back: &want_handed, ec: &reference },
                7,
                &format!("dim {dim} {mode:?} round {round} k {unique_k}"),
            );
        }
    }

    /// STC's ternary walk: the residual is short of `sign·μ`, exactly as
    /// recording the dequantized update leaves it.
    #[test]
    fn ternary_walk_matches_the_reference_sequence(seed in any::<u64>(), dim in 1usize..600) {
        let mut gen = Gen(seed | 1);
        let excluded = gen.mask(dim, 10);
        let mut reference = ErrorCompensator::new(CompensationMode::Raw, dim);
        let mut walking = ErrorCompensator::new(CompensationMode::Raw, dim);
        let mut topk = TopKScratch::new();
        for round in 0..3 {
            let delta = gen.delta(dim);
            let k = gen.below(dim as u64 / 2 + 2) as usize;
            let mut d = delta.clone();
            reference.apply(3, &mut d, 1.0);
            let want = TernaryUpdate::quantize(&client_split(&d, &excluded, k).unique);
            reference.record(3, &d, &want.dequantize().to_dense(), 1.0);
            let mut handed = delta.clone();
            let mut memory = walking.check_out(3);
            let got = walking.compress_ternary(&mut memory, &mut handed, 1.0, SplitWalk {
                mask: None,
                excluded: &excluded,
                unique_k: k,
                topk: &mut topk,
                shared: Vec::new(),
                unique: (Vec::new(), Vec::new()),
            });
            walking.check_in(3, memory);
            prop_assert_eq!(&got.indices, &want.indices, "round {}", round);
            prop_assert_eq!(&got.signs, &want.signs);
            prop_assert_eq!(got.mu.to_bits(), want.mu.to_bits());
            prop_assert_eq!(
                walking.stored(3).map(|(h, _)| bits(h)),
                reference.stored(3).map(|(h, _)| bits(h))
            );
        }
    }
}

/// A returning client whose *compensated* delta hides from the bracket
/// sample: every position the strided sample reads is tiny, every other
/// one large, so the sampled bracket misses and the selection lists a
/// second time (`gluefl_tensor`'s own tests pin that this input misses).
/// The second listing must read the stored, already compensated delta —
/// adding the residual again would change what is sent and stored.
#[test]
fn a_bracket_miss_does_not_compensate_twice() {
    let dim = 50_003;
    let stride = (dim / 1024).max(1) | 1; // the kernel's sample stride
    let mut gen = Gen(0x5EED);
    let excluded = gen.mask(dim, 1);
    let mask = gen.mask(dim, 16);
    let mut reference = ErrorCompensator::new(CompensationMode::Rescaled, dim);
    let mut walking = ErrorCompensator::new(CompensationMode::Rescaled, dim);
    let mut topk = TopKScratch::new();
    let first: Vec<f32> = (0..dim).map(|_| gen.unit()).collect();
    for (round, weight, k) in [(0, 1.0, dim / 25), (1, 0.5, dim / 25), (2, 2.0, dim / 2)] {
        let delta: Vec<f32> = match reference.stored(7) {
            None => first.clone(),
            // Aim the compensated value `d + s·h`, not `d`, at the
            // pattern the sample cannot see.
            Some((h, stored_weight)) => {
                let s = (stored_weight / weight) as f32;
                (0..dim)
                    .map(|i| {
                        let aim = if i % stride == 0 {
                            gen.unit() * 1e-6
                        } else {
                            gen.unit() + 2.0f32.copysign(gen.unit())
                        };
                        aim - s * h[i]
                    })
                    .collect()
            }
        };
        let (want, want_handed) =
            reference_round(&mut reference, 7, &delta, weight, Some(&mask), &excluded, k);
        let mut handed = delta.clone();
        let split = walked_round(
            &mut walking,
            7,
            &mut handed,
            weight,
            SplitWalk {
                mask: Some(&mask),
                excluded: &excluded,
                unique_k: k,
                topk: &mut topk,
                shared: Vec::new(),
                unique: (Vec::new(), Vec::new()),
            },
        );
        assert_same_round(
            Outcome {
                split: &split,
                handed_back: &handed,
                ec: &walking,
            },
            Outcome {
                split: &want,
                handed_back: &want_handed,
                ec: &reference,
            },
            7,
            &format!("round {round}"),
        );
    }
}
