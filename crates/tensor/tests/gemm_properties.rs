//! Property tests pinning every blocked GEMM layout **bit-exact** against
//! its plain-loop reference twin.
//!
//! The blocked kernels promise more than closeness: blocking must never
//! reassociate an output element's reduction, so the bits must match the
//! naive triple loop exactly — across adversarial shapes (batch 1, unit
//! input/output dimensions, and dimensions straddling the register/cache
//! block sizes), arbitrary data, and accumulation on top of arbitrary
//! pre-existing gradients — and the backward-weights kernel's SGD
//! epilogue against the unfused *zeroed gradient, reference product,
//! update* sequence.

use gluefl_tensor::gemm::{
    gemm_nn, gemm_nn_ref, gemm_nt, gemm_nt_ref, gemm_nt_sgd, gemm_tn, gemm_tn_ref, SgdIo,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect()
}

fn bits_eq(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// [`bits_eq`], except that any NaN matches any NaN: which operand's
/// payload and sign an `x + y` of two NaNs keeps is the instruction
/// selector's choice (IEEE 754 leaves it open), not the kernel's.
fn bits_eq_or_both_nan(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// Dimension strategy: small enough to hit batch 1 / unit dims often,
/// wide enough to straddle the 2/4/8-wide register tiles (the cache-tile
/// edge `NN_KC + 3` is pinned by an in-module unit test).
fn dim() -> impl Strategy<Value = usize> {
    1usize..70
}

proptest! {
    /// Forward layout: `out = a·bᵀ + bias` is bit-exact vs the twin.
    #[test]
    fn nn_blocked_is_bit_exact(m in dim(), n in dim(), k in dim(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, n * k);
        let bias = fill(&mut rng, n);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &bias, m, n, k, &mut got);
        gemm_nn_ref(&a, &b, &bias, m, n, k, &mut want);
        prop_assert!(bits_eq(&got, &want), "nn diverged at m={} n={} k={}", m, n, k);
    }

    /// Backward-data layout: `out = a·b` is bit-exact vs the twin.
    #[test]
    fn tn_blocked_is_bit_exact(m in dim(), p in dim(), n in dim(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, m * p);
        let b = fill(&mut rng, p * n);
        // Garbage in `out` must not leak through: gemm_tn overwrites.
        let mut got = fill(&mut rng, m * n);
        let mut want = vec![0.0f32; m * n];
        gemm_tn(&a, &b, m, p, n, &mut got);
        gemm_tn_ref(&a, &b, m, p, n, &mut want);
        prop_assert!(bits_eq(&got, &want), "tn diverged at m={} p={} n={}", m, p, n);
    }

    /// Backward-weights layout: `out += aᵀ·b` accumulates bit-exactly on
    /// top of an arbitrary pre-existing gradient.
    #[test]
    fn nt_blocked_is_bit_exact(m in dim(), p in dim(), n in dim(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, m * p);
        let b = fill(&mut rng, m * n);
        let grad = fill(&mut rng, p * n);
        let mut got = grad.clone();
        let mut want = grad;
        gemm_nt(&a, &b, m, p, n, &mut got);
        gemm_nt_ref(&a, &b, m, p, n, &mut want);
        prop_assert!(bits_eq(&got, &want), "nt diverged at m={} p={} n={}", m, p, n);
    }

    /// Signed zeros survive blocking: ReLU'd activations produce exact
    /// `±0.0` terms, and the chains must round them identically.
    #[test]
    fn nn_preserves_signed_zero_terms(m in 1usize..6, n in 1usize..10, k in 1usize..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k)
            .map(|_| match rng.gen_range(0u8..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        let b = fill(&mut rng, n * k);
        let bias = vec![0.0f32; n];
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &bias, m, n, k, &mut got);
        gemm_nn_ref(&a, &b, &bias, m, n, k, &mut want);
        prop_assert!(bits_eq(&got, &want), "zero handling diverged");
    }
}

/// The paper's training and eval shapes, pinned explicitly (the [192, 96]
/// MLP over 64 features / 62 classes at batch 16, plus an eval batch).
#[test]
fn paper_shapes_are_bit_exact() {
    for (i, &(m, n, k)) in [
        (16, 192, 64),
        (16, 96, 192),
        (16, 62, 96),
        (512, 192, 64),
        (512, 62, 96),
    ]
    .iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0xFE ^ i as u64);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, n * k);
        let bias = fill(&mut rng, n);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &bias, m, n, k, &mut got);
        gemm_nn_ref(&a, &b, &bias, m, n, k, &mut want);
        assert!(bits_eq(&got, &want), "nn diverged at {m}x{n}x{k}");
    }
}

/// Under the `parallel` feature, an eval-sized batch routes through the
/// row-sharded path and must still match the serial reference bitwise.
#[cfg(feature = "parallel")]
#[test]
fn parallel_forward_matches_reference_bitwise() {
    let (m, n, k) = (1024, 192, 64);
    let mut rng = StdRng::seed_from_u64(99);
    let a = fill(&mut rng, m * k);
    let b = fill(&mut rng, n * k);
    let bias = fill(&mut rng, n);
    let mut got = vec![0.0f32; m * n];
    let mut want = vec![0.0f32; m * n];
    gemm_nn(&a, &b, &bias, m, n, k, &mut got);
    gemm_nn_ref(&a, &b, &bias, m, n, k, &mut want);
    assert!(bits_eq(&got, &want), "sharded forward diverged");
}

// ---------------------------------------------------------------------------
// The SGD epilogue: backward-weights with the optimizer update fused in
// must be bit-exact against the unfused sequence — a zeroed gradient,
// the reference backward-weights product, then the two-expression update
// element by element — in each of the four operand forms.
// ---------------------------------------------------------------------------

/// Checks all four [`SgdIo`] forms of one problem against the unfused
/// sequence; returns the first form that diverged.
#[allow(clippy::too_many_arguments)]
fn sgd_forms_diverge(
    d_out: &[f32],
    x: &[f32],
    (m, p, n): (usize, usize, usize),
    (lr, mu): (f32, f32),
    w0: &[f32],
    v0: &[f32],
    base: &[f32],
) -> Option<&'static str> {
    let unfused = |w: &mut [f32], v: &mut [f32]| {
        let mut g = vec![0.0f32; p * n];
        gemm_nt_ref(d_out, x, m, p, n, &mut g);
        for ((w, v), g) in w.iter_mut().zip(v.iter_mut()).zip(&g) {
            *v = mu * *v + g;
            *w -= lr * *v;
        }
    };
    let delta =
        |w: &[f32], base: &[f32]| -> Vec<f32> { w.iter().zip(base).map(|(w, b)| w - b).collect() };

    // Middle step: both in place.
    let (mut w_want, mut v_want) = (w0.to_vec(), v0.to_vec());
    unfused(&mut w_want, &mut v_want);
    let (mut w, mut v) = (w0.to_vec(), v0.to_vec());
    let io = SgdIo::InPlace {
        w: &mut w,
        v: &mut v,
    };
    gemm_nt_sgd(d_out, x, m, p, n, lr, mu, io);
    if !bits_eq_or_both_nan(&w, &w_want) || !bits_eq_or_both_nan(&v, &v_want) {
        return Some("in place");
    }

    // Last step: out ≡ (w − γ·v') − base; `w` and `v` are only borrowed
    // shared, so "untouched" holds by construction.
    let mut out = vec![f32::NAN; p * n];
    let io = SgdIo::Last {
        w: w0,
        v: v0,
        base,
        out: &mut out,
    };
    gemm_nt_sgd(d_out, x, m, p, n, lr, mu, io);
    if !bits_eq_or_both_nan(&out, &delta(&w_want, base)) {
        return Some("last");
    }

    // First step: weights from `from`, zero velocity; whatever `w` and
    // `v` held is overwritten, never read.
    let (mut w_want, mut v_want) = (w0.to_vec(), vec![0.0f32; p * n]);
    unfused(&mut w_want, &mut v_want);
    let (mut w, mut v) = (vec![f32::NAN; p * n], vec![f32::NAN; p * n]);
    let io = SgdIo::First {
        from: w0,
        w: &mut w,
        v: &mut v,
    };
    gemm_nt_sgd(d_out, x, m, p, n, lr, mu, io);
    if !bits_eq_or_both_nan(&w, &w_want) || !bits_eq_or_both_nan(&v, &v_want) {
        return Some("first");
    }

    // Only step: first and last at once.
    let io = SgdIo::Only {
        base: w0,
        out: &mut out,
    };
    gemm_nt_sgd(d_out, x, m, p, n, lr, mu, io);
    if !bits_eq_or_both_nan(&out, &delta(&w_want, w0)) {
        return Some("only");
    }
    None
}

proptest! {
    /// Arbitrary data over the adversarial shapes (batch 1, unit
    /// dimensions, `p`/`n` off the 4 × 16 tile), `μ = 0` included.
    #[test]
    fn nt_sgd_epilogue_is_bit_exact_vs_unfused(
        m in dim(),
        p in dim(),
        n in dim(),
        plain in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d_out = fill(&mut rng, m * p);
        let x = fill(&mut rng, m * n);
        let w0 = fill(&mut rng, p * n);
        let v0 = fill(&mut rng, p * n);
        let base = fill(&mut rng, p * n);
        let mu = if plain { 0.0 } else { rng.gen_range(0.0f32..1.0) };
        let lr = rng.gen_range(1e-3f32..0.5);
        let bad = sgd_forms_diverge(&d_out, &x, (m, p, n), (lr, mu), &w0, &v0, &base);
        prop_assert!(bad.is_none(), "{:?} form diverged at m={} p={} n={} mu={}", bad, m, p, n, mu);
    }

    /// Signed zeros and non-finite terms: ReLU'd activations and dead
    /// units make exact `±0.0` gradients (`μ·0.0 + -0.0` is `+0.0`, and
    /// the fused form must say so too), and a diverged client's NaN/∞
    /// must propagate exactly as the stored gradient would carry them.
    #[test]
    fn nt_sgd_epilogue_preserves_signed_zero_and_non_finite_terms(
        m in 1usize..6,
        p in 1usize..10,
        n in 1usize..36,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut special = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u8..12) {
                    0..=2 => 0.0,
                    3..=5 => -0.0,
                    6 => f32::NAN,
                    7 => f32::INFINITY,
                    8 => f32::NEG_INFINITY,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect()
        };
        let d_out = special(m * p);
        let x = special(m * n);
        let w0 = special(p * n);
        let v0 = special(p * n);
        let base = special(p * n);
        for mu in [0.0f32, 0.9] {
            let bad = sgd_forms_diverge(&d_out, &x, (m, p, n), (0.05, mu), &w0, &v0, &base);
            prop_assert!(bad.is_none(), "{:?} form diverged at m={} p={} n={} mu={}", bad, m, p, n, mu);
        }
    }
}

/// The training shapes (paper and wide MLP layers at their batch sizes),
/// batch 1, and a batch past 512 rows — where the accumulating kernel
/// used to split the reduction — pinned explicitly, accumulate and SGD
/// epilogues alike.
#[test]
fn nt_epilogues_are_bit_exact_at_training_shapes_and_long_batches() {
    for (i, &(m, p, n)) in [
        (16, 192, 64),
        (16, 96, 192),
        (16, 62, 96),
        (4, 4096, 64),
        (4, 62, 4096),
        (1, 7, 33),
        (515, 6, 18),
        (1030, 4, 16),
    ]
    .iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(0x5D ^ i as u64);
        let d_out = fill(&mut rng, m * p);
        let x = fill(&mut rng, m * n);
        let w0 = fill(&mut rng, p * n);
        let v0 = fill(&mut rng, p * n);
        let base = fill(&mut rng, p * n);
        let mut got = w0.clone();
        let mut want = w0.clone();
        gemm_nt(&d_out, &x, m, p, n, &mut got);
        gemm_nt_ref(&d_out, &x, m, p, n, &mut want);
        assert!(bits_eq(&got, &want), "nt diverged at {m}x{p}x{n}");
        let bad = sgd_forms_diverge(&d_out, &x, (m, p, n), (0.05, 0.9), &w0, &v0, &base);
        assert!(bad.is_none(), "{bad:?} form diverged at {m}x{p}x{n}");
    }
}
