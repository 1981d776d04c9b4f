//! Flat-vector kernels shared by the ML substrate and the strategies.
//!
//! All of these operate on plain `&[f32]` slices and panic on length
//! mismatch — models in this workspace are always flat parameter vectors,
//! so no shape machinery is needed.
//!
//! The element-wise kernels process fixed `LANES`-wide chunks with a
//! scalar remainder so the compiler can auto-vectorize the inner loops;
//! reductions keep one accumulator per lane and combine them in a fixed
//! order, so results are deterministic for a given input (independent of
//! platform or call site). The `masked_*` kernels fuse a [`BitMask`]
//! scope into the arithmetic at word level — all-ones words take the
//! dense fast path, all-zero words are skipped — replacing
//! `BitMask::apply_to` + copy round-trips in the round hot path.

use crate::BitMask;

/// Chunk width of the element-wise kernels.
const LANES: usize = 8;

/// `y ← y + a·x` (AXPY).
///
/// # Panics
/// Panics if `x.len() != y.len()`.
///
/// # Example
/// ```
/// let mut y = vec![1.0f32, 1.0];
/// gluefl_tensor::vecops::axpy(&mut y, 2.0, &[3.0, 4.0]);
/// assert_eq!(y, vec![7.0, 9.0]);
/// ```
pub fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (yk, xk) in (&mut yc).zip(&mut xc) {
        for j in 0..LANES {
            yk[j] += a * xk[j];
        }
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += a * xi;
    }
}

/// `y ← a·y`.
pub fn scale(y: &mut [f32], a: f32) {
    for yi in y.iter_mut() {
        *yi *= a;
    }
}

/// `y ← y + x`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
///
/// # Example
/// ```
/// let mut y = vec![1.0f32, 2.0];
/// gluefl_tensor::vecops::add_assign(&mut y, &[10.0, 20.0]);
/// assert_eq!(y, vec![11.0, 22.0]);
/// ```
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (yk, xk) in (&mut yc).zip(&mut xc) {
        for j in 0..LANES {
            yk[j] += xk[j];
        }
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += xi;
    }
}

/// Dot product `⟨x, y⟩` accumulated in `f64` for stability.
///
/// Uses `LANES` independent accumulators combined in a fixed order, so
/// the result is deterministic for a given input.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn dot(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (xk, yk) in (&mut xc).zip(&mut yc) {
        for j in 0..LANES {
            acc[j] += f64::from(xk[j]) * f64::from(yk[j]);
        }
    }
    let mut total: f64 = acc.iter().sum();
    for (xi, yi) in xc.remainder().iter().zip(yc.remainder()) {
        total += f64::from(*xi) * f64::from(*yi);
    }
    total
}

/// Euclidean norm `‖x‖₂` accumulated in `f64`.
#[must_use]
pub fn l2_norm(x: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut xc = x.chunks_exact(LANES);
    for xk in &mut xc {
        for j in 0..LANES {
            acc[j] += f64::from(xk[j]) * f64::from(xk[j]);
        }
    }
    let mut total: f64 = acc.iter().sum();
    for xi in xc.remainder() {
        total += f64::from(*xi) * f64::from(*xi);
    }
    total.sqrt()
}

/// Elementwise difference `a - b` into a fresh vector.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[must_use]
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; a.len()];
    sub_into(&mut out, a, b);
    out
}

/// Elementwise difference `out ← a - b` into an existing buffer
/// (the allocation-free form used by the round hot path).
///
/// # Panics
/// Panics if the three lengths differ.
///
/// # Example
/// ```
/// let mut out = vec![0.0f32; 2];
/// gluefl_tensor::vecops::sub_into(&mut out, &[5.0, 7.0], &[2.0, 3.0]);
/// assert_eq!(out, vec![3.0, 4.0]);
/// ```
pub fn sub_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    assert_eq!(out.len(), a.len(), "sub length mismatch");
    let mut oc = out.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((ok, ak), bk) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        for j in 0..LANES {
            ok[j] = ak[j] - bk[j];
        }
    }
    for ((oi, ai), bi) in oc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *oi = ai - bi;
    }
}

/// Elementwise sum `a + b` into a fresh vector.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[must_use]
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add length mismatch");
    let mut out = a.to_vec();
    add_assign(&mut out, b);
    out
}

/// Fused masked AXPY: `y[i] ← y[i] + a·x[i]` for every position `i`
/// covered by `mask`; other positions are untouched.
///
/// Word-level: all-ones mask words run the dense `LANES`-chunk kernel,
/// all-zero words are skipped entirely.
///
/// # Panics
/// Panics if the lengths differ.
///
/// # Example
/// ```
/// use gluefl_tensor::{vecops::masked_axpy, BitMask};
/// let m = BitMask::from_indices(3, [0usize, 2]);
/// let mut y = vec![1.0f32, 1.0, 1.0];
/// masked_axpy(&mut y, 2.0, &[10.0, 10.0, 10.0], &m);
/// assert_eq!(y, vec![21.0, 1.0, 21.0]);
/// ```
pub fn masked_axpy(y: &mut [f32], a: f32, x: &[f32], mask: &BitMask) {
    assert_eq!(y.len(), x.len(), "masked_axpy length mismatch");
    assert_eq!(y.len(), mask.len(), "masked_axpy mask length mismatch");
    for ((yk, xk), &w) in y.chunks_mut(64).zip(x.chunks(64)).zip(mask.as_words()) {
        if w == 0 {
            continue;
        }
        if w == u64::MAX {
            axpy(yk, a, xk);
            continue;
        }
        let mut bits = w;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            yk[b] += a * xk[b];
            bits &= bits - 1;
        }
    }
}

/// Fused masked difference: `out[i] ← a[i] - b[i]` where `mask` covers
/// `i`, `0.0` elsewhere. Replaces a `sub` + [`BitMask::apply_to`]
/// round-trip with one pass.
///
/// # Panics
/// Panics if the lengths differ.
///
/// # Example
/// ```
/// use gluefl_tensor::{vecops::masked_sub_into, BitMask};
/// let m = BitMask::from_indices(3, [1usize]);
/// let mut out = vec![9.0f32; 3];
/// masked_sub_into(&mut out, &[5.0, 6.0, 7.0], &[1.0, 1.0, 1.0], &m);
/// assert_eq!(out, vec![0.0, 5.0, 0.0]);
/// ```
pub fn masked_sub_into(out: &mut [f32], a: &[f32], b: &[f32], mask: &BitMask) {
    assert_eq!(a.len(), b.len(), "masked_sub length mismatch");
    assert_eq!(out.len(), a.len(), "masked_sub length mismatch");
    assert_eq!(out.len(), mask.len(), "masked_sub mask length mismatch");
    for (((ok, ak), bk), &w) in out
        .chunks_mut(64)
        .zip(a.chunks(64))
        .zip(b.chunks(64))
        .zip(mask.as_words())
    {
        if w == 0 {
            ok.fill(0.0);
            continue;
        }
        if w == u64::MAX {
            sub_into(ok, ak, bk);
            continue;
        }
        for (j, o) in ok.iter_mut().enumerate() {
            *o = if (w >> j) & 1 == 1 {
                ak[j] - bk[j]
            } else {
                0.0
            };
        }
    }
}

/// Mean of the entries (0.0 for an empty slice).
#[must_use]
pub fn mean(x: &[f32]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().map(|v| f64::from(*v)).sum::<f64>() / x.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let mut y = vec![0.0f32, 1.0, 2.0];
        axpy(&mut y, -1.0, &[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn axpy_covers_chunks_and_remainder() {
        let n = LANES * 3 + 5;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y = vec![1.0f32; n];
        axpy(&mut y, 2.0, &x);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 1.0 + 2.0 * i as f32, "position {i}");
        }
    }

    #[test]
    fn scale_basic() {
        let mut y = vec![2.0f32, -4.0];
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.0, -2.0]);
    }

    #[test]
    fn add_assign_matches_add() {
        let a: Vec<f32> = (0..37).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..37).map(|i| 2.0 * i as f32).collect();
        let mut y = a.clone();
        add_assign(&mut y, &b);
        assert_eq!(y, add(&a, &b));
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn dot_matches_sequential_reference() {
        let x: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let y: Vec<f32> = (0..100).map(|i| (i as f32).cos()).collect();
        let seq: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| f64::from(*a) * f64::from(*b))
            .sum();
        assert!((dot(&x, &y) - seq).abs() < 1e-9);
    }

    #[test]
    fn sub_add_inverse() {
        let a = vec![5.0f32, 7.0];
        let b = vec![2.0f32, 3.0];
        assert_eq!(add(&sub(&a, &b), &b), a);
    }

    #[test]
    fn sub_into_matches_sub() {
        let a: Vec<f32> = (0..29).map(|i| i as f32 * 1.5).collect();
        let b: Vec<f32> = (0..29).map(|i| i as f32).collect();
        let mut out = vec![f32::NAN; 29];
        sub_into(&mut out, &a, &b);
        assert_eq!(out, sub(&a, &b));
    }

    #[test]
    fn masked_axpy_touches_only_covered() {
        let n = 130;
        let mask = BitMask::from_indices(n, (0..n).filter(|i| i % 3 == 0));
        let x = vec![1.0f32; n];
        let mut y = vec![0.0f32; n];
        masked_axpy(&mut y, 2.0, &x, &mask);
        for (i, v) in y.iter().enumerate() {
            let expected = if mask.get(i) { 2.0 } else { 0.0 };
            assert_eq!(*v, expected, "position {i}");
        }
    }

    #[test]
    fn masked_axpy_full_and_empty_words() {
        let n = 192;
        // Words: first all-ones, second all-zero, third mixed.
        let mask = BitMask::from_indices(n, (0..64).chain((128..192).filter(|i| i % 2 == 0)));
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut fast = vec![1.0f32; n];
        masked_axpy(&mut fast, 0.5, &x, &mask);
        let mut slow = vec![1.0f32; n];
        for i in 0..n {
            if mask.get(i) {
                slow[i] += 0.5 * x[i];
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn masked_sub_into_matches_sub_then_apply() {
        let n = 100;
        let mask = BitMask::from_indices(n, (0..n).filter(|i| i % 7 != 0));
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (i / 2) as f32).collect();
        let mut fused = vec![f32::NAN; n];
        masked_sub_into(&mut fused, &a, &b, &mask);
        let mut reference = sub(&a, &b);
        mask.apply_to(&mut reference);
        assert_eq!(fused, reference);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_mismatch_panics() {
        let mut y = vec![0.0f32];
        axpy(&mut y, 1.0, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn masked_axpy_mask_mismatch_panics() {
        let mut y = vec![0.0f32; 4];
        masked_axpy(&mut y, 1.0, &[0.0; 4], &BitMask::zeros(5));
    }
}
