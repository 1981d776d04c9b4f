//! Sparse Ternary Compression (Sattler et al. 2019) primitives.
//!
//! STC (Algorithm 1 of the GlueFL paper) applies top-`q` sparsification on
//! both sides: clients upload `top_q(Δ_i)` and the server masks the
//! aggregate with another `top_q(·)` before broadcasting. The quantization
//! component (every kept value replaced by `sign·μ`) is orthogonal and is
//! provided separately, matching the paper's masking-only evaluation.

use gluefl_tensor::{top_k_abs, SparseUpdate};

/// Number of coordinates kept by ratio `q` over dimension `dim`:
/// `round(q·dim)`, at least 1 for `q > 0`.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
///
/// # Example
/// ```
/// assert_eq!(gluefl_compress::stc::keep_count(1000, 0.2), 200);
/// assert_eq!(gluefl_compress::stc::keep_count(1000, 0.0), 0);
/// assert_eq!(gluefl_compress::stc::keep_count(5, 0.01), 1);
/// ```
#[must_use]
pub fn keep_count(dim: usize, q: f64) -> usize {
    assert!((0.0..=1.0).contains(&q), "ratio {q} outside [0,1]");
    if q == 0.0 || dim == 0 {
        return 0;
    }
    (((dim as f64) * q).round() as usize).clamp(1, dim)
}

/// Top-`q` sparsification: keeps the `round(q·dim)` largest-magnitude
/// coordinates of `delta` (STC's client- and server-side operator).
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
///
/// # Example
/// ```
/// let u = gluefl_compress::stc::sparsify(&[0.1, -9.0, 0.2, 8.0], 0.5);
/// assert_eq!(u.indices(), &[1, 3]);
/// ```
#[must_use]
pub fn sparsify(delta: &[f32], q: f64) -> SparseUpdate {
    let k = keep_count(delta.len(), q);
    let idx = top_k_abs(delta, k);
    SparseUpdate::gather(delta, &idx)
}

/// A ternary-quantized sparse update: each kept value is replaced by
/// `sign(v) · mu`, with `mu` the mean kept magnitude (STC's quantizer).
#[derive(Debug, Clone, PartialEq)]
pub struct TernaryUpdate {
    /// Mean magnitude of the kept values.
    pub mu: f32,
    /// Sorted coordinate indices.
    pub indices: Vec<u32>,
    /// Signs aligned with `indices` (`true` = positive).
    pub signs: Vec<bool>,
    dim: usize,
}

impl TernaryUpdate {
    /// Quantizes a sparse update.
    #[must_use]
    pub fn quantize(update: &SparseUpdate) -> Self {
        let n = update.nnz().max(1);
        let mu = update.values().iter().map(|v| v.abs()).sum::<f32>() / n as f32;
        Self {
            mu,
            indices: update.indices().to_vec(),
            signs: update.values().iter().map(|&v| v >= 0.0).collect(),
            dim: update.dim(),
        }
    }

    /// Rebuilds a ternary update from its transported parts — the
    /// constructor for the wire decoder, which receives `mu`, the sorted
    /// indices, and the sign bits separately.
    ///
    /// # Panics
    /// Panics if `indices`/`signs` lengths differ, an index is `>= dim`,
    /// or the indices are not strictly increasing.
    #[must_use]
    pub fn from_parts(dim: usize, mu: f32, indices: Vec<u32>, signs: Vec<bool>) -> Self {
        assert_eq!(indices.len(), signs.len(), "indices/signs length mismatch");
        let mut prev: Option<u32> = None;
        for &i in &indices {
            assert!((i as usize) < dim, "index {i} out of range {dim}");
            if let Some(p) = prev {
                assert!(p < i, "indices must be sorted and unique");
            }
            prev = Some(i);
        }
        Self {
            mu,
            indices,
            signs,
            dim,
        }
    }

    /// Reconstructs the (lossy) sparse update `sign·mu`.
    #[must_use]
    pub fn dequantize(&self) -> SparseUpdate {
        let pairs = self
            .indices
            .iter()
            .zip(&self.signs)
            .map(|(&i, &s)| (i, if s { self.mu } else { -self.mu }))
            .collect();
        SparseUpdate::from_pairs(self.dim, pairs)
    }

    /// Number of kept coordinates.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Dimension of the underlying parameter vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_count_boundaries() {
        assert_eq!(keep_count(10, 1.0), 10);
        assert_eq!(keep_count(10, 0.25), 3); // rounds 2.5 → 3 (round half up)
        assert_eq!(keep_count(0, 0.5), 0);
    }

    #[test]
    fn sparsify_keeps_largest() {
        let delta = vec![1.0f32, -5.0, 2.0, 4.0, -3.0];
        let u = sparsify(&delta, 0.4);
        assert_eq!(u.indices(), &[1, 3]);
        assert_eq!(u.values(), &[-5.0, 4.0]);
    }

    #[test]
    fn sparsify_q_one_is_identity_support() {
        let delta = vec![1.0f32, 0.0, 2.0];
        let u = sparsify(&delta, 1.0);
        assert_eq!(u.nnz(), 3);
        assert_eq!(u.to_dense(), delta);
    }

    #[test]
    fn sparsify_q_zero_is_empty() {
        assert!(sparsify(&[1.0, 2.0], 0.0).is_empty());
    }

    #[test]
    fn sparsified_energy_dominates() {
        // The kept coordinates carry at least q of the total L2 energy.
        let delta: Vec<f32> = (0..100)
            .map(|i| (i as f32 * 0.37).sin() * i as f32)
            .collect();
        let u = sparsify(&delta, 0.2);
        let kept: f64 = u
            .values()
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum();
        let total: f64 = delta.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
        assert!(kept / total > 0.2);
    }

    #[test]
    fn ternary_roundtrip_preserves_signs_and_support() {
        let delta = vec![0.0f32, -5.0, 2.0, 4.0, -3.0, 0.1];
        let u = sparsify(&delta, 0.5);
        let t = TernaryUpdate::quantize(&u);
        let back = t.dequantize();
        assert_eq!(back.indices(), u.indices());
        for (orig, quant) in u.values().iter().zip(back.values()) {
            assert_eq!(orig.signum(), quant.signum());
            assert!((quant.abs() - t.mu).abs() < 1e-6);
        }
        // mu = mean kept magnitude.
        let mean: f32 = u.values().iter().map(|v| v.abs()).sum::<f32>() / u.nnz() as f32;
        assert!((t.mu - mean).abs() < 1e-6);
    }

    #[test]
    fn ternary_from_parts_round_trips_quantize() {
        let u = sparsify(&[0.0f32, -5.0, 2.0, 4.0], 0.75);
        let t = TernaryUpdate::quantize(&u);
        let rebuilt = TernaryUpdate::from_parts(t.dim(), t.mu, t.indices.clone(), t.signs.clone());
        assert_eq!(rebuilt, t);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn ternary_from_parts_rejects_unsorted() {
        let _ = TernaryUpdate::from_parts(5, 1.0, vec![3, 1], vec![true, false]);
    }

    #[test]
    fn ternary_of_empty_update() {
        let u = SparseUpdate::empty(5);
        let t = TernaryUpdate::quantize(&u);
        assert_eq!(t.nnz(), 0);
        assert!(t.dequantize().is_empty());
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn sparsify_rejects_bad_ratio() {
        let _ = sparsify(&[1.0], 1.5);
    }
}
